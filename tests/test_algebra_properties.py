"""Property tests of normalization and element products on small corpus
graphs, acyclic and cyclic, and on drawn acyclic graphs that mix runs of
single-exit edges with branching vertices, over six fields, checked
against the all-pairs product and the plain worklist normalizer of
conftest."""

from contextlib import contextmanager
from itertools import chain

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from leavitt import (  # noqa: E402
    Element,
    NotStarRegularError,
    Path,
    Rationals,
    is_acyclic,
    parse_element,
    projection_generator,
    regular_witness,
    sink_normal_form,
    standard_graph,
    unit_regular_witness,
)
from leavitt import algebra, io, semisimple  # noqa: E402
from leavitt.graphs import in_edges  # noqa: E402

from conftest import (  # noqa: E402
    corpus,
    oracle_mul,
    oracle_normalize_terms,
    oracle_product_payloads,
)
from test_linalg_properties import COEFFS, FIELDS, PROPERTY_SETTINGS  # noqa: E402
from test_witness_properties import branching_graphs, tailed_monomial  # noqa: E402

GRAPHS = corpus()
LINE2 = standard_graph("line", 2)
Q = Rationals()


def _path_to(draw, g, v):
    """A backward walk of at most three edges into v."""
    edges = []
    for _ in range(draw(st.integers(0, 3))):
        ins = in_edges(g, v)
        if not ins:
            break
        e = draw(st.sampled_from(ins))
        edges.append(e.id)
        v = e.src
    return Path(v, tuple(reversed(edges)))


@st.composite
def raw_streams(draw):
    """(g, field, raw): up to six (coeff, p, q) triples as in ``operands``,
    some with a zero coefficient, some followed by a copy that cancels it or
    by a second copy of the same monomial. Half the time g is a branching
    acyclic graph and p and q share a tail of up to six edges, so that runs
    of single-exit last edges meet branching vertices in the rewrite."""
    branching = draw(st.booleans())
    if branching:
        g = draw(branching_graphs())
    else:
        g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    field, gen = draw(st.sampled_from(FIELDS))

    raw = []
    for _ in range(draw(st.integers(0, 6))):
        if branching:
            p, q = tailed_monomial(draw, g, 6)
        else:
            v = draw(st.sampled_from(g.vertices))
            p, q = _path_to(draw, g, v), _path_to(draw, g, v)
        c = field.from_int(draw(COEFFS)) + field.from_int(draw(COEFFS)) * gen
        raw.append((c, p, q))
        follow = draw(st.integers(0, 3))
        if follow == 1:
            raw.append((-c, p, q))
        elif follow == 2:
            raw.append((c, p, q))
    return g, field, raw


def _coeff(draw, field, gen):
    return field.from_int(draw(COEFFS)) + field.from_int(draw(COEFFS)) * gen


def _element(draw, g, field, gen) -> Element:
    """Up to eight monomials p.q*, p and q backward walks of at most three
    edges into a common vertex, coefficients a + b*g with small integers
    a, b; eight is the most terms a benchmark operand has."""
    raw = []
    for _ in range(draw(st.integers(0, 8))):
        v = draw(st.sampled_from(g.vertices))
        raw.append((_coeff(draw, field, gen), _path_to(draw, g, v), _path_to(draw, g, v)))
    return Element.from_terms(g, field, raw)


@st.composite
def operands(draw):
    """(x, y): two ``_element``s over one corpus graph and field."""
    g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    field, gen = draw(st.sampled_from(FIELDS))
    return _element(draw, g, field, gen), _element(draw, g, field, gen)


def _unnormal_map(draw, g, field, gen) -> dict:
    """A monomial -> payload map, not normalized, of up to eight monomials;
    some have p and q ending in the same special edge f, as backward walks
    into s(f) followed by f. Every payload is nonzero."""
    special = sorted(algebra.special_edges(g).items())
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        c = _coeff(draw, field, gen)
        if not c:
            continue
        if special and draw(st.booleans()):
            w, f = draw(st.sampled_from(special))
            p, q = _path_to(draw, g, w), _path_to(draw, g, w)
            p, q = Path(p.base, p.edges + (f,)), Path(q.base, q.edges + (f,))
        else:
            v = draw(st.sampled_from(g.vertices))
            p, q = _path_to(draw, g, v), _path_to(draw, g, v)
        terms[(p, q)] = c.payload
    return terms


@st.composite
def term_maps(draw):
    """(g, field, left, right): two monomial -> payload maps over one corpus
    graph and field, each a normal element, a product of two, a
    ``sink_normal_form`` output (acyclic graphs only) or an unnormalized
    map; the last two are not in normal form."""
    g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    field, gen = draw(st.sampled_from(FIELDS))

    def term_map() -> dict:
        kind = draw(st.sampled_from(("normal", "product", "sink", "unnormal")))
        if kind == "unnormal":
            return _unnormal_map(draw, g, field, gen)
        x = _element(draw, g, field, gen)
        if kind == "product":
            x = x * _element(draw, g, field, gen)
        elif kind == "sink" and is_acyclic(g):
            x = sink_normal_form(x)
        return x._terms

    return g, field, term_map(), term_map()


@PROPERTY_SETTINGS
@given(operands())
def test_product_matches_all_pairs_oracle(pair):
    x, y = pair
    assert x * y == oracle_mul(x, y)


@PROPERTY_SETTINGS
@given(term_maps())
def test_product_kernel_files_like_the_normalizer(case):
    # the kernel files each term as it forms it; normalizing the all-pairs
    # raw list, built in the maps' order, gives the same items in the same
    # order, on operands in normal form or not
    g, field, left, right = case
    want = algebra._normalize_terms(g, field, oracle_product_payloads(field, left, right))
    assert list(algebra._product(g, field, left, right).items()) == list(want.items())


def test_product_of_a_vertex_and_its_sink_normal_form():
    # sink_normal_form(v1) is e1.e1*, outside normal form since p and q end
    # in the special edge e1, so a product with it must still rewrite it
    v1 = Element.vertex(LINE2, Q, "v1")
    nf = sink_normal_form(v1)
    assert v1 * nf == v1 == nf * v1


@PROPERTY_SETTINGS
@given(operands())
def test_star_reverses_products(pair):
    x, y = pair
    assert (x * y).star() == y.star() * x.star()


@PROPERTY_SETTINGS
@given(operands())
def test_additive_inverse(pair):
    x, _ = pair
    assert (x + (-x)).is_zero


@PROPERTY_SETTINGS
@given(raw_streams(), st.sampled_from(("lifo", "fifo")))
def test_from_terms_matches_the_plain_normalizer(case, schedule):
    g, field, raw = case
    payloads = [(c.payload, p, q) for c, p, q in raw]
    want = oracle_normalize_terms(g, field, payloads, schedule)
    assert Element.from_terms(g, field, raw, schedule)._terms == want
    assert oracle_normalize_terms(g, field, payloads, "fifo") == want


@PROPERTY_SETTINGS
@given(operands())
def test_no_stored_coefficient_is_zero(pair):
    x, y = pair
    is_zero = x.field._is_zero
    for z in (x, y, x * y, y * x, x * x.star(), x + y, x - x, -x, x.star(),
              x.scale(0), x.scale(2)):
        assert not any(is_zero(c) for c in z._terms.values())


@contextmanager
def zero_payloads_passed():
    """Wrap ``_normalize_terms`` as ``algebra``, ``io`` and ``semisimple``
    bind it, and the product kernel ``_product`` as ``algebra`` and ``io``
    bind it; the yielded list gets, per call, how many of the payloads
    passed in were zero, in the raw stream or in both operand maps."""
    counts = []
    normalize, product = algebra._normalize_terms, algebra._product

    def checked_normalize(g, field, raw, *args, **kwargs):
        counts.append(sum(1 for c, _, _ in raw if field._is_zero(c)))
        return normalize(g, field, raw, *args, **kwargs)

    def checked_product(g, field, left, right):
        counts.append(sum(1 for c in chain(left.values(), right.values())
                          if field._is_zero(c)))
        return product(g, field, left, right)

    wrapped = [(module, "_normalize_terms", normalize, checked_normalize)
               for module in (algebra, io, semisimple)]
    wrapped += [(module, "_product", product, checked_product) for module in (algebra, io)]
    for module, name, _, checked in wrapped:
        setattr(module, name, checked)
    try:
        yield counts
    finally:
        for module, name, original, _ in wrapped:
            setattr(module, name, original)


ZERO_TEXTS = ("0*e1", "0", "-0*v1", "0*e1 + 0", "e1 - 0*v2 + 0*e1.e1*")


@PROPERTY_SETTINGS
@given(raw_streams(), operands(), st.sampled_from(ZERO_TEXTS))
def test_no_zero_payload_reaches_the_normalizer(case, pair, text):
    # zeros stop at the two doors, from_terms and the parser; products and
    # the builders' payload rows never make one
    g, field, raw = case
    x, y = pair
    zero = [(0, p, q) for _, p, q in raw[:1]] + [(field.zero, p, q) for _, p, q in raw[1:2]]
    with zero_payloads_passed() as counts:
        Element.from_terms(g, field, raw + zero)
        parse_element(text, LINE2, field)
        for a, b in ((x, y), (y, x), (x, x.star())):
            a * b
        if is_acyclic(x.graph):
            for build in (regular_witness, projection_generator, unit_regular_witness):
                try:
                    build(x.graph, x.field, x)
                except NotStarRegularError:
                    pass
    assert len(counts) >= 5 and not any(counts)
