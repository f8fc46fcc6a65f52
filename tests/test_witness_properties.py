"""Property tests of the witness builders on small random acyclic graphs,
some mixing runs of single-exit edges with branching vertices, over every
field of conftest: each certificate verifies and equals, by its
printed form, the one the dense sink route of conftest builds, which works
on every sink's block while the builders work on a's blocks alone."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from leavitt import (  # noqa: E402
    Element,
    Graph,
    NotStarRegularError,
    Path,
    Rationals,
    e_f_graph,
    format_element,
    improper_element,
    m_n_graph,
    parse_element,
    phi,
    projection_generator,
    regular_witness,
    sinks,
    unit_regular_witness,
    verify_improper,
    verify_inner_inverse,
    verify_projection,
    verify_unit_regular,
)
from leavitt.graphs import in_edges  # noqa: E402
from leavitt.semisimple import _phi_rows  # noqa: E402

from conftest import (  # noqa: E402
    ALL_FIELDS,
    corpus,
    oracle_projection_generator,
    oracle_regular_witness,
    oracle_unit_regular_witness,
    random_element,
)
from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402


@st.composite
def acyclic_graphs(draw):
    """Up to 7 vertices, up to 8 edges each from a lower to a higher vertex
    (so the graph is acyclic), parallel edges included."""
    n = draw(st.integers(1, 7))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=8))
    edges = [(f"e{j}", f"v{min(s, d)}", f"v{max(s, d)}")
             for j, (s, d) in enumerate(pairs) if s != d]
    return Graph.build([f"v{i}" for i in range(n)], edges)


@st.composite
def mixed_dags(draw):
    """3 to 8 vertices in topological order, each but the last with 0 to 3
    out-edges, mostly one: the first to the next vertex, the others to one
    of the next three. So runs of single-exit edges (a vertex's only
    out-edge) are joined at branching vertices, and long paths are common."""
    n = draw(st.integers(3, 8))
    edges = []
    for i in range(n - 1):
        for j in range(draw(st.sampled_from((1, 2, 1, 3, 0)))):
            d = i + 1 if j == 0 else min(i + draw(st.integers(1, 3)), n - 1)
            edges.append((f"e{len(edges)}", f"v{i}", f"v{d}"))
    return Graph.build([f"v{i}" for i in range(n)], edges)


@st.composite
def branching_graphs(draw):
    """A mixed DAG, its M_2 or M_3 (a single-exit tail into every vertex),
    or its E_F graph for a non-empty F."""
    g = draw(mixed_dags())
    kind = draw(st.sampled_from(("dag", "m_n", "e_f")))
    if kind == "m_n":
        return m_n_graph(g, draw(st.integers(2, 3)))
    if kind == "e_f" and g.ids:
        return e_f_graph(g, draw(st.lists(st.sampled_from(g.ids), min_size=1, unique=True)))
    return g


def walk_into(draw, g, v, most, exact=False) -> Path:
    """A backward walk of at most ``most`` edges into v; with ``exact``, of
    ``most`` edges unless it reaches a source first."""
    edges = []
    for _ in range(most if exact else draw(st.integers(0, most))):
        ins = in_edges(g, v)
        if not ins:
            break
        e = draw(st.sampled_from(ins))
        edges.append(e.id)
        v = e.src
    return Path(v, tuple(reversed(edges)))


def tailed_monomial(draw, g, tail_len) -> tuple:
    """(p, q): walks of at most two edges into the start of a shared tail,
    a backward walk of ``tail_len`` edges (fewer where it meets a source)
    into a drawn vertex, sinks first, so that a run of common last edges
    reaches the CK2 rewrite."""
    ends = sinks(g)
    end = draw(st.sampled_from(sorted(g.vertices, key=lambda v: v not in ends)))
    tail = walk_into(draw, g, end, tail_len, exact=True)
    p, q = walk_into(draw, g, tail.base, 2), walk_into(draw, g, tail.base, 2)
    return Path(p.base, p.edges + tail.edges), Path(q.base, q.edges + tail.edges)


@st.composite
def cases(draw):
    """(g, k, a): g from ``acyclic_graphs`` or ``branching_graphs``; a has up
    to four monomials with paths of at most three edges, or (on a branching
    graph) whose paths share a tail of up to six edges, or is an improper
    element of (g, k) when there is one, so that the projection
    construction meets its inconsistent solves too."""
    branching = draw(st.booleans())
    g = draw(branching_graphs() if branching else acyclic_graphs())
    k = draw(st.sampled_from(ALL_FIELDS))
    if draw(st.integers(0, 3)) == 0:
        a = improper_element(g, k)
        if a is not None:
            return g, k, a
    if branching and draw(st.booleans()):
        raw = [(k.from_int(draw(st.sampled_from((1, -1, 2, 3)))), *tailed_monomial(draw, g, 6))
               for _ in range(draw(st.integers(1, 4)))]
        return g, k, Element.from_terms(g, k, raw)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return g, k, random_element(g, k, rng, max_terms=4, max_len=3)


Q = Rationals()
UNION_2_1 = corpus()["union_2_1"]
# w = g.g* + f.f* toward the sinks, so a = w - f.f* reaches s2 and cancels there
FORK = Graph.build(["w", "s1", "s2"], [("g", "w", "s1"), ("f", "w", "s2")])
# a reaching one of two sinks, a = 0, and a whose expansion cancels at a sink
EXAMPLES = tuple((g, Q, parse_element(text, g, Q))
                 for g, text in ((UNION_2_1, "e1"), (UNION_2_1, "0"), (FORK, "w - f.f*")))


def with_examples(test):
    for case in reversed(EXAMPLES):
        test = example(case)(test)
    return test


@PROPERTY_SETTINGS
@given(cases())
@with_examples
def test_phi_rows_hold_exactly_the_nonzero_blocks(case):
    _, _, a = case
    rows, image = _phi_rows(a), phi(a)
    assert set(rows) == {v for v, block in image.rows.items() if any(block)}
    assert all(image.rows[v] == block for v, block in rows.items())
    assert list(image.rows) == list(image.basis.sinks)


def test_fork_example_cancels_at_s2():
    assert set(_phi_rows(EXAMPLES[2][2])) == {"s1"}
    assert _phi_rows(Element.zero(FORK, Q)) == {}


@PROPERTY_SETTINGS
@given(cases())
@with_examples
def test_inner_inverse_matches_the_sink_route(case):
    g, k, a = case
    b = regular_witness(g, k, a)
    assert format_element(b) == format_element(oracle_regular_witness(g, k, a))
    assert verify_inner_inverse(a, b)


@PROPERTY_SETTINGS
@given(cases())
@with_examples
def test_unit_regular_data_match_the_sink_route(case):
    g, k, a = case
    cert = unit_regular_witness(g, k, a)
    u, u_prime = oracle_unit_regular_witness(g, k, a)
    assert (format_element(cert.u), format_element(cert.u_prime)) == \
        (format_element(u), format_element(u_prime))
    assert verify_unit_regular(a, cert)


@PROPERTY_SETTINGS
@given(cases())
@with_examples
def test_projection_matches_the_sink_route(case):
    g, k, a = case
    try:
        want = oracle_projection_generator(g, k, a)
    except NotStarRegularError as exc:
        with pytest.raises(NotStarRegularError) as got:
            projection_generator(g, k, a)
        c = got.value.certificate
        assert format_element(c) == format_element(exc.certificate)
        assert verify_improper(c)
        return
    cert = projection_generator(g, k, a)
    assert (format_element(cert.p), format_element(cert.factor)) == \
        tuple(map(format_element, want))
    assert verify_projection(a, cert)
