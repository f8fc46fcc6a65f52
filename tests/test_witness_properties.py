"""Property tests of the witness builders on small random acyclic graphs
over every field of conftest: each certificate verifies and equals, by its
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
    Rationals,
    format_element,
    improper_element,
    parse_element,
    phi,
    projection_generator,
    regular_witness,
    unit_regular_witness,
    verify_improper,
    verify_inner_inverse,
    verify_projection,
    verify_unit_regular,
)
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
def cases(draw):
    """(g, k, a): g from ``acyclic_graphs``; a has up to four monomials with
    paths of at most three edges, or is an improper element of (g, k) when
    there is one, so that the projection construction meets its
    inconsistent solves too."""
    g = draw(acyclic_graphs())
    k = draw(st.sampled_from(ALL_FIELDS))
    if draw(st.integers(0, 3)) == 0:
        a = improper_element(g, k)
        if a is not None:
            return g, k, a
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
