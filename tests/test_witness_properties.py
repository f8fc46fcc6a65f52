"""Property tests of the witness builders on small random acyclic graphs
over every field of conftest: each certificate verifies and equals, by its
printed form, the one the dense sink route of conftest builds."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from leavitt import (  # noqa: E402
    Graph,
    NotStarRegularError,
    format_element,
    improper_element,
    projection_generator,
    regular_witness,
    unit_regular_witness,
    verify_improper,
    verify_inner_inverse,
    verify_projection,
    verify_unit_regular,
)

from conftest import (  # noqa: E402
    ALL_FIELDS,
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


@PROPERTY_SETTINGS
@given(cases())
def test_inner_inverse_matches_the_sink_route(case):
    g, k, a = case
    b = regular_witness(g, k, a)
    assert format_element(b) == format_element(oracle_regular_witness(g, k, a))
    assert verify_inner_inverse(a, b)


@PROPERTY_SETTINGS
@given(cases())
def test_unit_regular_data_match_the_sink_route(case):
    g, k, a = case
    cert = unit_regular_witness(g, k, a)
    u, u_prime = oracle_unit_regular_witness(g, k, a)
    assert (format_element(cert.u), format_element(cert.u_prime)) == \
        (format_element(u), format_element(u_prime))
    assert verify_unit_regular(a, cert)


@PROPERTY_SETTINGS
@given(cases())
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
