"""Property tests of element products on small corpus graphs, acyclic and
cyclic, over six fields, checked against the all-pairs oracle of conftest."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from leavitt import Element, Path  # noqa: E402
from leavitt.graphs import in_edges  # noqa: E402

from conftest import corpus, oracle_mul  # noqa: E402
from test_linalg_properties import COEFFS, FIELDS, PROPERTY_SETTINGS  # noqa: E402

GRAPHS = corpus()


@st.composite
def operands(draw):
    """(x, y) over one corpus graph and field: up to four monomials p.q*
    each, p and q backward walks of at most three edges into a common
    vertex, coefficients a + b*g with small integers a, b."""
    g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    field, gen = draw(st.sampled_from(FIELDS))

    def path_to(v):
        edges = []
        for _ in range(draw(st.integers(0, 3))):
            ins = in_edges(g, v)
            if not ins:
                break
            e = draw(st.sampled_from(ins))
            edges.append(e.id)
            v = e.src
        return Path(v, tuple(reversed(edges)))

    def element():
        raw = []
        for _ in range(draw(st.integers(0, 4))):
            v = draw(st.sampled_from(g.vertices))
            c = field.from_int(draw(COEFFS)) + field.from_int(draw(COEFFS)) * gen
            raw.append((c, path_to(v), path_to(v)))
        return Element.from_terms(g, field, raw)

    return element(), element()


@PROPERTY_SETTINGS
@given(operands())
def test_product_matches_all_pairs_oracle(pair):
    x, y = pair
    assert x * y == oracle_mul(x, y)


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
