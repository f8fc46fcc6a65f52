"""Property tests of the linalg contracts on small sparse matrices over six
fields, checked through the dense oracles of conftest, and of ``_factor``
against the row-stored factorization ``oracle_factor`` over eight."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from leavitt import parse_field_spec  # noqa: E402
from leavitt.linalg import (  # noqa: E402
    _factor,
    _sparse,
    rank_factorization,
    solve_linear,
)

from conftest import identity, naive_mat_mul, naive_rank, oracle_factor  # noqa: E402


def _fields():
    """(field, g) pairs; entries are x + y*g with small integers x, y."""
    q = parse_field_spec("Q")
    out = [(q, q.one / q.from_int(2))]
    for spec in ("Q[i]/conj", "Q[i]/id"):
        field = parse_field_spec(spec)
        out.append((field, field.i))
    for spec in ("GF(3)", "GF(5)"):
        field = parse_field_spec(spec)
        out.append((field, field.one))
    field = parse_field_spec("GF(3,2)")
    out.append((field, field.t))
    return out


FIELDS = _fields()
GF2, GF7_2 = parse_field_spec("GF(2)"), parse_field_spec("GF(7,2)")
FACTOR_FIELDS = FIELDS + [(GF2, GF2.one), (GF7_2, GF7_2.t)]
COEFFS = st.integers(-3, 3)
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, database=None,
                             deadline=None)


def entries(field, g):
    # zero first, so examples shrink towards the zero matrix
    return st.one_of(st.just(field.zero),
                     st.builds(lambda x, y: field.from_int(x) + field.from_int(y) * g,
                               COEFFS, COEFFS))


@st.composite
def systems(draw, side="right"):
    """(field, a, b): a is m x n, b has the shape of a solve on ``side``;
    half of the right-hand sides are consistent by construction."""
    field, g = draw(st.sampled_from(FIELDS))
    m, n, q = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))

    def matrix(rows, cols):
        return [[draw(entries(field, g)) for _ in range(cols)] for _ in range(rows)]

    a = matrix(m, n)
    consistent = draw(st.booleans())
    if side == "right":
        b = naive_mat_mul(a, matrix(n, q)) if consistent else matrix(m, q)
    else:
        b = naive_mat_mul(matrix(q, m), a) if consistent else matrix(q, n)
    return field, a, b


@PROPERTY_SETTINGS
@given(systems())
def test_rank_factorization_contract(system):
    field, a, _ = system
    m, n = len(a), len(a[0])
    fact = rank_factorization(field, a)
    assert fact.rank == naive_rank(a)
    assert naive_mat_mul(fact.p, fact.p_inv) == identity(field, m)
    assert naive_mat_mul(fact.q, fact.q_inv) == identity(field, n)
    assert naive_mat_mul(naive_mat_mul(fact.p, fact.d), fact.q) == a
    assert fact.d == [[field.one if i == j < fact.rank else field.zero for j in range(n)]
                      for i in range(m)]


def check_solve(side, system):
    field, a, b = system
    x = solve_linear(field, a, b, side)
    if side == "right":
        augmented = [ra + rb for ra, rb in zip(a, b)]     # [a | b]
    else:
        augmented = a + b                                 # a over b
    assert (x is None) == (naive_rank(augmented) > naive_rank(a))
    if x is not None:
        assert (naive_mat_mul(a, x) if side == "right" else naive_mat_mul(x, a)) == b


@PROPERTY_SETTINGS
@given(systems("right"))
def test_solve_linear_right(system):
    check_solve("right", system)


@PROPERTY_SETTINGS
@given(systems("left"))
def test_solve_linear_left(system):
    check_solve("left", system)


@st.composite
def factor_inputs(draw):
    """(field, a, m, n) with a as payload rows: leading empty rows force row
    swaps, zero entries move pivots off their position (a relabelling of
    the columns), and duplicated rows reduce to empty rows."""
    field, g = draw(st.sampled_from(FACTOR_FIELDS))
    n = draw(st.integers(0, 6))
    rows = [[draw(entries(field, g)) for _ in range(n)]
            for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    rows = [[field.zero] * n for _ in range(draw(st.integers(0, 2)))] + rows
    return field, _sparse(field, rows), len(rows), n


def _q_rows(rows):
    q = parse_field_spec("Q")
    return [{j: q._from_int(x) for j, x in row.items()} for row in rows]


@PROPERTY_SETTINGS
@given(factor_inputs())
# tall: the rank reaches n before the last row, whose reduction P and P^-1
# still record
@example((parse_field_spec("Q"), _q_rows([{1: 2}, {}, {0: 1, 1: -1}, {1: -2}]), 4, 2))
# fill-in: reducing row 2 by pivot 0 puts an entry in pivot 1's column
@example((parse_field_spec("Q"), _q_rows([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]), 3, 3))
def test_factor_equals_row_oracle(inputs):
    field, a, m, n = inputs
    got = _factor(field, [dict(row) for row in a], m, n)
    assert got == oracle_factor(field, [dict(row) for row in a], m, n)
