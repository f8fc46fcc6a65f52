import itertools
import json
import pathlib
import random
import sys

import pytest

from leavitt import Element, PrimeField, Rationals, parse_field_spec
from leavitt.fields import FieldMismatchError, FieldValue
from leavitt.linalg import (
    ShapeError,
    SolveSideError,
    _factor,
    _mul,
    mat_mul,
    rank_factorization,
    solve_linear,
)
from leavitt.semisimple import _phi_rows

from conftest import (
    ALL_FIELDS,
    identity,
    is_zero_matrix,
    ladder,
    mat_from_rows,
    naive_mat_mul,
    naive_rank,
    zeros,
)

Q = Rationals()
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def random_matrix(field, rng, m, n):
    return [[field.sample(rng) for _ in range(n)] for _ in range(m)]


class TestRankFactorization:
    def test_identity(self):
        fact = rank_factorization(Q, identity(Q, 3))
        assert fact.rank == 3
        assert fact.p == identity(Q, 3)
        assert fact.q == identity(Q, 3)
        assert fact.d == identity(Q, 3)

    def test_zero(self):
        fact = rank_factorization(Q, zeros(Q, 2, 2))
        assert fact.rank == 0
        assert is_zero_matrix(fact.d)

    def test_gf5_rank_one(self):
        a = mat_from_rows(GF5, [[1, 2], [2, 4]])  # second row doubles the first
        fact = rank_factorization(GF5, a)
        assert fact.rank == 1
        assert mat_mul(mat_mul(fact.p, fact.d), fact.q) == a

    def test_random(self, rng):
        for field in ALL_FIELDS:
            for _ in range(15):
                m = rng.randint(1, 5)
                n = rng.randint(1, 5)
                a = random_matrix(field, rng, m, n)
                fact = rank_factorization(field, a)
                assert mat_mul(mat_mul(fact.p, fact.d), fact.q) == a
                assert mat_mul(fact.p, fact.p_inv) == identity(field, m)
                assert mat_mul(fact.q, fact.q_inv) == identity(field, n)
                for i in range(m):
                    for j in range(n):
                        want = field.one if (i == j and i < fact.rank) else field.zero
                        assert fact.d[i][j] == want

    def test_low_rank_products(self, rng):
        for _ in range(20):
            m, r, n = rng.randint(1, 4), rng.randint(0, 2), rng.randint(1, 4)
            left = random_matrix(Q, rng, m, r) if r else zeros(Q, m, 1)
            right = random_matrix(Q, rng, r, n) if r else zeros(Q, 1, n)
            a = mat_mul(left, right)
            assert rank_factorization(Q, a).rank <= r


class TestSolveLinear:
    def test_identity_system(self, rng):
        b = random_matrix(Q, rng, 3, 2)
        assert solve_linear(Q, identity(Q, 3), b, "right") == b

    def test_zero_inconsistent(self):
        b = mat_from_rows(Q, [[1, 0], [0, 0]])
        assert solve_linear(Q, zeros(Q, 2, 2), b, "right") is None
        assert solve_linear(Q, zeros(Q, 2, 2), b, "left") is None

    def test_gf3_left_example(self):
        a = mat_from_rows(GF3, [[1, 1], [0, 0]])
        x = solve_linear(GF3, a, a, "left")
        assert x is not None and mat_mul(x, a) == a

    def test_consistent_systems_solve(self, rng):
        for field in (Q, GF3, GF5):
            for side in ("left", "right"):
                for _ in range(20):
                    m, n, q = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
                    a = random_matrix(field, rng, m, n)
                    if side == "right":
                        x0 = random_matrix(field, rng, n, q)
                        b = mat_mul(a, x0)
                        x = solve_linear(field, a, b, side)
                        assert x is not None and mat_mul(a, x) == b
                    else:
                        x0 = random_matrix(field, rng, q, m)
                        b = mat_mul(x0, a)
                        x = solve_linear(field, a, b, side)
                        assert x is not None and mat_mul(x, a) == b

    def test_none_means_inconsistent_small_gf2(self):
        # exhaustive cross-check on 2x2 systems over GF(2)
        gf2 = PrimeField(2)
        pool = [gf2.zero, gf2.one]
        mats = [
            [[a, b], [c, d]]
            for a, b, c, d in itertools.product(pool, repeat=4)
        ]
        for a in mats:
            for b in mats:
                got = solve_linear(gf2, a, b, "right")
                brute = any(mat_mul(a, x) == b for x in mats)
                if got is None:
                    assert not brute
                else:
                    assert mat_mul(a, got) == b

    def test_unknown_side_is_named(self):
        with pytest.raises(SolveSideError, match="side must be 'left' or 'right', got 'sideways'"):
            solve_linear(Q, identity(Q, 2), zeros(Q, 2, 2), "sideways")
        assert issubclass(SolveSideError, ValueError)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            solve_linear(Q, identity(Q, 2), zeros(Q, 3, 1), "right")
        with pytest.raises(ShapeError) as exc:
            solve_linear(Q, identity(Q, 2), zeros(Q, 2, 3), "left")
        assert str(exc.value) == "left solve needs matching column counts"


class TestShapes:
    """Every dense entry point reads its operands' shapes through
    ``mat_shape``, which refuses rows of unequal length instead of reading
    the short rows as padded with zeros."""

    RAGGED = ([[1, 2], [3]], [[1, 2], []], [[1], [2, 3]])

    @pytest.mark.parametrize("a", RAGGED, ids=["short-last", "empty-last", "short-first"])
    def test_ragged_matrix_refused(self, a):
        with pytest.raises(ShapeError, match="rows of unequal length"):
            rank_factorization(Q, a)
        with pytest.raises(ShapeError, match="rows of unequal length"):
            solve_linear(Q, a, mat_from_rows(Q, [[1], [1]]), "right")
        with pytest.raises(ShapeError, match="rows of unequal length"):
            mat_mul(mat_from_rows(Q, a), identity(Q, 2))

    def test_mismatched_product_refused(self):
        with pytest.raises(ShapeError) as exc:
            mat_mul(identity(Q, 2), zeros(Q, 3, 1))
        assert str(exc.value) == "cannot multiply 2x2 by 3x1"

    def test_empty_product(self):
        assert mat_mul([[], []], []) == [[], []]


CONTRACT_SPECS = ("Q", "Q[i]/conj", "Q[i]/id", "GF(5)", "GF(3,2)")


def sparse_matrix(field, rng, m, n, density):
    return [[field.sample(rng) if rng.random() < density else field.zero
             for _ in range(n)] for _ in range(m)]


def contract_matrices(field, rng):
    """Seeded sparse (full and low rank), all-zero and identity matrices of
    every size from 1 to 12."""
    for size in range(1, 13):
        yield zeros(field, size, size)
        yield identity(field, size)
        for density in (0.1, 0.3):
            yield sparse_matrix(field, rng, size, rng.randint(1, 12), density)
        inner = rng.randint(1, max(1, size // 2))
        yield naive_mat_mul(sparse_matrix(field, rng, size, inner, 0.5),
                            sparse_matrix(field, rng, inner, size, 0.5))


def assert_dense_over(field, mat, m, n):
    assert len(mat) == m and all(len(row) == n for row in mat)
    assert all(isinstance(x, FieldValue) and x.field is field for row in mat for x in row)


class TestKernelContract:
    """The zero-skipping kernels give what the dense loops give, as dense
    rows of FieldValues of the operands' field."""

    @pytest.mark.parametrize("spec", CONTRACT_SPECS)
    def test_mat_mul_matches_naive(self, spec):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        for a in contract_matrices(field, rng):
            m, k = len(a), len(a[0])
            for b in (sparse_matrix(field, rng, k, rng.randint(1, 12), 0.2),
                      identity(field, k), zeros(field, k, 3)):
                got = mat_mul(a, b)
                assert_dense_over(field, got, m, len(b[0]))
                assert got == naive_mat_mul(a, b)

    @pytest.mark.parametrize("spec", CONTRACT_SPECS)
    def test_rank_factorization(self, spec):
        field = parse_field_spec(spec)
        for a in contract_matrices(field, random.Random(spec)):
            m, n = len(a), len(a[0])
            fact = rank_factorization(field, a)
            for mat, shape in ((fact.p, (m, m)), (fact.p_inv, (m, m)), (fact.d, (m, n)),
                               (fact.q, (n, n)), (fact.q_inv, (n, n))):
                assert_dense_over(field, mat, *shape)
            assert naive_mat_mul(fact.p, fact.p_inv) == identity(field, m)
            assert naive_mat_mul(fact.q, fact.q_inv) == identity(field, n)
            assert naive_mat_mul(naive_mat_mul(fact.p, fact.d), fact.q) == a
            assert fact.rank == naive_rank(a)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            mat_mul(zeros(Q, 2, 2), identity(GF5, 2))

    def test_mat_mul_takes_the_field_from_either_operand(self):
        assert mat_mul([[1]], identity(Q, 1)) == mat_from_rows(Q, [[1]])
        assert mat_mul([[2, 0]], mat_from_rows(GF5, [[1], [3]])) == mat_from_rows(GF5, [[2]])
        with pytest.raises(FieldMismatchError):
            mat_mul([[1]], [[1]])

    def test_int_entries_are_field_elements(self):
        assert rank_factorization(Q, [[1]]).p == identity(Q, 1)
        assert rank_factorization(GF5, [[6, 0], [0, 5]]).d == mat_from_rows(GF5, [[1, 0], [0, 0]])
        assert solve_linear(Q, [[2]], [[4]], "right") == mat_from_rows(Q, [[2]])
        assert mat_mul(identity(Q, 2), [[1, 2], [3, 4]]) == mat_from_rows(Q, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("entry", [1.0, "1", None])
    def test_other_entries_rejected(self, entry):
        with pytest.raises(FieldMismatchError):
            rank_factorization(Q, [[entry]])


def counting_rationals():
    """A fresh Q, not the cached parse_field_spec("Q"), whose scalar
    products are counted."""
    field = Rationals()
    calls = [0]
    mul = field._mul

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)

    field._mul = counted
    return field, calls


def count_zero_tests(field):
    """Count the zero tests of a field from ``counting_rationals``."""
    return count_calls(field, "_is_zero")


def count_calls(field, name):
    """Count the calls of one payload method of a fresh field."""
    calls = [0]
    method = getattr(field, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    setattr(field, name, counted)
    return calls


def count_dict_calls(field, rows, m, n):
    """The rank, and the ``dict.pop`` and ``dict.get`` calls of one
    ``_factor`` call on ``rows``."""
    counts = {"pop": 0, "get": 0}

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ in counts and type(arg.__self__) is dict:
            counts[arg.__name__] += 1

    sys.setprofile(profile)
    try:
        rank = _factor(field, rows, m, n)[-1]
    finally:
        sys.setprofile(None)
    return rank, counts


def permutation_matrix(field, n):
    perm = random.Random(12).sample(range(n), n)
    return [[field.one if perm[i] == j else field.zero for j in range(n)]
            for i in range(n)]


class TestWorkGate:
    """Upper bounds on scalar products and zero tests: zero factors cost
    nothing."""

    def test_mat_mul_by_identity_costs_the_nonzeros(self):
        field, calls = counting_rationals()
        rng = random.Random(12)
        for density in (0.0, 0.05, 0.2, 0.5, 1.0):
            a = sparse_matrix(field, rng, 12, 12, density)
            s = sum(1 for row in a for x in row if x)
            for left, right in ((a, identity(field, 12)), (identity(field, 12), a)):
                calls[0] = 0
                assert mat_mul(left, right) == a
                assert calls[0] <= s

    def test_rank_factorization_of_a_permutation(self):
        field, calls = counting_rationals()
        perm = random.Random(12).sample(range(12), 12)
        a = [[field.one if perm[i] == j else field.zero for j in range(12)]
             for i in range(12)]
        fact = rank_factorization(field, a)
        assert fact.rank == 12
        # the three 12x12 products of the self-check, one product per
        # nonzero pair: P.P^-1, Q.Q^-1 and (P.D).Q; P.D is P cut to its
        # first rank columns, no product
        assert calls[0] <= 36

    # Zero tests: one per input entry read, plus at most one per scalar
    # product formed (a sum that may vanish); walking dense zeros is not
    # allowed. The bounds are those counts for this kernel's products.

    def test_zero_tests_of_a_permutation_factorization(self):
        field, calls = counting_rationals()
        zero_tests = count_zero_tests(field)
        a = permutation_matrix(field, 12)
        rank_factorization(field, a)
        assert zero_tests[0] <= 144 + calls[0] <= 192

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_tests_of_a_permutation_solve(self, side):
        field, calls = counting_rationals()
        zero_tests = count_zero_tests(field)
        a = permutation_matrix(field, 12)
        assert solve_linear(field, a, a, side) == identity(field, 12)
        # a and b are read once each: 288 entries
        assert zero_tests[0] <= 288 + calls[0] <= 360

    def test_zero_tests_of_a_diagonal_factorization(self):
        field, calls = counting_rationals()
        a = [[field.from_int(i + 1) if i == j else field.zero for j in range(40)]
             for i in range(40)]
        zero_tests = count_zero_tests(field)
        fact = rank_factorization(field, a)
        assert fact.rank == 40
        assert zero_tests[0] <= 1600 + calls[0] <= 1877

    def test_one_nonzero_factorization_forms_no_sum(self):
        # one nonzero in a 12x12 block: no elimination step, and P, P^-1,
        # Q and Q^-1 have one entry per row, so each self-check product row
        # is a scaled row of the right factor, with no sum and no zero test;
        # what remains are the 144 zero tests of reading the input
        field = Rationals()
        adds, zero_tests = count_calls(field, "_add"), count_zero_tests(field)
        a = [[field.from_int(3) if (i, j) == (4, 7) else field.zero for j in range(12)]
             for i in range(12)]
        assert rank_factorization(field, a).rank == 1
        assert adds[0] + zero_tests[0] <= 144

    def test_product_rows_are_fresh(self):
        # ``_factor`` consumes the rows it is given, so no row of a product
        # may be a row of an operand, also where a left row has one entry
        one, two = Q._from_int(1), Q._from_int(2)
        a = [{1: one}, {0: two}, {0: one, 2: one}, {}]
        b = [{0: one}, {2: two, 1: one}, {}]
        eye = [{i: one} for i in range(3)]
        for left, right in ((a, b), (eye, b), (b, eye), (eye, eye)):
            saved = [dict(row) for row in right]
            out = _mul(Q, left, right)
            assert not {id(row) for row in out} & {id(row) for row in left + right}
            _factor(Q, out, len(out), 3)
            assert right == saved

    def test_row_swaps_move_no_entries(self):
        # 128 empty rows over [I | 0]: every pivot is a row swap and none is
        # a column swap, so P and Q^-1, kept by columns, swap two list
        # slots; swapping keys in every row of P would pop 2 * 256 per pivot
        field = Rationals()
        one = field._from_int(1)
        rows = [{} for _ in range(128)] + [{i: one} for i in range(128)]
        rank, counts = count_dict_calls(field, rows, 256, 256)
        assert rank == 128
        assert counts["pop"] == 0

    def test_scans_skip_rows_known_empty(self):
        # phi(v0 + 2*a0) at the sink of the 8-rung ladder: 511 rows, 256 of
        # them nonempty, rank 256, and every pivot a column swap. No
        # nonempty row holds an earlier pivot's column, so no row needs
        # reducing, and a column swap is a relabelling; eager elimination
        # instead pops two keys from each later row per column swap and
        # reads column k in each later row, 65,792 pops and 32,640 gets
        field = Rationals()
        g = ladder(8)
        x = Element.vertex(g, field, "v0") + Element.edge(g, field, "a0").scale(2)
        rows = _phi_rows(x)["v8"]
        nonempty = sum(1 for row in rows if row)
        rank, counts = count_dict_calls(field, rows, 511, 511)
        assert (rank, nonempty) == (256, 256)
        assert counts == {"pop": 0, "get": 0}

    def test_arrow_reduces_each_row_once(self):
        # row 0 is e_0 and row i is e_0 + e_i: each later row takes one
        # elimination step, by pivot 0, so one pop each and no read of a
        # later row per pivot; eager elimination reads column k of every
        # later row for each pivot k, 130,816 gets
        field = Rationals()
        one = field._from_int(1)
        m = 512
        rows = [{0: one}] + [{0: one, i: one} for i in range(1, m)]
        rank, counts = count_dict_calls(field, rows, m, m)
        assert rank == m
        assert counts["pop"] <= m - 1
        assert counts["get"] == 0

    def test_bad_side_forms_no_product(self):
        field, calls = counting_rationals()
        a = permutation_matrix(field, 12)
        with pytest.raises(ValueError):
            solve_linear(field, a, a, side="up")
        assert calls[0] == 0


GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "linalg_factorizations.json"
GOLDEN_SPECS = ("Q", "Q[i]/conj", "Q[i]/id", "GF(3)", "GF(5)", "GF(3,2)")
GOLDEN_DENSITIES = (0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0)


def golden_inputs(field, rng):
    """Eight seeded (a, right-hand side, left-hand side) triples of sizes up
    to 6; even cases get consistent sides a.X0 and X0.a, odd cases random
    ones, which are often inconsistent."""
    for i, density in enumerate(GOLDEN_DENSITIES):
        m, n, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        a = sparse_matrix(field, rng, m, n, density)
        if i % 2 == 0:
            b_right = naive_mat_mul(a, sparse_matrix(field, rng, n, q, 0.5))
            b_left = naive_mat_mul(sparse_matrix(field, rng, q, m, 0.5), a)
        else:
            b_right = sparse_matrix(field, rng, m, q, density)
            b_left = sparse_matrix(field, rng, q, n, density)
        yield a, b_right, b_left


def _literals(mat):
    return None if mat is None else [[x.field.literal(x.payload) for x in row]
                                     for row in mat]


def golden_record(field, a, b_right, b_left):
    fact = rank_factorization(field, a)
    return {
        "field": field.spec_string(),
        "a": _literals(a), "b_right": _literals(b_right), "b_left": _literals(b_left),
        "rank": fact.rank,
        "p": _literals(fact.p), "p_inv": _literals(fact.p_inv), "d": _literals(fact.d),
        "q": _literals(fact.q), "q_inv": _literals(fact.q_inv),
        "right": _literals(solve_linear(field, a, b_right, "right")),
        "left": _literals(solve_linear(field, a, b_left, "left")),
    }


def write_golden():
    records = []
    for spec in GOLDEN_SPECS:
        field = parse_field_spec(spec)
        for a, b_right, b_left in golden_inputs(field, random.Random(f"golden {spec}")):
            records.append(golden_record(field, a, b_right, b_left))
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")


def _payload_types(payload):
    return tuple(map(type, payload)) if isinstance(payload, tuple) else type(payload)


def assert_matrix_is(field, got, want):
    """Same shape, and every entry a FieldValue of ``field`` whose payload
    equals the golden literal's in value and in type."""
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for x, lit in zip(got_row, want_row):
            w = field.parse_literal(lit)
            assert type(x) is FieldValue and x.field is field
            assert x.payload == w.payload
            assert _payload_types(x.payload) == _payload_types(w.payload)


class TestGoldenFactorizations:
    """P, P^-1, D, Q, Q^-1, the rank and both solves are pinned value for
    value on seeded matrices over six fields. Regenerate the file with
    ``PYTHONPATH=src python tests/test_linalg.py``, only for an intended
    change of values."""

    RECORDS = json.loads(GOLDEN_PATH.read_text())

    def test_covers_every_field(self):
        assert [r["field"] for r in self.RECORDS] == [
            spec for spec in GOLDEN_SPECS for _ in GOLDEN_DENSITIES]

    @pytest.mark.parametrize("index", range(len(GOLDEN_SPECS) * len(GOLDEN_DENSITIES)))
    def test_matches_golden(self, index):
        want = self.RECORDS[index]
        field = parse_field_spec(want["field"])
        a, b_right, b_left = (mat_from_rows(field, [[field.parse_literal(x) for x in row]
                                                   for row in want[key]])
                              for key in ("a", "b_right", "b_left"))
        fact = rank_factorization(field, a)
        assert fact.rank == want["rank"]
        for key in ("p", "p_inv", "d", "q", "q_inv"):
            assert_matrix_is(field, getattr(fact, key), want[key])
        for side, b in (("right", b_right), ("left", b_left)):
            got = solve_linear(field, a, b, side)
            if want[side] is None:
                assert got is None
            else:
                assert got is not None
                assert_matrix_is(field, got, want[side])


if __name__ == "__main__":
    write_golden()
