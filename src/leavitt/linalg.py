"""Exact linear algebra over the coefficient fields, skipping zeros.

Matrices are dense: a list of rows, every entry a FieldValue of the
operands' field, and every result has the same form (no int 0, no None, no
sparse rows), because callers index, compare and serialize entries freely.
The blocks of phi(a) are mostly zero, so the kernels form a scalar product
only when both factors are nonzero: ``mat_mul`` walks the nonzero entries
of each row, and the Gauss-Jordan updates of ``rank_factorization`` touch
only the nonzero positions of the pivot row and column. Skipped terms are
exact zeros, so every value is the one the full dense loops would give.

The factorization A = P D Q with invertible P, Q and a 0/1 diagonal D is
the workhorse behind inner inverses, projections, and invertible-factor
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, FieldMismatchError, FieldValue


class ShapeError(ValueError):
    pass


def zeros(field: Field, m: int, n: int):
    z = field.zero
    return [[z for _ in range(n)] for _ in range(m)]


def identity(field: Field, n: int):
    a = zeros(field, n, n)
    for i in range(n):
        a[i][i] = field.one
    return a


def mat_from_rows(field: Field, rows):
    out = []
    for row in rows:
        cooked = []
        for x in row:
            cooked.append(field.from_int(x) if isinstance(x, int) else x)
        out.append(cooked)
    return out


def mat_copy(a):
    return [row[:] for row in a]


def mat_shape(a):
    return (len(a), len(a[0]) if a else 0)


def mat_eq(a, b) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _nonzeros(row):
    return [(j, x) for j, x in enumerate(row) if x]


def mat_mul(a, b):
    m, k = mat_shape(a)
    k2, n = mat_shape(b)
    if k != k2:
        raise ShapeError(f"cannot multiply {m}x{k} by {k2}x{n}")
    if not (m and k and n):
        return [[] for _ in range(m)]
    field = a[0][0].field
    if b[0][0].field is not field and b[0][0].field != field:
        raise FieldMismatchError(
            f"mixed fields: {field.spec_string()} and {b[0][0].field.spec_string()}")
    zero = field.zero
    b_rows = [_nonzeros(row) for row in b]
    out = []
    for row_a in a:
        acc = [None] * n
        for t, x in _nonzeros(row_a):
            for j, y in b_rows[t]:
                term = x * y
                acc[j] = term if acc[j] is None else acc[j] + term
        out.append([zero if v is None else v for v in acc])
    return out


def conj_transpose(a):
    m, n = mat_shape(a)
    return [[a[i][j].conj() for i in range(m)] for j in range(n)]


def is_zero_matrix(a) -> bool:
    return all(not x for row in a for x in row)


def _add_multiple(row, c, entries):
    """row <- row + c * v, in place, for v given by its nonzero entries."""
    for j, y in entries:
        row[j] = row[j] + c * y


@dataclass
class RankFactorization:
    """A = P D Q with P, Q invertible and D the 0/1 diagonal of rank r.

    The inverses are carried explicitly and verified by multiplication when
    the factorization is built.
    """

    field: Field
    p: list
    p_inv: list
    d: list
    q: list
    q_inv: list
    rank: int


def rank_factorization(field: Field, a) -> RankFactorization:
    """Gauss-Jordan with full pivoting; the pivot is the first nonzero entry
    of the remaining block in row-major order, so the output is deterministic.
    """
    m, n = mat_shape(a)
    M = mat_copy(a)
    P = identity(field, m)
    Pinv = identity(field, m)
    Q = identity(field, n)
    Qinv = identity(field, n)
    zero = field.zero

    def swap_rows(mat, i, j):
        mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    rank = 0
    for k in range(min(m, n)):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if M[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != k:
            swap_rows(M, i, k)
            swap_cols(P, i, k)   # P <- P * S^-1 with S the row swap
            swap_rows(Pinv, i, k)
        if j != k:
            swap_cols(M, j, k)
            swap_rows(Q, j, k)
            swap_cols(Qinv, j, k)
        piv = M[k][k]
        if piv != field.one:
            inv = piv.inv()
            M[k] = [inv * x if x else x for x in M[k]]
            for row in P:           # column k of P picks up the pivot
                if row[k]:
                    row[k] = row[k] * piv
            Pinv[k] = [inv * x if x else x for x in Pinv[k]]
        pivot_row = _nonzeros(M[k])
        pinv_row = _nonzeros(Pinv[k])
        for i2 in range(m):
            c = M[i2][k]
            if i2 != k and c:
                _add_multiple(M[i2], -c, pivot_row)
                for row in P:       # P <- P * (I + c E_{i2,k})
                    if row[i2]:
                        row[k] = row[k] + c * row[i2]
                _add_multiple(Pinv[i2], -c, pinv_row)
        # Column k of M is now zero off the pivot, so clearing column j2
        # with column k changes only M[k][j2].
        qinv_rows = [row for row in Qinv if row[k]]
        for j2 in range(n):
            c = M[k][j2]
            if j2 != k and c:
                M[k][j2] = zero
                _add_multiple(Q[k], c, _nonzeros(Q[j2]))
                for row in qinv_rows:   # Qinv <- Qinv * (I - c E_{k,j2})
                    row[j2] = row[j2] - c * row[k]
        rank = k + 1

    fact = RankFactorization(field, P, Pinv, M, Q, Qinv, rank)
    if not (mat_eq(mat_mul(P, Pinv), identity(field, m))
            and mat_eq(mat_mul(Q, Qinv), identity(field, n))
            and mat_eq(mat_mul(mat_mul(P, M), Q), a)):
        raise AssertionError("rank factorization failed self-check")
    return fact


def solve_linear(field: Field, a, b, side: str):
    """X with X a = b (side='left') or a X = b (side='right'), or None.

    A particular solution is returned (free coordinates are set to zero).
    """
    fact = rank_factorization(field, a)
    m, n = mat_shape(a)
    r = fact.rank
    if side == "right":
        mb, q = mat_shape(b)
        if mb != m:
            raise ShapeError("right solve needs matching row counts")
        c = mat_mul(fact.p_inv, b)
        for i in range(r, m):
            if any(c[i][j] for j in range(q)):
                return None
        y = zeros(field, n, q)
        for i in range(min(r, n)):
            y[i] = c[i][:]
        return mat_mul(fact.q_inv, y)
    if side == "left":
        q, nb = mat_shape(b)
        if nb != n:
            raise ShapeError("left solve needs matching column counts")
        c = mat_mul(b, fact.q_inv)
        for i in range(q):
            for j in range(r, n):
                if c[i][j]:
                    return None
        z = zeros(field, q, m)
        for i in range(q):
            for j in range(min(r, m)):
                z[i][j] = c[i][j]
        return mat_mul(z, fact.p_inv)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
