"""Exact linear algebra over the coefficient fields, on sparse payload rows.

The dense entry points are ``mat_mul``, ``rank_factorization`` and
``solve_linear``: a matrix there is a list of equal-length rows of one
field's FieldValues (an int entry is read as one, by ``Field._payload``),
and so is every result, because callers index, compare and serialize
entries freely. They convert each operand once, at entry, into payload
rows, one ``{column: payload}`` dict per row holding only the nonzero
payloads, and the result once, at exit. The payload-row kernels
``_add``, ``_mul``, ``_factor``, ``_solve`` and ``_conj_transpose`` are
what ``MatrixImage`` and the witness builders call directly. ``_factor`` (and
so ``_solve``) consumes the rows it factors: a caller that needs a block
again passes a copy. No exact zero is ever stored: a sum that vanishes is
dropped, so two payload matrices are equal exactly when their row lists
compare equal with ``==``. Every scalar operation goes through the field's
payload methods (``_add``, ``_mul``, ``_neg``, ``_inv``, ``_is_zero``,
``_conj``), read once per kernel call. Products are row by row (Gustavson,
ACM TOMS 1978) and form a scalar product only for two nonzero factors; a
left row with one entry (t, x) is x times row t of the right factor, a copy
when x is 1, with no sum or zero test, since nonzero payloads multiply to
nonzero ones in a field.
``_factor`` reduces each row once, when the pivot search reaches it, keeps
column swaps as a relabelling and P and Q^-1 by columns: past O(m + n)
set-up it costs its scalar operations, a heap step per entry they touch in
a pivot column, and its self-check's products. The blocks of phi(a) are
mostly zero. Skipped terms are exact zeros, so every value is the one the
full dense loops would give.

The factorization A = P D Q with invertible P, Q and a 0/1 diagonal D is
the workhorse behind inner inverses, projections, and invertible-factor
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .fields import Field, FieldMismatchError, FieldValue


class ShapeError(ValueError):
    pass


class SolveSideError(ValueError):
    """``solve_linear`` was asked for a side other than left or right."""


def mat_shape(a):
    if len({len(row) for row in a}) > 1:
        raise ShapeError("rows of unequal length")
    return (len(a), len(a[0]) if a else 0)


def _sparse(field: Field, a):
    """Payload rows of a dense matrix of FieldValues of ``field`` or ints:
    one zero test per entry."""
    payload, is_zero = field._payload, field._is_zero
    rows = []
    for row in a:
        sparse = {}
        for j, x in enumerate(row):
            y = payload(x)
            if y is None:
                raise FieldMismatchError(f"entry {x!r} is not in {field.spec_string()}")
            if not is_zero(y):
                sparse[j] = y
        rows.append(sparse)
    return rows


def _dense(field: Field, rows, n: int):
    zero = field.zero
    out = []
    for row in rows:
        dense = [zero] * n
        for j, x in row.items():
            dense[j] = FieldValue(field, x)
        out.append(dense)
    return out


def _identity(field: Field, n: int):
    one = field._from_int(1)
    return [{i: one} for i in range(n)]


def _add(field: Field, a_rows, b_rows):
    """Entrywise sum: one scalar sum and one zero test per entry that is
    nonzero in both operands."""
    add, is_zero = field._add, field._is_zero
    out = []
    for row_a, row_b in zip(a_rows, b_rows):
        row = {**row_a, **row_b}
        for j in row_a.keys() & row_b.keys():
            s = add(row_a[j], row_b[j])
            if is_zero(s):
                del row[j]
            else:
                row[j] = s
        out.append(row)
    return out


def _mul(field: Field, a_rows, b_rows):
    """Row-by-row sparse product (Gustavson): one scalar product per pair of
    nonzero factors, one zero test per accumulated entry. A left row with
    one entry (t, x) gives x times row t of b: a copy when x is 1, and no
    sum or zero test, as nonzero payloads multiply to nonzero ones. No
    returned row is a row of an operand."""
    add, mul, is_zero = field._add, field._mul, field._is_zero
    one = field._from_int(1)
    out = []
    for row_a in a_rows:
        if len(row_a) == 1:
            (t, x), = row_a.items()
            row_b = b_rows[t]
            out.append(row_b.copy() if x == one else {j: mul(x, y) for j, y in row_b.items()})
            continue
        acc = {}
        for t, x in row_a.items():
            for j, y in b_rows[t].items():
                term = mul(x, y)
                acc[j] = add(acc[j], term) if j in acc else term
        out.append({j: v for j, v in acc.items() if not is_zero(v)})
    return out


def mat_mul(a, b):
    m, k = mat_shape(a)
    k2, n = mat_shape(b)
    if k != k2:
        raise ShapeError(f"cannot multiply {m}x{k} by {k2}x{n}")
    if not (m and k and n):
        return [[] for _ in range(m)]
    field = next((x.field for row in (*a, *b) for x in row if isinstance(x, FieldValue)), None)
    if field is None:
        raise FieldMismatchError("mat_mul needs a FieldValue entry to know the field")
    return _dense(field, _mul(field, _sparse(field, a), _sparse(field, b)), n)


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


def _factor(field: Field, M, m: int, n: int):
    """Gauss-Jordan with full pivoting on the payload rows M (consumed);
    returns P, P^-1, D, Q, Q^-1 as payload rows and the rank.

    Left-looking: each row is reduced once, when the pivot search reaches
    it, by the earlier pivots in pivot order, with the scalar operations
    eager elimination would apply to it. The pivot is the first row that is
    nonempty after its reduction, in its column of least current position,
    so the output is deterministic. M keeps A's column labels: a column
    swap swaps two entries of ``at`` (the label at each position) and of
    ``pos`` (its inverse), so positions below the rank hold the pivot
    labels. Q and Q^-1 are kept by label and put in position order at the
    end. P and Q^-1 take only column operations, so they are built as lists
    of columns (``Pc[c]`` is column c of P) and transposed. D is the
    identity of the rank over empty rows.
    """
    add, mul, neg, inv, is_zero = (
        field._add, field._mul, field._neg, field._inv, field._is_zero)
    one = field._from_int(1)
    A = [dict(row) for row in M]
    Pc, Pinv = _identity(field, m), _identity(field, m)
    Q, Qinvc = _identity(field, n), _identity(field, n)
    at, pos = list(range(n)), list(range(n))
    prows = []  # pivot k's row without its pivot entry, scaled

    def add_multiple(vec, c, entries):
        """vec <- vec + c * entries, in place, dropping sums that vanish."""
        for j, y in entries:
            term = mul(c, y)
            if j in vec:
                total = add(vec[j], term)
                if is_zero(total):
                    del vec[j]
                else:
                    vec[j] = total
            else:
                vec[j] = term

    rank = 0
    for i, row in enumerate(M):
        todo = [pos[j] for j in row if pos[j] < rank]
        heapify(todo)
        while todo:
            k = heappop(todo)
            if at[k] not in row:  # pushed twice, or cancelled since
                continue
            c = row.pop(at[k])
            add_multiple(row, neg(c), prows[k])
            add_multiple(Pc[k], c, Pc[i].items())  # P <- P (I + c E_{i,k})
            add_multiple(Pinv[i], neg(c), Pinv[k].items())
            for j, _ in prows[k]:  # fill-in: columns of pivots after k only
                if pos[j] < rank:
                    heappush(todo, pos[j])
        if not row:
            continue
        j = min(row, key=pos.__getitem__)
        Pc[i], Pc[rank] = Pc[rank], Pc[i]  # P <- P * S^-1 with S the row swap
        Pinv[i], Pinv[rank] = Pinv[rank], Pinv[i]
        p = pos[j]
        at[p], at[rank] = at[rank], j
        pos[at[p]], pos[j] = p, rank
        piv = row[j]
        prow = [(j2, x) for j2, x in row.items() if j2 != j]
        if piv != one:
            scale = inv(piv)
            prow = [(j2, mul(scale, x)) for j2, x in prow]
            Pc[rank] = {r: mul(x, piv) for r, x in Pc[rank].items()}
            Pinv[rank] = {j2: mul(scale, x) for j2, x in Pinv[rank].items()}
        prows.append(prow)
        rank += 1
        # Column operations clear the rest of the pivot row; once reduced, no
        # other row has the pivot column, so only Q and Q^-1 record them.
        for j2, c in prow:
            add_multiple(Q[j], c, Q[j2].items())
            add_multiple(Qinvc[j2], neg(c), Qinvc[j].items())  # Qinv (I - c E_{j,j2})

    P, Qinv = _transpose(Pc, m), _transpose([Qinvc[j] for j in at], n)
    Q, D = [Q[j] for j in at], _identity(field, rank) + [{} for _ in range(m - rank)]
    # P.D is P restricted to its first ``rank`` columns
    PD = [{c: x for c, x in row.items() if c < rank} for row in P]
    if not (_mul(field, P, Pinv) == _identity(field, m)
            and _mul(field, Q, Qinv) == _identity(field, n)
            and _mul(field, PD, Q) == A):
        raise AssertionError("rank factorization failed self-check")
    return P, Pinv, D, Q, Qinv, rank


def rank_factorization(field: Field, a) -> RankFactorization:
    """A = P D Q by Gauss-Jordan with full pivoting (see ``_factor``)."""
    m, n = mat_shape(a)
    P, Pinv, D, Q, Qinv, rank = _factor(field, _sparse(field, a), m, n)
    return RankFactorization(field, _dense(field, P, m), _dense(field, Pinv, m),
                             _dense(field, D, n), _dense(field, Q, n),
                             _dense(field, Qinv, n), rank)


def _transpose(rows, n: int):
    """The transpose of payload rows with ``n`` columns."""
    out = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _conj_transpose(field: Field, rows, n: int):
    """The conjugate transpose of payload rows with ``n`` columns."""
    conj = field._conj
    return [{i: conj(x) for i, x in row.items()} for row in _transpose(rows, n)]


def _solve(field: Field, a_rows, m: int, n: int, b_rows, side: str):
    """Payload rows of X with X A = B (side='left') or A X = B
    (side='right') for the m x n payload rows ``a_rows``, or None when the
    system is inconsistent. Factors ``a_rows`` with ``_factor``, which
    consumes them. Free coordinates of the solution are zero."""
    _, Pinv, _, _, Qinv, r = _factor(field, a_rows, m, n)
    if side == "right":
        c = _mul(field, Pinv, b_rows)
        if any(c[r:]):
            return None
        return _mul(field, Qinv, c[:r] + [{}] * (n - r))
    c = _mul(field, b_rows, Qinv)
    if any(j >= r for row in c for j in row):
        return None
    return _mul(field, c, Pinv)


def solve_linear(field: Field, a, b, side: str):
    """X with X a = b (side='left') or a X = b (side='right'), or None.

    A particular solution is returned (free coordinates are set to zero).
    """
    if side not in ("left", "right"):
        raise SolveSideError(f"side must be 'left' or 'right', got {side!r}")
    m, n = mat_shape(a)
    mb, nb = mat_shape(b)
    if side == "right" and mb != m:
        raise ShapeError("right solve needs matching row counts")
    if side == "left" and nb != n:
        raise ShapeError("left solve needs matching column counts")
    x = _solve(field, _sparse(field, a), m, n, _sparse(field, b), side)
    if x is None:
        return None
    return _dense(field, x, nb if side == "right" else m)
