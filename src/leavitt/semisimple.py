"""The finite-dimensional picture of an acyclic graph algebra.

For a finite acyclic graph the algebra splits into one matrix block per
sink, of size the number of paths into that sink. The block-matrix
isomorphism works on payload rows (see ``linalg``): ``_phi_rows`` expands
every monomial toward the sinks in one pass, crossing each run of
single-exit vertices in one step, and adds each coefficient in place to its
sink's block (one ``{column: payload}`` dict per row, a block only where the
image is nonzero); ``_from_rows`` reads the entries back onto path
monomials and normalizes them once. Path tables are built only for the
sinks touched. ``phi`` and ``phi_inv`` wrap these rows in a ``MatrixImage``
(``phi`` fills in the other sinks), whose ``blocks`` is a dense read-only view.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .algebra import Element, _check_operands, _normalize_terms, _path
from .fields import Field
from .graphs import Graph, SinkBasis, check_acyclic, mu, path_range, sinks
from .linalg import ShapeError, _add, _conj_transpose, _dense, _identity, _mul, _sparse


def sink_basis(g: Graph) -> SinkBasis:
    return SinkBasis(g)


def sink_normal_form(x: Element) -> Element:
    """The same algebra element on monomials that end at sinks: not the
    rewriting normal form (re-normalizing gives back x), but the
    representation phi reads its entries from."""
    terms = {(p, q): c for c, p, q in _entries(x.graph, _phi_rows(x))}
    return Element(x.graph, x.field, terms, _trusted=True)


class MatrixImage:
    """Per-sink square blocks over the coefficient field, stored as payload
    ``rows``: built from dense blocks (a sink left out is a zero block), and
    read back through ``blocks``, their read-only dense view: a mapping from
    each sink to its block as a tuple of row tuples."""

    def __init__(self, field: Field, basis: SinkBasis, blocks: dict):
        rows = {v: [{} for _ in range(basis.size(v))] for v in basis.sinks}
        for v, b in blocks.items():
            if v not in rows:
                raise ShapeError(f"{v} is not a sink")
            n = len(rows[v])
            if len(b) != n or any(len(row) != n for row in b):
                raise ShapeError(f"block {v} is not {n}x{n}")
            rows[v] = _sparse(field, b)
        self.field, self.basis, self.rows = field, basis, rows

    @functools.cached_property
    def blocks(self):
        return MappingProxyType({v: tuple(map(tuple, _dense(self.field, rows, len(rows))))
                                 for v, rows in self.rows.items()})

    def __repr__(self):
        return (f"MatrixImage(field={self.field!r}, basis={self.basis!r}, "
                f"blocks={dict(self.blocks)!r})")

    def is_zero(self) -> bool:
        return not any(any(rows) for rows in self.rows.values())

    def __eq__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        return (self.field == other.field
                and self.basis.graph == other.basis.graph
                and self.rows == other.rows)

    def _check_compatible(self, other: "MatrixImage"):
        _check_operands(self.basis.graph, self.field, other.basis.graph, other.field, "images")

    def __mul__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        self._check_compatible(other)
        return _of_rows(self.field, self.basis, {
            v: _mul(self.field, rows, other.rows[v]) for v, rows in self.rows.items()})

    def __add__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        self._check_compatible(other)
        return _of_rows(self.field, self.basis, {
            v: _add(self.field, rows, other.rows[v]) for v, rows in self.rows.items()})

    def scale(self, c):
        """c times the image, for an int or a value of the image's field."""
        field = self.field
        c = field._scalar(c, "an image")
        if field._is_zero(c):
            return MatrixImage.zero(self.basis, field)
        # a product of nonzero payloads is nonzero in every field here
        mul = field._mul
        return _of_rows(field, self.basis, {
            v: [{j: mul(c, x) for j, x in row.items()} for row in rows]
            for v, rows in self.rows.items()})

    def star(self) -> "MatrixImage":
        return _of_rows(self.field, self.basis, {
            v: _conj_transpose(self.field, rows, len(rows)) for v, rows in self.rows.items()})

    @staticmethod
    def zero(basis: SinkBasis, field: Field) -> "MatrixImage":
        return MatrixImage(field, basis, {})

    @staticmethod
    def identity(basis: SinkBasis, field: Field) -> "MatrixImage":
        return _of_rows(field, basis, {v: _identity(field, basis.size(v))
                                       for v in basis.sinks})


def _of_rows(field: Field, basis: SinkBasis, rows: dict) -> MatrixImage:
    """The image with these payload rows, one list per sink, taken as is."""
    image = object.__new__(MatrixImage)
    image.field, image.basis, image.rows = field, basis, rows
    return image


def _phi_rows(x: Element) -> dict:
    """phi(x) as payload rows: ``{sink: [{column: payload}, ...]}`` with one
    row per path into the sink, in basis order; no zero entry or block. One
    CK2 expansion, p q* = sum over e leaving r(p) of (pe)(qe)*, ends as the
    graph is acyclic; at a sink v, a term c p q* adds c in place to v's block at (p, q).
    Where r(p) has one out-edge the sum has one term, so p and q are extended
    along the whole run of single out-edges, to the next vertex that
    branches or is a sink, by one concatenation each. The expansion carries
    the range's vertex position."""
    index = check_acyclic(x.graph).index
    ids, dst, outs, order = index.ids, index.dst, index.outs, index.order
    add, is_zero = x.field._add, x.field._is_zero
    blocks = {}
    work = [(c, p, q, index.pos[path_range(x.graph, p)]) for (p, q), c in x._terms.items()]
    while work:
        c, p, q, v = work.pop()
        branches = outs[v]
        if len(branches) == 1:  # p q* = (p f)(q f)* for a single exit f
            run = []
            while len(branches) == 1:
                f = branches[0]
                run.append(ids[f])
                v = dst[f]
                branches = outs[v]
            run = tuple(run)
            p, q = _path((p.base, p.edges + run)), _path((q.base, q.edges + run))
        if branches:
            for f in branches:
                e = ids[f]
                work.append((c, _path((p.base, p.edges + (e,))),
                             _path((q.base, q.edges + (e,))), dst[f]))
            continue
        if v not in blocks:
            blocks[v] = index.sink_table(order[v])[1], [{} for _ in range(index.mu[order[v]])]
        at, rows = blocks[v]
        if q not in at:
            raise AssertionError("phi paired paths into different sinks")
        row, j = rows[at[p]], at[q]
        if j in row:  # only a sum can vanish: x's own payloads are nonzero
            c = add(row[j], c)
            if is_zero(c):
                del row[j]
                continue
        row[j] = c
    return {order[v]: rows for v, (_, rows) in blocks.items() if any(rows)}


def _entries(g: Graph, blocks: dict) -> list:
    """Each entry (i, j) of these payload rows (any subset of the sinks) as
    (payload, alpha_i, alpha_j), for the ordered paths alpha into its sink."""
    entries = []
    for v, rows in blocks.items():
        paths = g.index.sink_table(v)[0]
        entries += [(c, a, paths[j]) for a, row in zip(paths, rows) for j, c in row.items()]
    return entries


def _from_rows(g: Graph, field: Field, blocks: dict) -> Element:
    """The element whose image has these payload rows (any subset of the
    sinks); a row holds no zero, so its entries go to the normalizer as they are."""
    return Element(g, field, _normalize_terms(g, field, _entries(g, blocks)), _trusted=True)


def phi(x: Element) -> MatrixImage:
    """The canonical isomorphism onto the per-sink matrix blocks.

    Linear, multiplicative, and star-compatible: the image of star(x) is the
    blockwise conjugate transpose.
    """
    basis = sink_basis(x.graph)
    return _of_rows(x.field, basis, MatrixImage.zero(basis, x.field).rows | _phi_rows(x))


def phi_inv(image: MatrixImage) -> Element:
    """Matrix entries back to path monomials (see ``_from_rows``)."""
    return _from_rows(image.basis.graph, image.field, image.rows)


def dimension(g: Graph) -> int:
    """Sum of mu(v)^2 over the sinks of a finite acyclic graph."""
    check_acyclic(g)
    return sum(mu(g, v) ** 2 for v in sinks(g))
