"""The finite-dimensional picture of an acyclic graph algebra.

For a finite acyclic graph the algebra splits into one matrix block per
sink, of size the number of paths into that sink. The block-matrix
isomorphism has one working form, on payload rows (see ``linalg``):
``_phi_rows`` expands every monomial toward the sinks once and files each
coefficient under its row and column in the ordered path basis, one
``{column: payload}`` dict per row, in a block only where the image is
nonzero; ``_from_rows`` reads only the nonzero entries back onto path
monomials and normalizes them once. ``phi`` and ``phi_inv`` wrap these two
in a ``MatrixImage``, which stores the same rows (``phi`` fills in the other
sinks); its ``blocks`` is a read-only dense view, built on first use.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .algebra import AlgebraError, Element, _normalize_terms
from .fields import Field, FieldMismatchError
from .graphs import Graph, Path, SinkBasis, check_acyclic, mu, path_range, sinks
from .linalg import ShapeError, _add, _conj_transpose, _dense, _identity, _mul, _sparse


def sink_basis(g: Graph) -> SinkBasis:
    return SinkBasis(g)


def _sink_expand(g: Graph, field: Field, terms: dict) -> dict:
    """Push every monomial to the sinks: p q* = sum over e leaving r(p) of
    (pe)(qe)*. Terminates because the graph is acyclic. Coefficients are
    payloads of ``field``."""
    outs = g.index.out_edges
    add, is_zero = field._add, field._is_zero
    out: dict = {}
    work = [(c, p, q) for (p, q), c in terms.items()]
    while work:
        c, p, q = work.pop()
        branches = outs[path_range(g, p)]
        if not branches:
            key = (p, q)
            prev = out.get(key)
            out[key] = c if prev is None else add(prev, c)
            continue
        for e in branches:
            work.append((c, Path(p.base, p.edges + (e.id,)),
                         Path(q.base, q.edges + (e.id,))))
    return {m: c for m, c in out.items() if not is_zero(c)}


def sink_normal_form(x: Element) -> Element:
    """The same algebra element, rewritten onto monomials that end at sinks.

    The result is *not* in the rewriting normal form (re-normalizing it gives
    back x); it is the representation phi reads entries from.
    """
    check_acyclic(x.graph)
    return Element(x.graph, x.field, _sink_expand(x.graph, x.field, x._terms), _trusted=True)


class MatrixImage:
    """Per-sink square blocks over the coefficient field, stored as payload
    ``rows``: built from dense blocks (a sink left out is a zero block), and
    read back through ``blocks``, their read-only dense view."""

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
        return MappingProxyType({v: _dense(self.field, rows, len(rows))
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
        g, h = self.basis.graph, other.basis.graph
        if g is not h and g != h:
            raise AlgebraError("images over different graphs")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError("images over different fields")

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
    row per path into the sink, in basis order; no zero entry or block."""
    basis = sink_basis(x.graph)
    index = basis.index
    blocks = {}
    # the expansion merged equal monomials and dropped zeros: one write each
    for (p, q), c in _sink_expand(x.graph, x.field, x._terms).items():
        (v, i), (v2, j) = index[p], index[q]
        if v != v2:
            raise AssertionError("phi paired paths into different sinks")
        if v not in blocks:
            blocks[v] = [{} for _ in range(basis.size(v))]
        blocks[v][i][j] = c
    return blocks


def _from_rows(g: Graph, field: Field, blocks: dict) -> Element:
    """The element whose image has these payload rows (any subset of the
    sinks): entry (i, j) of block v rides on alpha_i alpha_j* for the
    ordered paths into v."""
    paths = sink_basis(g).paths
    raw = [(c, paths[v][i], paths[v][j])
           for v, rows in blocks.items()
           for i, row in enumerate(rows)
           for j, c in row.items()]
    return Element(g, field, _normalize_terms(g, field, raw), _trusted=True)


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
