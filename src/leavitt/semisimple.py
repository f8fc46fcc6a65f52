"""The finite-dimensional picture of an acyclic graph algebra.

For a finite acyclic graph the algebra splits into one matrix block per
sink, of size the number of paths into that sink. The block-matrix
isomorphism has one working form, on payload rows (see ``linalg``):
``_phi_rows`` expands every monomial toward the sinks once and files each
coefficient under its row and column in the ordered path basis, giving one
``{column: payload}`` dict per row of each block; ``_from_rows`` reads only
the nonzero entries back onto path monomials and normalizes them once.
The witness builders work in this form. ``phi`` and ``phi_inv`` are the
dense views of it, a ``MatrixImage`` of ``FieldValue`` entries, for the
``phi`` command and for callers that index or print blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, _normalize_terms
from .fields import Field
from .graphs import Graph, Path, SinkBasis, check_acyclic, mu, path_range, sinks
from .linalg import ShapeError, _dense, conj_transpose, mat_eq, mat_mul, mat_shape, zeros


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


@dataclass
class MatrixImage:
    """Per-sink square blocks over the coefficient field."""

    field: Field
    basis: SinkBasis
    blocks: dict

    def is_zero(self) -> bool:
        return all(not x for b in self.blocks.values() for row in b for x in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        return (self.field == other.field
                and self.basis.graph == other.basis.graph
                and all(mat_eq(self.blocks[v], other.blocks[v]) for v in self.blocks))

    def __mul__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        blocks = {v: mat_mul(self.blocks[v], other.blocks[v]) for v in self.blocks}
        return MatrixImage(self.field, self.basis, blocks)

    def __add__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        blocks = {
            v: [[x + y for x, y in zip(ra, rb)]
                for ra, rb in zip(self.blocks[v], other.blocks[v])]
            for v in self.blocks
        }
        return MatrixImage(self.field, self.basis, blocks)

    def scale(self, c):
        return MatrixImage(self.field, self.basis,
                           {v: [[c * x for x in row] for row in b]
                            for v, b in self.blocks.items()})

    def star(self) -> "MatrixImage":
        return MatrixImage(self.field, self.basis,
                           {v: conj_transpose(b) for v, b in self.blocks.items()})

    @staticmethod
    def zero(basis: SinkBasis, field: Field) -> "MatrixImage":
        return MatrixImage(field, basis,
                           {v: zeros(field, basis.size(v), basis.size(v))
                            for v in basis.sinks})

    @staticmethod
    def identity(basis: SinkBasis, field: Field) -> "MatrixImage":
        image = MatrixImage.zero(basis, field)
        for v in basis.sinks:
            for i in range(basis.size(v)):
                image.blocks[v][i][i] = field.one
        return image


def _phi_rows(x: Element) -> dict:
    """phi(x) as payload rows: ``{sink: [{column: payload}, ...]}`` with one
    row per path into the sink, in basis order, and no zero stored."""
    basis = sink_basis(x.graph)
    index = basis.index
    blocks = {v: [{} for _ in range(basis.size(v))] for v in basis.sinks}
    # the expansion merged equal monomials, so each entry is written once
    for (p, q), c in _sink_expand(x.graph, x.field, x._terms).items():
        v, i = index[p]
        v2, j = index[q]
        if v != v2:
            raise AssertionError("phi paired paths into different sinks")
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
    field = x.field
    return MatrixImage(field, basis,
                       {v: _dense(field, rows, len(rows))
                        for v, rows in _phi_rows(x).items()})


def phi_inv(image: MatrixImage) -> Element:
    """Matrix entries back to path monomials: entry (i, j) of block v rides
    on alpha_i alpha_j* for the ordered paths into v."""
    basis = image.basis
    g = basis.graph
    raw = []
    for v in basis.sinks:
        block = image.blocks[v]
        n = basis.size(v)
        if mat_shape(block) != (n, n):
            raise ShapeError(f"block {v} is {mat_shape(block)}, expected {n}x{n}")
        paths = basis.paths[v]
        for i in range(n):
            for j in range(n):
                if block[i][j]:
                    raw.append((block[i][j], paths[i], paths[j]))
    return Element.from_terms(g, image.field, raw)


def dimension(g: Graph) -> int:
    """Sum of mu(v)^2 over the sinks of a finite acyclic graph."""
    check_acyclic(g)
    return sum(mu(g, v) ** 2 for v in sinks(g))
