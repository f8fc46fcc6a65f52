"""Constructive certificates for the decision procedures.

Everything returned here is re-verified with plain element arithmetic
before it leaves the module, so the matrix route that produced a witness is
never trusted on its own. All constructions need a finite acyclic graph,
where the block-matrix picture exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element
from .fields import Field
from .graphs import Graph, check_acyclic, enumerate_paths_to, mu_table, sigma
from .linalg import mat_mul, rank_factorization, solve_linear
from .semisimple import MatrixImage, phi, phi_inv, sink_basis


class NotStarRegularError(Exception):
    """The projection construction hit an inconsistent solve; carries an
    improper element as the counter-certificate."""

    def __init__(self, certificate: Element):
        super().__init__("the involution is not proper at this size")
        self.certificate = certificate


@dataclass(frozen=True)
class ProjectionCertificate:
    """p self-adjoint idempotent with p a = a and p = a factor."""

    p: Element
    factor: Element


@dataclass(frozen=True)
class UnitRegularCertificate:
    """Local inverses u, u' with u u' = v = u' u, v a = a v = a, a u a = a."""

    u: Element
    u_prime: Element
    v: Element


# ---------------------------------------------------------------------------
# verification helpers (element arithmetic only)


def verify_inner_inverse(a: Element, b: Element) -> bool:
    return a * b * a == a


def verify_projection(a: Element, cert: ProjectionCertificate) -> bool:
    p, factor = cert.p, cert.factor
    return (p.star() == p and p * p == p and p * a == a and a * factor == p)


def verify_improper(a: Element) -> bool:
    return bool(a) and (a.star() * a).is_zero


def verify_unit_regular(a: Element, cert: UnitRegularCertificate) -> bool:
    u, up, v = cert.u, cert.u_prime, cert.v
    return (u * up == v and up * u == v and v * a == a and a * v == a
            and a * u * a == a)


# ---------------------------------------------------------------------------
# constructions


def _blockwise(image: MatrixImage, fn) -> MatrixImage:
    return MatrixImage(image.field, image.basis,
                       {v: fn(b) for v, b in image.blocks.items()})


def regular_witness(g: Graph, k: Field, a: Element) -> Element:
    """An inner inverse: b with a b a = a, built per block from A = P D Q as
    B = Q^-1 D P^-1."""
    check_acyclic(g)
    image = phi(a)

    def block_inverse(block):
        fact = rank_factorization(k, block)
        return mat_mul(fact.q_inv, mat_mul(fact.d, fact.p_inv))

    b = phi_inv(_blockwise(image, block_inverse))
    assert verify_inner_inverse(a, b)
    return b


def improper_element(g: Graph, k: Field) -> Element | None:
    """A nonzero a with star(a) a = 0, when the field is not proper enough
    for the graph; None otherwise.

    Takes the least vertex (in id order) with more paths than the properness
    level, the first level+1 paths into it, and spreads an improper
    coefficient tuple along them against the trivial-path column. Distinct
    paths into a common vertex of an acyclic graph are never extensions of
    one another, so the cross terms of star(a) a cancel and the diagonal sums
    to zero by the choice of tuple.
    """
    check_acyclic(g)
    level = k.properness_level()
    table = mu_table(g)
    if not table or sigma(g) <= level:
        return None
    v = min(v for v in g.vertices if table[v] > level)
    n = level + 1
    paths = enumerate_paths_to(g, v, limit=n)
    tup = k.improper_tuple(n)
    assert tup is not None
    raw = [(x, alpha, paths[0]) for x, alpha in zip(tup, paths)]
    a = Element.from_terms(g, k, raw)
    assert verify_improper(a)
    return a


def projection_generator(g: Graph, k: Field, a: Element) -> ProjectionCertificate:
    """A projection generating the same right ideal as a, with a factor
    witnessing p in aR.

    Follows the regular-and-proper route: x = a b is an idempotent with
    x R = a R; solve t (x* x) = x, then p = t x* is the projection. When the
    involution is proper at every block size the solve is always consistent;
    it can only fail when properness fails, and then NotStarRegularError is
    raised carrying an improper element for the graph and field.
    """
    check_acyclic(g)
    b = regular_witness(g, k, a)
    x = a * b
    xs = x.star()
    gram = phi(xs * x)
    ximg = phi(x)

    t_blocks = {}
    for v in ximg.blocks:
        t_block = solve_linear(k, gram.blocks[v], ximg.blocks[v], side="left")
        if t_block is None:
            cert = improper_element(g, k)
            assert cert is not None
            raise NotStarRegularError(cert)
        t_blocks[v] = t_block
    t = phi_inv(MatrixImage(k, ximg.basis, t_blocks))
    p = t * xs

    pimg = phi(p)
    aimg = phi(a)
    r_blocks = {}
    for v in aimg.blocks:
        r_block = solve_linear(k, aimg.blocks[v], pimg.blocks[v], side="right")
        assert r_block is not None
        r_blocks[v] = r_block
    factor = phi_inv(MatrixImage(k, aimg.basis, r_blocks))

    cert = ProjectionCertificate(p=p, factor=factor)
    assert verify_projection(a, cert)
    return cert


def unit_regular_witness(g: Graph, k: Field, a: Element) -> UnitRegularCertificate:
    """Local unit-regularity data with v the full identity (sum of all
    vertices): u = Q^-1 P^-1 per block is invertible with inverse u' = P Q,
    and a u a = a."""
    check_acyclic(g)
    image = phi(a)
    basis = sink_basis(g)
    u_blocks = {}
    up_blocks = {}
    for v, block in image.blocks.items():
        fact = rank_factorization(k, block)
        u_blocks[v] = mat_mul(fact.q_inv, fact.p_inv)
        up_blocks[v] = mat_mul(fact.p, fact.q)
    u = phi_inv(MatrixImage(k, basis, u_blocks))
    u_prime = phi_inv(MatrixImage(k, basis, up_blocks))
    cert = UnitRegularCertificate(u=u, u_prime=u_prime, v=Element.one(g, k))
    assert verify_unit_regular(a, cert)
    return cert


def extend_to_unit(g: Graph, u: Element, u_prime: Element, v: Element):
    """Globalize local inverses: w = u + (1 - v) and w' = u' + (1 - v)
    satisfy w w' = 1 = w' w against the full identity."""
    one = Element.one(g, u.field)
    if not (u * u_prime == v and u_prime * u == v):
        raise ValueError("u and u_prime are not mutually inverse over v")
    if not (v * u * v == u and v * u_prime * v == u_prime):
        raise ValueError("u and u_prime do not live in the corner of v")
    rest = one - v
    w = u + rest
    w_prime = u_prime + rest
    assert w * w_prime == one and w_prime * w == one
    return w, w_prime
