"""Constructive certificates for the decision procedures.

Each certificate is a list of claims about elements, and every builder here
checks its certificate's claims with plain element arithmetic before
returning it, so the matrix route that produced a witness is never trusted
on its own. A failed check raises ``CertificateError``, also under
``python -O``. All constructions need a finite acyclic graph, where the
block-matrix picture exists.

The claim vocabulary, one tuple per claim:

* ``("product_equals", factors, equals)``  the product of ``factors``,
  left to right, is ``equals``
* ``("star_fixed", x)``                     ``star(x) = x``
* ``("star_product_zero", x)``              ``star(x) x = 0``
* ``("nonzero", x)``                        ``x != 0``

``check_claims`` is the one evaluator. Each certificate kind has one claim
list (``inner_inverse_claims``, ``improper_claims``, ``projection_claims``,
``unit_regular_claims``); ``verify_*`` evaluates it, and the CLI serializes
it in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element
from .fields import Field
from .graphs import Graph, check_acyclic, enumerate_paths_to, mu_table, sigma
from .linalg import mat_mul, rank_factorization, solve_linear
from .semisimple import MatrixImage, phi, phi_inv, sink_basis


class CertificateError(AssertionError):
    """A construction produced a certificate whose claims do not hold, or
    reached a case its theory rules out. Raised explicitly, so the check
    survives ``python -O``."""


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
# claims and their verification (element arithmetic only)


def check_claims(claims) -> bool:
    """True when every claim holds; stops at the first one that does not."""
    for kind, *args in claims:
        if kind == "product_equals":
            factors, equals = args
            product = factors[0]
            for x in factors[1:]:
                product = product * x
            holds = product == equals
        elif kind == "star_fixed":
            holds = args[0].star() == args[0]
        elif kind == "star_product_zero":
            holds = (args[0].star() * args[0]).is_zero
        elif kind == "nonzero":
            holds = not args[0].is_zero
        else:
            raise ValueError(f"unknown claim type {kind!r}")
        if not holds:
            return False
    return True


def inner_inverse_claims(a: Element, b: Element) -> list:
    return [("product_equals", (a, b, a), a)]


def improper_claims(c: Element) -> list:
    return [("nonzero", c), ("star_product_zero", c)]


def projection_claims(a: Element, cert: ProjectionCertificate) -> list:
    p = cert.p
    return [("star_fixed", p),
            ("product_equals", (p, p), p),
            ("product_equals", (p, a), a),
            ("product_equals", (a, cert.factor), p)]


def unit_regular_claims(a: Element, cert: UnitRegularCertificate) -> list:
    u, up, v = cert.u, cert.u_prime, cert.v
    return [("product_equals", (u, up), v),
            ("product_equals", (up, u), v),
            ("product_equals", (v, a), a),
            ("product_equals", (a, v), a),
            ("product_equals", (a, u, a), a)]


def verify_inner_inverse(a: Element, b: Element) -> bool:
    return check_claims(inner_inverse_claims(a, b))


def verify_projection(a: Element, cert: ProjectionCertificate) -> bool:
    return check_claims(projection_claims(a, cert))


def verify_improper(a: Element) -> bool:
    return check_claims(improper_claims(a))


def verify_unit_regular(a: Element, cert: UnitRegularCertificate) -> bool:
    return check_claims(unit_regular_claims(a, cert))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


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
    _require(verify_inner_inverse(a, b), "inner inverse failed its claims")
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
    _require(tup is not None,
             f"{k.spec_string()} has no improper tuple of length {n}")
    raw = [(x, alpha, paths[0]) for x, alpha in zip(tup, paths)]
    a = Element.from_terms(g, k, raw)
    _require(verify_improper(a), "improper element failed its claims")
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
            _require(cert is not None,
                     "inconsistent solve over a field proper at this size")
            raise NotStarRegularError(cert)
        t_blocks[v] = t_block
    t = phi_inv(MatrixImage(k, ximg.basis, t_blocks))
    p = t * xs

    pimg = phi(p)
    aimg = phi(a)
    r_blocks = {}
    for v in aimg.blocks:
        r_block = solve_linear(k, aimg.blocks[v], pimg.blocks[v], side="right")
        _require(r_block is not None, "p is not in the right ideal of a")
        r_blocks[v] = r_block
    factor = phi_inv(MatrixImage(k, aimg.basis, r_blocks))

    cert = ProjectionCertificate(p=p, factor=factor)
    _require(verify_projection(a, cert), "projection failed its claims")
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
    _require(verify_unit_regular(a, cert), "unit-regular data failed its claims")
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
    _require(check_claims([("product_equals", (w, w_prime), one),
                           ("product_equals", (w_prime, w), one)]),
             "extended units are not mutually inverse")
    return w, w_prime
