"""Constructive certificates for the decision procedures.

Each certificate is a list of claims about elements, and every builder here
checks its certificate's claims with plain element arithmetic before
returning it, so the matrix route that produced a witness is never trusted
on its own. A failed check raises ``CertificateError``, also under
``python -O``. All constructions need a finite acyclic graph, where the
block-matrix picture exists.

The builders work on the per-sink payload rows of ``semisimple`` with the
payload-row kernels of ``linalg``: a is expanded once (``_phi_rows``), each
of a's blocks is factored, multiplied and solved as rows, and only the
elements of the certificate are mapped back (``_from_rows``). The
projection algebra (the Gram block A* A of a's block A, t and p = t A*)
stays in block land too: phi is multiplicative and star-compatible, so each
block is the image of the element product it stands for, and no element
product is formed before the claims are checked.

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
from itertools import compress

from .algebra import Element, _check_operands
from .fields import Field
from .graphs import Graph, check_acyclic, enumerate_paths_to, mu_table, sigma
from .linalg import _add, _conj_transpose, _factor, _mul, _solve
from .semisimple import _from_rows, _phi_rows


class CertificateError(AssertionError):
    """A construction produced a certificate whose claims do not hold, or
    reached a case its theory rules out. Raised explicitly, so the check
    survives ``python -O``."""


class UnknownClaimError(ValueError):
    """A claim whose type is not one of the four the checker knows."""


class UnitDataError(ValueError):
    """``extend_to_unit`` was given u, u' and v that are not local unit
    data: u and u' are not mutually inverse over v, or leave its corner."""


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
            raise UnknownClaimError(f"unknown claim type {kind!r}")
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


def regular_witness(g: Graph, k: Field, a: Element) -> Element:
    """An inner inverse: b with a b a = a, built per block from A = P D Q as
    B = Q^-1 D P^-1. D is the 0/1 diagonal of rank r, so D P^-1 is the
    first r rows of P^-1 over empty rows."""
    _check_operands(g, k, a.graph, a.field, "the element and the witness")
    b_blocks = {}
    for v, block in _phi_rows(a).items():
        n = len(block)
        _, p_inv, _, _, q_inv, r = _factor(k, block, n, n)
        b_blocks[v] = _mul(k, q_inv, p_inv[:r] + [{}] * (n - r))
    b = _from_rows(g, k, b_blocks)
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
    # mu is in vertex order, and level is a finite int here
    v = min(compress(g.vertices, map(level.__lt__, table.values())))
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

    Per block A of a: solve t (A* A) = A; then p = t A* is the projection
    onto the column space of A, and the factor r solves A r = p. The solve
    fails exactly when that column space holds a nonzero vector orthogonal
    to all of it, which a field proper at every block size rules out; then
    NotStarRegularError carries an improper element for the graph and
    field. The inner-inverse route (x = a b, solved with x* x) gives the
    same p, factor and error: x = a b and a = x a share that column space,
    p is the unique projection onto it, and r is solved from the same A
    and p.
    """
    _check_operands(g, k, a.graph, a.field, "the element and the witness")
    p_blocks, r_blocks = {}, {}
    for v, block in _phi_rows(a).items():
        n = len(block)
        a_star = _conj_transpose(k, block, n)
        t = _solve(k, _mul(k, a_star, block), n, n, block, "left")
        if t is None:
            cert = improper_element(g, k)
            _require(cert is not None,
                     "inconsistent solve over a field proper at this size")
            raise NotStarRegularError(cert)
        p_blocks[v] = _mul(k, t, a_star)
        r_blocks[v] = _solve(k, block, n, n, p_blocks[v], "right")
        _require(r_blocks[v] is not None, "p is not in the right ideal of a")

    cert = ProjectionCertificate(p=_from_rows(g, k, p_blocks),
                                 factor=_from_rows(g, k, r_blocks))
    _require(verify_projection(a, cert), "projection failed its claims")
    return cert


def unit_regular_witness(g: Graph, k: Field, a: Element) -> UnitRegularCertificate:
    """Local unit-regularity data with v the full identity (sum of all
    vertices): u = Q^-1 P^-1 per block is invertible with inverse u' = P Q,
    and a u a = a. On a block where a is zero P = Q = I, so u and u' are 1
    plus their change U - I and U' - I on a's blocks."""
    _check_operands(g, k, a.graph, a.field, "the element and the witness")
    u_blocks, up_blocks = {}, {}
    for v, block in _phi_rows(a).items():
        n = len(block)
        p, p_inv, _, q, q_inv, _ = _factor(k, block, n, n)
        minus_i = [{i: k._from_int(-1)} for i in range(n)]
        u_blocks[v] = _add(k, _mul(k, q_inv, p_inv), minus_i)
        up_blocks[v] = _add(k, _mul(k, p, q), minus_i)
    one = Element.one(g, k)
    cert = UnitRegularCertificate(u=one + _from_rows(g, k, u_blocks),
                                  u_prime=one + _from_rows(g, k, up_blocks),
                                  v=one)
    _require(verify_unit_regular(a, cert), "unit-regular data failed its claims")
    return cert


def extend_to_unit(g: Graph, u: Element, u_prime: Element, v: Element):
    """Globalize local inverses: w = u + (1 - v) and w' = u' + (1 - v)
    satisfy w w' = 1 = w' w against the full identity."""
    one = Element.one(g, u.field)
    if not (u * u_prime == v and u_prime * u == v):
        raise UnitDataError("u and u_prime are not mutually inverse over v")
    if not (v * u * v == u and v * u_prime * v == u_prime):
        raise UnitDataError("u and u_prime do not live in the corner of v")
    rest = one - v
    w = u + rest
    w_prime = u_prime + rest
    _require(check_claims([("product_equals", (w, w_prime), one),
                           ("product_equals", (w_prime, w), one)]),
             "extended units are not mutually inverse")
    return w, w_prime
