"""Exact coefficient fields with a designated involution.

Four families cover every behavior the decision procedures distinguish:

* ``Rationals()``                 identity involution, positive definite
* ``GaussianRationals(conj)``     conjugation is positive definite, identity
                                  is proper but not 2-proper
* ``PrimeField(p)``               identity involution, 2-proper iff p = 3 mod 4
* ``QuadraticExtField(p)``        Frobenius involution x -> x^p, never 2-proper

Values are exact and always canonical, so equality is structural: Q and
Q[i] hold reduced integer tuples, GF(p) and GF(p,2) residues. A field is
its spec string (``"Q"``, ``"Q[i]/conj"``, ``"GF(7)"``, ``"GF(7,2)"``):
two fields are equal, and hash alike, exactly when their spec strings are.
On finite fields ``improper_tuple`` is in closed form: it returns the first improper
tuple with x_1 = 1 in ``elements()`` order, built from square roots mod p
(Euler's criterion, then a^((p+1)/4) or Tonelli-Shanks), so its cost is
polylogarithmic in p. The exhaustive search it replaces is the oracle in
``tests/conftest.py``; the test suite checks the two against each other and
against ``properness_level``.

The ``_add``/``_mul``/... methods act on raw payloads and are the kernels
that ``algebra`` and ``linalg`` call directly. On Q and Q[i] each kernel is
a few int operations and at most one ``math.gcd``, none when both
denominators are 1; a literal is read with ``int`` and one ``gcd``. An
outside value (an int or a ``FieldValue``) becomes a payload in
``Field._payload`` alone.
Primality of p in GF(p) and GF(p,2) is decided by deterministic
Miller-Rabin, which is proven only below ``PRIME_LIMIT`` (about 3.3e24); a
larger p is refused with a ``FieldError``.
"""

from __future__ import annotations

import functools
import re
from math import gcd

from .omega import OMEGA


class FieldError(ValueError):
    """Malformed field spec, literal, or value."""


class FieldMismatchError(FieldError):
    """Raised when values of different fields are combined."""


class FieldValue:
    """An immutable element of a specific field, with operator arithmetic."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def __add__(self, other):
        b = self.field._payload(other)
        if b is None:
            return NotImplemented
        return FieldValue(self.field, self.field._add(self.payload, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self.field._payload(other)
        if b is None:
            return NotImplemented
        return FieldValue(self.field, self.field._sub(self.payload, b))

    def __rsub__(self, other):
        b = self.field._payload(other)
        if b is None:
            return NotImplemented
        return FieldValue(self.field, self.field._sub(b, self.payload))

    def __mul__(self, other):
        b = self.field._payload(other)
        if b is None:
            return NotImplemented
        return FieldValue(self.field, self.field._mul(self.payload, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self.field._payload(other)
        if b is None:
            return NotImplemented
        return self * FieldValue(self.field, b).inv()

    def __neg__(self):
        return FieldValue(self.field, self.field._neg(self.payload))

    def inv(self) -> "FieldValue":
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field.spec_string()}")
        return FieldValue(self.field, self.field._inv(self.payload))

    def conj(self) -> "FieldValue":
        return FieldValue(self.field, self.field._conj(self.payload))

    def __eq__(self, other):
        try:
            b = self.field._payload(other)
        except FieldMismatchError:
            return False
        if b is None:
            return NotImplemented
        return self.payload == b

    def __bool__(self):
        return not self.field._is_zero(self.payload)

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return self.field.literal(self.payload)


class Field:
    """Abstract base; a field is its spec string, which it is compared and
    hashed by."""

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return self.spec_string()

    # --- construction ------------------------------------------------

    @property
    def zero(self) -> FieldValue:
        return FieldValue(self, self._from_int(0))

    @property
    def one(self) -> FieldValue:
        return FieldValue(self, self._from_int(1))

    def from_int(self, n: int) -> FieldValue:
        return FieldValue(self, self._from_int(n))

    # --- payload kernels (each field defines the rest) ---------------

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _payload(self, c):
        """The payload of c, an int or a value of this field, or None for
        any other type; a value of another field is a FieldMismatchError.
        Every outside value reaches a payload here."""
        if isinstance(c, FieldValue):
            if c.field is not self and c.field != self:
                raise FieldMismatchError(
                    f"mixed fields: {self.spec_string()} and {c.field.spec_string()}")
            return c.payload
        if isinstance(c, int):
            return self._from_int(c)
        return None

    def _scalar(self, c, what: str):
        """The payload of a scalar c that scales ``what`` (named in the
        error for a type ``_payload`` does not take)."""
        x = self._payload(c)
        if x is None:
            raise TypeError(f"cannot scale {what} by {type(c).__name__}")
        return x

    # --- involution and properness ------------------------------------

    def properness_level(self):
        """Largest n (or OMEGA) such that a vanishing sum of n star-squares
        forces all n entries to vanish."""
        raise NotImplementedError

    def improper_tuple(self, n: int):
        """A not-all-zero tuple (x_1..x_n) with sum of conj(x_i)*x_i = 0, or
        None when no such tuple exists. On finite fields it is the first
        such tuple with x_1 = 1 in ``elements()`` order."""
        raise NotImplementedError

    def elements(self):
        raise FieldError(f"{self.spec_string()} is infinite")

    # --- literals ------------------------------------------------------

    def literal(self, payload) -> str:
        raise NotImplementedError

    def format(self, value: FieldValue) -> str:
        return self.literal(value.payload)

    def scan_literal(self, text: str, pos: int):
        """Parse a literal at pos; return (FieldValue, end) or None."""
        raise NotImplementedError

    def parse_literal(self, text: str) -> FieldValue:
        scanned = self.scan_literal(text, 0)
        if scanned is None or scanned[1] != len(text):
            raise FieldError(f"malformed {self.spec_string()} literal: {text!r}")
        return scanned[0]

    def spec_string(self) -> str:
        raise NotImplementedError

    def sample(self, rng) -> FieldValue:
        raise NotImplementedError


_RAT = re.compile(r"[+-]?\d+(?:/\d+)?")
_INT = re.compile(r"[+-]?\d+")
_UNSIGNED_RAT = re.compile(r"\d+(?:/\d+)?")
_UNSIGNED_INT = re.compile(r"\d+")


def _fraction(digits: str):
    """The reduced int pair (n, d), d > 0, of an "n" or "n/d" literal (as
    ``_RAT`` matches it); d = 0 is a FieldError."""
    n, _, d = digits.partition("/")
    n, d = int(n), int(d or 1)
    if not d:
        raise FieldError(f"zero denominator in literal {digits!r}")
    g = gcd(n, d)
    return n // g, d // g


def _scan_part(text, pos, number, unit, *, explicit_sign):
    """One part of a two-part literal: [sign] (number [unit] | unit), with
    number matched by the regex ``number`` and ``unit`` a letter ("i", "t").
    Returns ((value, has_unit), end) with value a reduced pair (n, d) as
    ``_fraction`` gives, or None."""
    sign = 1
    p = pos
    if p < len(text) and text[p] in "+-":
        if text[p] == "-":
            sign = -1
        p += 1
    elif explicit_sign:
        return None
    m = number.match(text, p)
    if m:
        n, d = _fraction(m.group())
        value = (sign * n, d)
        p = m.end()
        if p < len(text) and text[p] == unit:
            return (value, True), p + 1
        return (value, False), p
    if p < len(text) and text[p] == unit:
        return ((sign, 1), True), p + 1
    return None


def _rational_text(n, d):
    """n/d (d > 0) in lowest terms: "n" when that denominator is 1, else
    "n/d"."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


class Rationals(Field):
    """The rational numbers with the identity involution.

    A payload is the int pair ``(n, d)`` of n/d in lowest terms with
    ``d > 0``; zero is ``(0, 1)``.
    """

    def spec_string(self):
        return "Q"

    def _is_zero(self, a):
        return not a[0]

    def _from_int(self, n):
        return (int(n), 1)

    def _add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            n = an + bn
            if ad == 1:
                return (n, 1)
        else:
            n, ad = an * bd + bn * ad, ad * bd
        g = gcd(n, ad)
        return (n // g, ad // g)

    def _mul(self, a, b):
        an, ad = a
        bn, bd = b
        n, d = an * bn, ad * bd
        if d == 1:
            return (n, 1)
        g = gcd(n, d)
        return (n // g, d // g)

    def _neg(self, a):
        return (-a[0], a[1])

    def _inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisionError("division by zero in Q")
        return (d, n) if n > 0 else (-d, -n)

    def _conj(self, a):
        return a

    def properness_level(self):
        return OMEGA

    def improper_tuple(self, n):
        # A sum of rational squares vanishes only if every term does.
        if n < 1:
            raise FieldError("n must be positive")
        return None

    def literal(self, payload):
        return _rational_text(*payload)

    def scan_literal(self, text, pos):
        m = _RAT.match(text, pos)
        if not m:
            return None
        return FieldValue(self, _fraction(m.group())), m.end()

    def sample(self, rng):
        n, d = rng.randint(-6, 6), rng.randint(1, 4)
        g = gcd(n, d)
        return FieldValue(self, (n // g, d // g))


def _gaussian(re_, im):
    """The payload of re_ + im*i, each part an int pair (n, d) with d > 0."""
    (r, rd), (i, id_) = re_, im
    r, i, d = r * id_, i * rd, rd * id_
    g = gcd(r, i, d)
    return (r // g, i // g, d // g)


class GaussianRationals(Field):
    """Q[i], with either complex conjugation or the identity involution.

    A payload is the int triple ``(r, i, d)`` of (r + i*i)/d with ``d > 0``
    and ``gcd(r, i, d) = 1``, so each value has exactly one payload; zero is
    ``(0, 0, 1)``.
    """

    def __init__(self, conjugation: bool):
        self.conjugation = conjugation

    def spec_string(self):
        return "Q[i]/conj" if self.conjugation else "Q[i]/id"

    def _is_zero(self, a):
        return not (a[0] or a[1])

    def _from_int(self, n):
        return (int(n), 0, 1)

    def _add(self, a, b):
        ar, ai, ad = a
        br, bi, bd = b
        if ad == bd:
            r, i = ar + br, ai + bi
            if ad == 1:
                return (r, i, 1)
        else:
            r, i, ad = ar * bd + br * ad, ai * bd + bi * ad, ad * bd
        g = gcd(r, i, ad)
        return (r // g, i // g, ad // g)

    def _mul(self, a, b):
        ar, ai, ad = a
        br, bi, bd = b
        r, i, d = ar * br - ai * bi, ar * bi + ai * br, ad * bd
        if d == 1:
            return (r, i, 1)
        g = gcd(r, i, d)
        return (r // g, i // g, d // g)

    def _neg(self, a):
        return (-a[0], -a[1], a[2])

    def _inv(self, a):
        # d / (r + i*i) = d*(r - i*i) / (r^2 + i^2)
        r, i, d = a
        norm = r * r + i * i
        if not norm:
            raise ZeroDivisionError(f"division by zero in {self.spec_string()}")
        r, i = d * r, -d * i
        g = gcd(r, i, norm)
        return (r // g, i // g, norm // g)

    def _conj(self, a):
        return (a[0], -a[1], a[2]) if self.conjugation else a

    @property
    def i(self) -> FieldValue:
        return FieldValue(self, (0, 1, 1))

    def properness_level(self):
        return OMEGA if self.conjugation else 1

    def improper_tuple(self, n):
        if n < 1:
            raise FieldError("n must be positive")
        if self.conjugation or n == 1:
            return None
        # 1^2 + i^2 = 0; pad with zeros for larger n.
        return (self.one, self.i) + (self.zero,) * (n - 2)

    def literal(self, payload):
        r, i, d = payload
        if i == 0:
            return _rational_text(r, d)
        imag = "i" if abs(i) == d else f"{_rational_text(abs(i), d)}i"
        if r == 0:
            return imag if i > 0 else f"-{imag}"
        sign = "+" if i > 0 else "-"
        return f"{_rational_text(r, d)}{sign}{imag}"

    def scan_literal(self, text, pos):
        first = _scan_part(text, pos, _UNSIGNED_RAT, "i", explicit_sign=False)
        if first is None:
            return None
        (v1, imag1), p1 = first
        if not imag1:
            second = _scan_part(text, p1, _UNSIGNED_RAT, "i", explicit_sign=True)
            if second is not None and second[0][1]:
                (v2, _), p2 = second
                return FieldValue(self, _gaussian(v1, v2)), p2
            return FieldValue(self, _gaussian(v1, (0, 1))), p1
        return FieldValue(self, _gaussian((0, 1), v1)), p1

    def sample(self, rng):
        re_ = (rng.randint(-4, 4), rng.randint(1, 3))
        im = (rng.randint(-4, 4), rng.randint(1, 3))
        return FieldValue(self, _gaussian(re_, im))


# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, 2015); larger p is refused, not guessed.
PRIME_LIMIT = 3317044064679887385961981
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a FieldError for p >= PRIME_LIMIT."""
    if p >= PRIME_LIMIT:
        raise FieldError(f"{p} is too large: primality is only decided below {PRIME_LIMIT}")
    if p < 2:
        return False
    for b in _WITNESS_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _WITNESS_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _is_square(a: int, p: int) -> bool:
    """Whether a (reduced mod the odd prime p) is a square, 0 included, by
    Euler's criterion."""
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


def _least_non_residue(p: int) -> int:
    """The smallest non-square mod the odd prime p."""
    return next(c for c in range(2, p) if not _is_square(c, p))


def _sqrt_mod(a: int, p: int) -> int:
    """The smaller square root of a square a (reduced) mod the odd prime p:
    a^((p+1)/4) when p = 3 (mod 4), Tonelli-Shanks otherwise."""
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while not q & 1:
            q >>= 1
            s += 1
        c, t, r = pow(_least_non_residue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class PrimeField(Field):
    """GF(p) with the identity involution."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def spec_string(self):
        return f"GF({self.p})"

    def _is_zero(self, a):
        return not a

    def _from_int(self, n):
        return n % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _conj(self, a):
        return a

    def elements(self):
        return [FieldValue(self, k) for k in range(self.p)]

    def properness_level(self):
        # -1 is a square mod p unless p = 3 (mod 4); any element of GF(p) is
        # a sum of two squares, so three squares can always cancel.
        return 2 if self.p % 4 == 3 else 1

    def improper_tuple(self, n):
        # x_1 = 1, so the rest must sum to -1. One square never suffices
        # when p = 3 (mod 4), and two always do, so the first tuple is
        # zeros and then the least x with -1 - x^2 a square and its root.
        if n < 1:
            raise FieldError("n must be positive")
        p = self.p
        if n == 1:
            return None
        if p == 2:
            tail = [1]
        elif n == 2:
            if p % 4 == 3:
                return None
            tail = [_sqrt_mod(p - 1, p)]
        else:
            x = next(x for x in range(p) if _is_square((-1 - x * x) % p, p))
            tail = [x, _sqrt_mod((-1 - x * x) % p, p)]
        payloads = [1] + [0] * (n - 1 - len(tail)) + tail
        return tuple(FieldValue(self, a) for a in payloads)

    def literal(self, payload):
        return str(payload)

    def scan_literal(self, text, pos):
        m = _INT.match(text, pos)
        if not m:
            return None
        return FieldValue(self, int(m.group()) % self.p), m.end()

    def sample(self, rng):
        return FieldValue(self, rng.randrange(self.p))


class QuadraticExtField(Field):
    """GF(p^2) with the Frobenius involution x -> x^p.

    Represented on the basis {1, t} with t^2 = t + 1 for p = 2 and t^2 = c
    (c the smallest non-residue) for odd p. Values print as "a+bt".
    """

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        if p == 2:
            self._u, self._w = 1, 1
        else:
            self._u = 0
            self._w = _least_non_residue(p)

    def spec_string(self):
        return f"GF({self.p},2)"

    def _is_zero(self, a):
        return not (a[0] or a[1])

    def _from_int(self, n):
        return (n % self.p, 0)

    def _add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def _mul(self, a, b):
        # (a0 + a1 t)(b0 + b1 t) with t^2 = u t + w
        cross = a[1] * b[1]
        return (
            (a[0] * b[0] + cross * self._w) % self.p,
            (a[0] * b[1] + a[1] * b[0] + cross * self._u) % self.p,
        )

    def _neg(self, a):
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def _conj(self, a):
        # x^p in closed form: (a + bt)^p = a + b t^p, and t^p is the other
        # root u - t of t^2 = u t + w, so x^p = (a + b u) - b t.
        return ((a[0] + a[1] * self._u) % self.p, (-a[1]) % self.p)

    def _inv(self, a):
        # x^{-1} = conj(x) / N(x) with N(x) = x * x^p landing in GF(p)
        c = self._conj(a)
        norm = self._mul(a, c)
        if norm[1] != 0:
            raise AssertionError("GF(p^2) norm did not land in GF(p)")
        scale = pow(norm[0], -1, self.p)
        return ((c[0] * scale) % self.p, (c[1] * scale) % self.p)

    @property
    def t(self) -> FieldValue:
        return FieldValue(self, (0, 1))

    def elements(self):
        return [FieldValue(self, (a, b)) for a in range(self.p) for b in range(self.p)]

    def properness_level(self):
        # conj(x) x is the norm onto GF(p), which is surjective, so some
        # norm equals -1 and 1-properness is the best possible.
        return 1

    def improper_tuple(self, n):
        # x_1 = 1, and the norm onto GF(p) is surjective, so the first tuple
        # is zeros and then the first z with norm(z) = -1. For odd p,
        # norm(a + bt) = a^2 - c b^2: the least a with (a^2 + 1)/c a square,
        # and the smaller root b.
        if n < 1:
            raise FieldError("n must be positive")
        if n == 1:
            return None
        p = self.p
        if p == 2:
            minus_one = self._from_int(-1)
            last = next(z for z in ((a, b) for a in range(p) for b in range(p))
                        if self._mul(self._conj(z), z) == minus_one)
        else:
            inv_c = pow(self._w, -1, p)
            a = next(a for a in range(p) if _is_square((a * a + 1) * inv_c % p, p))
            last = (a, _sqrt_mod((a * a + 1) * inv_c % p, p))
        payloads = [(1, 0)] + [(0, 0)] * (n - 2) + [last]
        return tuple(FieldValue(self, z) for z in payloads)

    def literal(self, payload):
        a, b = payload
        if b == 0:
            return str(a)
        tpart = "t" if b == 1 else f"{b}t"
        return tpart if a == 0 else f"{a}+{tpart}"

    def scan_literal(self, text, pos):
        first = _scan_part(text, pos, _UNSIGNED_INT, "t", explicit_sign=False)
        if first is None:
            return None
        ((v1, _), t1), p1 = first
        v1 %= self.p
        second = _scan_part(text, p1, _UNSIGNED_INT, "t", explicit_sign=True)
        if second is not None and second[0][1] != t1:
            ((v2, _), _), p2 = second
            v2 %= self.p
            return FieldValue(self, (v2, v1) if t1 else (v1, v2)), p2
        return FieldValue(self, (0, v1) if t1 else (v1, 0)), p1

    def sample(self, rng):
        return FieldValue(self, (rng.randrange(self.p), rng.randrange(self.p)))


_SPEC_RE = re.compile(r"GF\((\d+)(?:,(\d+))?\)$")


@functools.lru_cache(maxsize=128)
def parse_field_spec(text: str) -> Field:
    """Field spec strings: Q, Q[i]/id, Q[i]/conj, GF(p), GF(p,2).

    The cache is keyed on the raw text and bounded, so a long-lived caller
    passing ever new specs (other primes, stray spaces) does not grow it."""
    text = text.strip()
    if text == "Q":
        return Rationals()
    if text == "Q[i]/id":
        return GaussianRationals(conjugation=False)
    if text == "Q[i]/conj":
        return GaussianRationals(conjugation=True)
    m = _SPEC_RE.match(text)
    if m:
        p = int(m.group(1))
        degree = int(m.group(2)) if m.group(2) else 1
        if degree == 1:
            return PrimeField(p)
        if degree == 2:
            return QuadraticExtField(p)
        raise FieldError(f"unsupported extension degree {degree}")
    raise FieldError(f"unknown field spec {text!r}")
