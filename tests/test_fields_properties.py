"""Property tests of the Q and Q[i] kernels against a Fraction oracle: each
kernel gives the oracle's value in canonical form, literals print as they
did when the payloads were Fractions, and a rational literal reads as
``Fraction`` reads it."""

import re
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from leavitt import Element, FieldError, Path, parse_field_spec, standard_graph  # noqa: E402
from leavitt.fields import _RAT, _fraction  # noqa: E402

from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402

Q = parse_field_spec("Q")
GAUSSIAN = (parse_field_spec("Q[i]/conj"), parse_field_spec("Q[i]/id"))
FIELDS = (Q,) + GAUSSIAN
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def fraction_literal(k, value):
    """The literal of ``value`` (a Fraction, or a pair of them over Q[i]) as
    the fields printed it when their payloads were Fractions."""
    if k is Q:
        return str(value)
    re_, im = value
    if im == 0:
        return str(re_)
    imag = "i" if abs(im) == 1 else f"{abs(im)}i"
    if re_ == 0:
        return imag if im > 0 else f"-{imag}"
    sign = "+" if im > 0 else "-"
    return f"{re_}{sign}{imag}"


def value_of(k, payload):
    """The oracle value of a payload."""
    if k is Q:
        n, d = payload
        return Fraction(n, d)
    r, i, d = payload
    return (Fraction(r, d), Fraction(i, d))


def is_canonical(payload):
    """Plain ints, d > 0 and no common factor, so zero is (0, 1) or (0, 0, 1)."""
    return all(type(x) is int for x in payload) and payload[-1] > 0 and gcd(*payload) == 1


@st.composite
def values(draw, k):
    """(payload, oracle value) with the payload parsed from the oracle's
    literal, so no kernel builds the inputs."""
    value = draw(RATIONALS) if k is Q else (draw(RATIONALS), draw(RATIONALS))
    return k.parse_literal(fraction_literal(k, value)).payload, value


def oracle(k, op, x, y=None):
    if k is Q:
        return {"add": lambda: x + y, "sub": lambda: x - y, "mul": lambda: x * y,
                "neg": lambda: -x, "inv": lambda: 1 / x, "conj": lambda: x}[op]()
    (a, b) = x
    (c, d) = y if y is not None else (None, None)
    return {"add": lambda: (a + c, b + d), "sub": lambda: (a - c, b - d),
            "mul": lambda: (a * c - b * d, a * d + b * c), "neg": lambda: (-a, -b),
            "inv": lambda: (a / (a * a + b * b), -b / (a * a + b * b)),
            "conj": lambda: (a, -b) if k.conjugation else (a, b)}[op]()


def is_zero(k, value):
    return value == 0 if k is Q else value == (0, 0)


@st.composite
def operands(draw):
    k = draw(st.sampled_from(FIELDS))
    return k, draw(values(k)), draw(values(k))


@PROPERTY_SETTINGS
@given(operands())
def test_kernels_match_the_oracle(case):
    k, (a, x), (b, y) = case
    results = {op: (getattr(k, f"_{op}")(a, b), oracle(k, op, x, y))
               for op in ("add", "sub", "mul")}
    results.update({op: (getattr(k, f"_{op}")(a), oracle(k, op, x))
                    for op in ("neg", "conj")})
    if is_zero(k, x):
        with pytest.raises(ZeroDivisionError):
            k._inv(a)
    else:
        results["inv"] = (k._inv(a), oracle(k, "inv", x))
    assert k._is_zero(a) == is_zero(k, x)
    for op, (payload, expected) in results.items():
        assert is_canonical(payload), (op, payload)
        assert value_of(k, payload) == expected, op
        assert k.literal(payload) == fraction_literal(k, expected), op
        assert k.parse_literal(k.literal(payload)).payload == payload, op


@PROPERTY_SETTINGS
@given(st.sampled_from(FIELDS), st.integers(-50, 50))
def test_from_int_is_canonical(k, n):
    payload = k.from_int(n).payload
    assert is_canonical(payload)
    assert value_of(k, payload) == (n if k is Q else (n, 0))
    assert k.literal(payload) == str(n)


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: k.spec_string())
def test_zero_has_one_payload(k):
    zero = k.zero.payload
    assert zero == ((0, 1) if k is Q else (0, 0, 1)) and k._is_zero(zero)
    assert k.from_int(0).payload == zero == k._sub(k.one.payload, k.one.payload)
    with pytest.raises(ZeroDivisionError):
        k._inv(zero)


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: k.spec_string())
def test_bool_coefficients_are_ints(k):
    g = standard_graph("line", 2)
    v1 = Path("v1", ())
    assert repr(k.from_int(True)) == "1"
    assert str(Element.from_terms(g, k, [(True, v1, v1)])) == "v1"
    assert str(Element.vertex(g, k, "v1").scale(True)) == "v1"


# what ``_RAT`` matches, and the same spelled with a sign, leading zeros
# and zero parts more often than ``from_regex`` draws them
ZEROS, DIGITS = st.sampled_from(["", "0", "00"]), st.integers(0, 10**30).map(str)
RAT_TEXTS = st.from_regex(_RAT, fullmatch=True) | st.builds(
    lambda sign, zeros, n, d: f"{sign}{zeros}{n}" + ("" if d is None else "/" + "".join(d)),
    st.sampled_from(["", "+", "-"]), ZEROS, DIGITS, st.none() | st.tuples(ZEROS, DIGITS))


@PROPERTY_SETTINGS
@given(RAT_TEXTS)
@example("-0/5")
@example("+007/014")
@example("-12/0")
@example("0/00")
def test_literal_parts_read_as_fraction_reads_them(text):
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(FieldError, match=re.escape(f"zero denominator in literal {text!r}")):
            _fraction(text)
        return
    assert _fraction(text) == (expected.numerator, expected.denominator)
