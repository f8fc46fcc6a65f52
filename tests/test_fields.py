import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import leavitt
from leavitt import (
    Element,
    FieldError,
    FieldMismatchError,
    GaussianRationals,
    OMEGA,
    Path,
    PrimeField,
    QuadraticExtField,
    Rationals,
    format_element,
    parse_field_spec,
    sink_basis,
    standard_graph,
)
from leavitt.fields import PRIME_LIMIT, FieldValue, _is_prime, _is_square, _sqrt_mod
from leavitt.io import parse_element
from leavitt.linalg import _factor, rank_factorization
from leavitt.semisimple import MatrixImage

from conftest import ALL_FIELDS, search_improper, trial_division_is_prime

Q = Rationals()
QI_ID = GaussianRationals(conjugation=False)
QI_CONJ = GaussianRationals(conjugation=True)
GF2, GF3, GF5, GF7, GF13 = (PrimeField(p) for p in (2, 3, 5, 7, 13))
GF4, GF9, GF25 = (QuadraticExtField(p) for p in (2, 3, 5))

FINITE = (GF2, GF3, GF5, GF4, GF9, GF25)


class TestArithmetic:
    def test_rational_add(self):
        assert Q.parse_literal("1/2") + Q.parse_literal("1/3") == Q.parse_literal("5/6")

    def test_gf5_inverse(self):
        assert GF5.from_int(2).inv() == GF5.from_int(3)

    def test_ext_generator_satisfies_modulus(self):
        # for p = 3 the modulus is t^2 - 2 (2 is the least non-residue)
        t = GF9.t
        assert t * t == GF9.from_int(2)
        # and for p = 2 it is t^2 + t + 1
        t4 = GF4.t
        assert t4 * t4 == t4 + GF4.one

    def test_inverses_exhaustive(self):
        for k in FINITE:
            for x in k.elements():
                if x:
                    assert x * x.inv() == k.one
                else:
                    with pytest.raises(ZeroDivisionError):
                        x.inv()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q.one / Q.zero

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            Q.one + GF3.one

    def test_int_minus_value(self):
        assert 1 - Q.from_int(3) == Q.from_int(-2)
        assert 1 - GF5.from_int(3) == GF5.from_int(3)
        with pytest.raises(TypeError):
            "x" - Q.from_int(3)

    @pytest.mark.parametrize("k", [Q, QI_ID, QI_CONJ], ids=lambda k: k.spec_string())
    def test_infinite_fields_list_no_elements(self, k):
        with pytest.raises(FieldError, match=rf"^{re.escape(k.spec_string())} is infinite$"):
            k.elements()

    def test_gaussian_mul(self):
        i = QI_CONJ.i
        assert i * i == -QI_CONJ.one
        x = QI_CONJ.parse_literal("1+2i")
        y = QI_CONJ.parse_literal("3-i")
        assert x * y == QI_CONJ.parse_literal("5+5i")


class TestConjugation:
    def test_gaussian_conjugation(self):
        assert QI_CONJ.parse_literal("1+i").conj() == QI_CONJ.parse_literal("1-i")

    def test_identity_involutions(self):
        for k in (Q, QI_ID, GF2, GF3, GF5):
            x = k.sample(__import__("random").Random(1))
            assert x.conj() == x

    def test_frobenius_is_cubing_on_gf9(self):
        for x in GF9.elements():
            cube = x * x * x
            assert x.conj() == cube

    @pytest.mark.parametrize("p", [p for p in range(2, 50) if trial_division_is_prime(p)])
    def test_frobenius_is_the_pth_power(self, p):
        # conj is in closed form; x^p here is p - 1 products, on every element
        k = QuadraticExtField(p)
        for x in ((a, b) for a in range(p) for b in range(p)):
            power = x
            for _ in range(p - 1):
                power = k._mul(power, x)
            assert k._conj(x) == power, x

    def test_frobenius_is_involution(self):
        for k in (GF4, GF9, GF25):
            for x in k.elements():
                assert x.conj().conj() == x

    def test_conj_laws(self, rng):
        for k in ALL_FIELDS:
            assert k.zero.conj() == k.zero
            assert k.one.conj() == k.one
            for _ in range(25):
                a, b = k.sample(rng), k.sample(rng)
                assert (a + b).conj() == a.conj() + b.conj()
                assert (a * b).conj() == a.conj() * b.conj()
                assert a.conj().conj() == a


EXPECTED_LEVELS = [
    (Q, OMEGA),
    (QI_CONJ, OMEGA),
    (QI_ID, 1),
    (GF2, 1),
    (GF3, 2),
    (GF5, 1),
    (GF7, 2),
    (GF13, 1),
    (GF4, 1),
    (GF9, 1),
    (GF25, 1),
]


def tuple_is_witness(k, tup):
    total = k.zero
    for x in tup:
        total = total + x.conj() * x
    return any(tup) and total == k.zero


class TestProperness:
    def test_levels(self):
        for k, level in EXPECTED_LEVELS:
            assert k.properness_level() == level, k.spec_string()

    def test_levels_against_search_oracle(self):
        # the exhaustive improper_tuple search must agree with the level
        for k, level in EXPECTED_LEVELS:
            if level is OMEGA:
                continue
            assert k.improper_tuple(level) is None
            witness = k.improper_tuple(level + 1)
            assert witness is not None and tuple_is_witness(k, witness)

    def test_downward_closure(self):
        for k, level in EXPECTED_LEVELS:
            top = 3 if level is OMEGA else min(level, 3)
            for n in range(1, top + 1):
                assert k.improper_tuple(n) is None
            if level is not OMEGA:
                for n in range(level + 1, level + 3):
                    witness = k.improper_tuple(n)
                    assert witness is not None and tuple_is_witness(k, witness)
                    assert len(witness) == n

    def test_gaussian_identity_witness(self):
        assert QI_ID.improper_tuple(2) == (QI_ID.one, QI_ID.i)

    def test_gf5_witness(self):
        assert GF5.improper_tuple(2) == (GF5.one, GF5.from_int(2))

    @pytest.mark.parametrize("k", [Q, QI_CONJ, GF5, GF9], ids=lambda k: k.spec_string())
    def test_n_below_1_refused(self, k):
        with pytest.raises(FieldError, match="^n must be positive$"):
            k.improper_tuple(0)

    def test_rationals_always_none(self):
        for n in (1, 2, 3, 4, 5):
            assert Q.improper_tuple(n) is None

    def test_rationals_bounded_height_oracle(self):
        # Q and Q[i]/conj are positive definite: a sum of two star-squares
        # of small-height values parsed from literals, computed by the int
        # tuple kernels, equals the Fraction sum |x|^2 + |y|^2, so it
        # vanishes only when both entries do
        parts = [(a, b) for a in range(-2, 3) for b in (1, 2, 4)]
        pools = {
            Q: [(Q.parse_literal(f"{a}/{b}"), Fraction(a, b), Fraction(0)) for a, b in parts],
            QI_CONJ: [(QI_CONJ.parse_literal(f"{a}/{b}{c:+}/{d}i"), Fraction(a, b),
                       Fraction(c, d)) for a, b in parts for c, d in parts[::3]],
        }
        for k, pool in pools.items():
            for x, xr, xi in pool:
                for y, yr, yi in pool:
                    total = x.conj() * x + y.conj() * y
                    want = xr * xr + xi * xi + yr * yr + yi * yi
                    assert total == k.parse_literal(str(want))
                    if not total:
                        assert not x and not y


class TestLiterals:
    def test_round_trips(self, rng):
        for k in ALL_FIELDS:
            for _ in range(50):
                x = k.sample(rng)
                assert k.parse_literal(k.format(x)) == x

    def test_gaussian_forms(self):
        cases = ["0", "1", "-1", "i", "-i", "2i", "1+i", "1-i", "-1/2+3i", "3-2/5i"]
        for text in cases:
            x = QI_CONJ.parse_literal(text)
            assert QI_CONJ.format(x) == text

    def test_ext_forms(self):
        for text in ["0", "1", "2", "t", "2t", "1+t", "2+2t"]:
            x = GF9.parse_literal(text)
            assert GF9.format(x) == text

    def test_malformed(self):
        for k, bad in [(Q, "x"), (Q, "1/"), (GF3, "1/2"), (QI_ID, "1+"), (GF9, "i")]:
            with pytest.raises(FieldError):
                k.parse_literal(bad)

    def test_prime_field_literals_compile_no_pattern(self, monkeypatch):
        # every pattern a literal is scanned with is compiled at import
        g = standard_graph("line", 2)
        compiled = []
        compile_ = re.compile
        monkeypatch.setattr(re, "compile",
                            lambda *args: compiled.append(args) or compile_(*args))
        x = parse_element("3*e1 + -2*v1 + 4*e1.e1* + 7*v2", g, PrimeField(5))
        assert compiled == []
        assert format_element(x) == "2*v1 + 2*v2 + 3*e1"


class TestSpecStrings:
    def test_parse_and_print(self):
        for text in ["Q", "Q[i]/id", "Q[i]/conj", "GF(3)", "GF(5)", "GF(2)", "GF(3,2)"]:
            assert parse_field_spec(text).spec_string() == text

    def test_rejects(self):
        for bad in ["R", "GF(4)", "GF(6)", "GF(3,3)", "Q[i]", "GF(9,2)"]:
            with pytest.raises(FieldError):
                parse_field_spec(bad)

    def test_equality_is_structural(self):
        assert parse_field_spec("GF(3)") == PrimeField(3)
        assert PrimeField(3) != PrimeField(5)
        assert GaussianRationals(True) != GaussianRationals(False)
        # a field is its spec string: GF(5) and GF(5,2) share p but are two
        # fields, and the string itself is not a field
        assert PrimeField(5) != QuadraticExtField(5)
        assert Rationals() != GaussianRationals(True)
        assert hash(PrimeField(7)) == hash(parse_field_spec("GF(7)"))
        assert Rationals() != "Q"

    def test_spec_cache_is_bounded(self):
        bound = parse_field_spec.cache_info().maxsize
        assert bound is not None
        # raw texts differing only in spaces are distinct cache keys
        fields = [parse_field_spec(" " * i + "GF(3)") for i in range(bound + 10)]
        assert parse_field_spec.cache_info().currsize <= bound
        assert all(k == PrimeField(3) for k in fields)
        assert parse_field_spec("GF(3) ") == parse_field_spec("GF(3)")


class TestLargePrimes:
    """Primality by deterministic Miller-Rabin below PRIME_LIMIT, a refusal
    above it, and GF(p, 2) without a table of all p squares."""

    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 20000) if _is_prime(n)] == [
            n for n in range(-3, 20000) if trial_division_is_prime(n)]

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to every prime base up to 23, 37 and 41
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n)
            with pytest.raises(FieldError, match="is not prime"):
                PrimeField(n)

    def test_large_primes_accepted(self):
        for p in (2**31 - 1, 2**61 - 1, 1000000007, 998244353):
            assert _is_prime(p)
        assert parse_field_spec("GF(2305843009213693951)").p == 2**61 - 1

    @pytest.mark.parametrize("spec", [f"GF({PRIME_LIMIT})", f"GF({PRIME_LIMIT + 2},2)",
                                      f"GF({2**127 - 1})"])
    def test_refused_at_the_limit(self, spec):
        with pytest.raises(FieldError) as info:
            parse_field_spec(spec)
        message = str(info.value)
        assert str(PRIME_LIMIT) in message and "\n" not in message

    def test_non_residue_matches_the_squares_table(self):
        for p in (n for n in range(3, 3000) if trial_division_is_prime(n)):
            squares = {x * x % p for x in range(p)}
            smallest = next(c for c in range(2, p) if c not in squares)
            assert QuadraticExtField(p)._w == smallest

    @pytest.mark.parametrize("spec", ["GF(2305843009213693951)", "GF(1000000007,2)"])
    def test_cli_product_fast_and_small(self, tmp_path, spec):
        code, out, cpu = run_limited(tmp_path, ["mul", "{line2}", "--field", spec,
                                                "-e", "e1", "-e", "e1*"])
        assert (code, out) == (0, "v1\n")
        assert cpu < 1.0


LINE_TEXT = {
    "line2": "vertex v1\nvertex v2\nedge e1 v1 v2\n",
    "line3": "vertex v1\nvertex v2\nvertex v3\nedge e1 v1 v2\nedge e2 v2 v3\n",
}


def run_limited(tmp_path, argv):
    """(exit code, stdout, CPU seconds) of ``leavitt.cli.main(argv)`` in a
    child process that caps its own address space and CPU time; ``{line2}``
    and ``{line3}`` in argv stand for graph files."""
    for name, text in LINE_TEXT.items():
        (tmp_path / f"{name}.txt").write_text(text)
    argv = [a.format(**{n: str(tmp_path / f"{n}.txt") for n in LINE_TEXT}) for a in argv]
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (20, 20))\n"
        "from leavitt.cli import main\n"
        "start = time.process_time()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.process_time() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = pathlib.Path(leavitt.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stderr.count("\n") == 1, result.stderr[-500:]
    return result.returncode, result.stdout, float(result.stderr)


def prime_fields(bound):
    return [PrimeField(p) for p in range(2, bound) if trial_division_is_prime(p)]


def extension_fields(bound):
    return [QuadraticExtField(p) for p in range(2, bound) if trial_division_is_prime(p)]


class TestClosedFormImproperTuples:
    """``improper_tuple`` is the first improper tuple with x_1 = 1 in
    ``elements()`` order, built without walking the field."""

    @pytest.mark.parametrize("k", prime_fields(120) + extension_fields(50),
                             ids=lambda k: k.spec_string())
    def test_equals_the_search(self, k):
        top = 4 if isinstance(k, PrimeField) else 3
        for n in range(1, top + 1):
            assert k.improper_tuple(n) == search_improper(k, n), n

    def test_square_roots(self):
        for p in range(3, 600):
            if not trial_division_is_prime(p):
                continue
            roots = {}
            for x in range(p):
                roots.setdefault(x * x % p, x)
            for a in range(p):
                assert _is_square(a, p) == (a in roots), (p, a)
                if a in roots:
                    assert _sqrt_mod(a, p) == roots[a], (p, a)

    @pytest.mark.parametrize("argv, out", [
        (["decide", "{line3}", "--field", "GF(10007,2)"],
         "improper_certificate: v2 + 2+t*e1\n"),
        (["decide", "{line3}", "--field", "GF(1000003)"],
         "improper_certificate: v3 + e2 + 410588*e1.e2\n"),
        (["witness", "improper", "{line2}", "--field", "GF(1000000007,2)"],
         "v2 + 2+t*e1\nverified: a != 0 and star(a).a = 0\n"),
    ])
    def test_cli_on_large_fields(self, tmp_path, argv, out):
        code, stdout, cpu = run_limited(tmp_path, argv)
        assert code == 0 and stdout.endswith(out), stdout
        assert cpu < 1.0


WORK_FIELDS = [PrimeField(43), PrimeField(41), QuadraticExtField(47), PrimeField(1000003)]


class TestImproperTupleWork:
    @pytest.fixture
    def no_elements(self, monkeypatch):
        def refuse(self):
            raise AssertionError("elements() called")

        for cls in (leavitt.fields.Field, PrimeField, QuadraticExtField):
            monkeypatch.setattr(cls, "elements", refuse)

    @pytest.mark.parametrize("k", WORK_FIELDS, ids=lambda k: k.spec_string())
    def test_builds_n_values(self, k, monkeypatch, no_elements):
        built = []
        init = FieldValue.__init__

        def counting_init(self, field, payload):
            built.append(payload)
            init(self, field, payload)

        monkeypatch.setattr(FieldValue, "__init__", counting_init)
        for n in range(1, 7):
            del built[:]
            tup = k.improper_tuple(n)
            assert len(built) == (0 if tup is None else n), n

    @pytest.mark.parametrize("k", WORK_FIELDS, ids=lambda k: k.spec_string())
    def test_decide_without_elements(self, k, tmp_path, capsys, no_elements):
        from leavitt.cli import main

        path = tmp_path / "line3.txt"
        path.write_text(LINE_TEXT["line3"])
        assert main(["decide", str(path), "--field", k.spec_string()]) == 0
        assert "proper_algebra: improper" in capsys.readouterr().out


# (element, 3x3 block) over each characteristic-zero field, as text
KERNEL_INPUTS = {
    "Q": ("1/2*v1 - 2/3*e1 + 3/4*e1.e2.e2* + 5*e1.e1* - 1/3*v2",
          [["1/2", "2/3", "0"], ["1", "-3/4", "5/2"], ["3/2", "-1/12", "7/2"]]),
    "Q[i]": ("1/2+i*v1 - 2/3i*e1 + 3/4-2i*e1.e2.e2* + 5*e1.e1* - 1/3*v2",
             [["1/2+i", "2/3i", "0"], ["1", "-3/4+i", "5/2"], ["3/2-i", "-1/12", "5/2i"]]),
}


class TestNoFractionsInKernels:
    """Q and Q[i] arithmetic runs on int tuples: products, stars, sums and a
    factorization build no Fraction (170, 369 and 364 when the payloads were
    Fractions). Parsing the inputs is outside the count."""

    @pytest.mark.parametrize("k", [Q, QI_CONJ, QI_ID], ids=lambda k: k.spec_string())
    def test_zero_fractions_built(self, k, monkeypatch):
        expr, block = KERNEL_INPUTS["Q" if k is Q else "Q[i]"]
        g = standard_graph("toeplitz")
        x = parse_element(expr, g, k)
        rows = [{j: k.parse_literal(t).payload for j, t in enumerate(row) if t != "0"}
                for row in block]
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        y = (x * x.star()) * x + x
        factors = _factor(k, rows, 3, 3)
        monkeypatch.undo()
        assert not y.is_zero and factors[-1] == 3
        assert built == []


LINE1 = standard_graph("line", 1)
V1 = Path("v1", ())
# Each entry point that takes an outside value, as a door from the value c
# to the payload it stores, with the errors it raises for a value of another
# field and for a value of no field. Equality is a door that answers None
# where the others raise.
DOORS = {
    "from_terms": (lambda k, c: Element.from_terms(LINE1, k, [(c, V1, V1)])._terms[V1, V1],
                   FieldMismatchError, FieldMismatchError),
    "Element.scale": (lambda k, c: Element.vertex(LINE1, k, "v1").scale(c)._terms[V1, V1],
                      FieldMismatchError, TypeError),
    "MatrixImage.scale": (
        lambda k, c: MatrixImage.identity(sink_basis(LINE1), k).scale(c).rows["v1"][0][0],
        FieldMismatchError, TypeError),
    "MatrixImage": (lambda k, c: MatrixImage(k, sink_basis(LINE1), {"v1": [[c]]}).rows["v1"][0][0],
                    FieldMismatchError, FieldMismatchError),
    "rank_factorization": (lambda k, c: rank_factorization(k, [[c]]).p[0][0].payload,
                           FieldMismatchError, FieldMismatchError),
    "FieldValue +": (lambda k, c: (k.zero + c).payload, FieldMismatchError, TypeError),
    "FieldValue ==": (lambda k, c: k._from_int(3) if k.from_int(3) == c else None, None, None),
}


class TestOneDoor:
    """Every outside value reaches a payload through ``Field._payload``: an
    int and a value of the field give one payload, a value of another field
    gets the one "mixed fields" message, and any other type is refused as
    each entry point always refused it."""

    @pytest.mark.parametrize("door, mismatch, refused", DOORS.values(), ids=DOORS)
    @pytest.mark.parametrize("k, other", [(Q, GF5), (GF5, GF25), (QI_ID, QI_CONJ)],
                             ids=lambda k: k.spec_string())
    def test_entry_point(self, door, mismatch, refused, k, other):
        assert door(k, 3) == door(k, k.from_int(3)) == k._from_int(3)
        if mismatch is None:
            assert door(k, other.from_int(3)) is None
        else:
            message = f"mixed fields: {k.spec_string()} and {other.spec_string()}"
            with pytest.raises(mismatch, match=f"^{re.escape(message)}$"):
                door(k, other.from_int(3))
        for bad in (1.0, "1", None):
            if refused is None:
                assert door(k, bad) is None
            else:
                with pytest.raises(refused) as caught:
                    door(k, bad)
                assert type(caught.value) is refused

    def test_start_up_loads_no_fractions(self):
        """Literals are read with ``int`` and ``gcd``, so importing the CLI
        loads neither ``fractions`` nor the ``decimal`` it imports."""
        src = pathlib.Path(leavitt.__file__).parent.parent
        child = "import sys, leavitt.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                                timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr[-500:]
