import ast
import os
import pathlib
import subprocess
import sys

import pytest

import leavitt
from leavitt import witness
from leavitt import (
    AlgebraError,
    CertificateError,
    CyclicGraphError,
    Element,
    FieldMismatchError,
    GaussianRationals,
    Graph,
    NotStarRegularError,
    PrimeField,
    Rationals,
    UnitDataError,
    UnknownClaimError,
    extend_to_unit,
    graph_union,
    improper_element,
    is_star_regular,
    phi,
    projection_generator,
    regular_witness,
    relabel_graph,
    sink_basis,
    sink_normal_form,
    standard_graph,
    unit_regular_witness,
    verify_improper,
    verify_inner_inverse,
    verify_projection,
    verify_unit_regular,
)
from leavitt.io import format_graph

from conftest import acyclic_corpus, corpus, ladder, paths_built, random_element

Q = Rationals()
QI_ID = GaussianRationals(conjugation=False)
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
LINE2 = standard_graph("line", 2)


def v(g, k, name):
    return Element.vertex(g, k, name)


def e(g, k, name):
    return Element.edge(g, k, name)


class TestRegularWitness:
    def test_vertex_is_its_own_inverse(self):
        for name in LINE2.vertices:
            a = v(LINE2, Q, name)
            assert regular_witness(LINE2, Q, a) == a

    def test_edge_inverse_is_ghost(self):
        a = e(LINE2, Q, "e1")
        assert regular_witness(LINE2, Q, a) == a.star()

    def test_zero(self):
        assert regular_witness(LINE2, Q, Element.zero(LINE2, Q)).is_zero

    def test_random(self, rng):
        for g in acyclic_corpus().values():
            for k in (Q, PrimeField(3)):
                for _ in range(15):
                    a = random_element(g, k, rng)
                    b = regular_witness(g, k, a)
                    assert verify_inner_inverse(a, b)

    def test_cyclic_rejected(self):
        # every builder expands a through ``_phi_rows``, which refuses a
        # cyclic graph before any expansion: on a cycle it would not end
        for name, n in (("rose", 1), ("toeplitz", 1), ("rose", 2)):
            g = standard_graph(name, n)
            for build in (regular_witness, projection_generator, unit_regular_witness):
                with pytest.raises(CyclicGraphError) as exc:
                    build(g, Q, v(g, Q, g.vertices[0]))
                assert str(exc.value) == "graph has a cycle", (name, build.__name__)


ROSE_BESIDE_LINE2 = graph_union(relabel_graph(standard_graph("rose", 1), "r"), LINE2)


@pytest.mark.parametrize("call", [
    phi, sink_normal_form, lambda a: sink_basis(a.graph),
    lambda a: regular_witness(a.graph, Q, a),
    lambda a: projection_generator(a.graph, Q, a),
    lambda a: unit_regular_witness(a.graph, Q, a),
], ids=["phi", "sink_normal_form", "sink_basis", "regular", "projection", "unit"])
def test_cyclic_refused_when_the_element_avoids_the_cycle(call):
    # e1's expansion never meets the loop, so without an acyclicity check
    # these would return a result (on rose 1 alone they would hang)
    with pytest.raises(CyclicGraphError) as exc:
        call(e(ROSE_BESIDE_LINE2, Q, "e1"))
    assert str(exc.value) == "graph has a cycle"


class TestProjectionGenerator:
    def test_line2_edge(self):
        a = e(LINE2, Q, "e1")
        cert = projection_generator(LINE2, Q, a)
        assert cert.p == v(LINE2, Q, "v1")
        assert cert.factor == a.star()
        assert verify_projection(a, cert)

    def test_vertex(self):
        a = v(LINE2, Q, "v1")
        cert = projection_generator(LINE2, Q, a)
        assert cert.p == a

    def test_improper_case_raises_with_certificate(self):
        a = v(LINE2, GF5, "v2") + e(LINE2, GF5, "e1").scale(2)
        with pytest.raises(NotStarRegularError) as err:
            projection_generator(LINE2, GF5, a)
        cert = err.value.certificate
        assert cert == a  # the canonical improper element happens to be a itself
        assert verify_improper(cert)

    def test_random_on_star_regular_instances(self, rng):
        for g in acyclic_corpus().values():
            for k in (Q, GaussianRationals(conjugation=True)):
                assert is_star_regular(g, k)
                for _ in range(10):
                    a = random_element(g, k, rng)
                    cert = projection_generator(g, k, a)
                    assert verify_projection(a, cert)


class TestImproperElement:
    def test_line2_gf2(self):
        assert improper_element(LINE2, GF2) == v(LINE2, GF2, "v2") + e(LINE2, GF2, "e1")

    def test_line2_gaussian_identity(self):
        got = improper_element(LINE2, QI_ID)
        expected = v(LINE2, QI_ID, "v2") + e(LINE2, QI_ID, "e1").scale(QI_ID.i)
        assert got == expected
        assert verify_improper(got)

    def test_line2_rationals_none(self):
        assert improper_element(LINE2, Q) is None

    def test_none_exactly_when_star_regular(self):
        from conftest import FIVE_FIELDS

        for g in acyclic_corpus().values():
            for k in FIVE_FIELDS:
                got = improper_element(g, k)
                if is_star_regular(g, k):
                    assert got is None
                else:
                    assert got is not None and verify_improper(got)

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            improper_element(standard_graph("rose", 1), GF2)

    def test_builds_only_the_paths_it_uses(self):
        # rung j feeds both vertices of rung j-1, so a01, the least vertex
        # id, ends about 2^40 paths; the certificate needs three of them
        rungs = 40
        vertices = [f"{s}{j:02d}" for j in range(1, rungs + 1) for s in "ab"]
        edges = [(f"{s}{t}{j:02d}", f"{s}{j + 1:02d}", f"{t}{j:02d}")
                 for j in range(1, rungs) for s in "ab" for t in "ab"]
        g = Graph.build(vertices, edges)
        got = improper_element(g, GF3)
        assert len(got) == 3 and verify_improper(got)
        assert got == v(g, GF3, "a01") + e(g, GF3, "aa01") + e(g, GF3, "ba01")


class TestUnitRegularWitness:
    def test_zero_gets_identity(self):
        cert = unit_regular_witness(LINE2, Q, Element.zero(LINE2, Q))
        one = Element.one(LINE2, Q)
        assert cert.u == one and cert.u_prime == one and cert.v == one

    def test_golden_edge_witness(self):
        a = e(LINE2, Q, "e1")
        cert = unit_regular_witness(LINE2, Q, a)
        assert cert.u == a + a.star()
        assert verify_unit_regular(a, cert)

    def test_vertex(self):
        a = v(LINE2, Q, "v1")
        cert = unit_regular_witness(LINE2, Q, a)
        assert cert.u == Element.one(LINE2, Q)
        assert cert.u_prime == Element.one(LINE2, Q)

    def test_random(self, rng):
        for g in acyclic_corpus().values():
            for k in (Q, PrimeField(3)):
                for _ in range(10):
                    a = random_element(g, k, rng)
                    cert = unit_regular_witness(g, k, a)
                    assert verify_unit_regular(a, cert)


class TestWorkGate:
    """The builders work on payload rows from end to end: no FieldValue is
    built and no dense matrix is read or made, and the certificates still
    verify."""

    CASES = (("btree", "GF(3,2)", "2*c3.c1 + c5.c2 + t*c1* + n2"),
             ("union_3_2", "Q[i]/conj", "v1 + 1+i*e1.e2 - 2*e2* + wv1"),
             ("line5", "Q", "1/2*e1.e2.e3 + e4* - e1 + v3"))

    @staticmethod
    def forbid(monkeypatch, owner, name):
        def boom(*args, **kwargs):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(owner, name, boom)

    def test_no_field_values_and_no_dense_blocks(self, monkeypatch):
        from leavitt import fields, linalg, parse_element, parse_field_spec, semisimple

        graphs = corpus()
        cases = [(graphs[name], parse_field_spec(spec)) for name, spec, _ in self.CASES]
        elements = [parse_element(text, g, k)
                    for (g, k), (_, _, text) in zip(cases, self.CASES)]
        for owner in (linalg, semisimple):
            for name in ("_sparse", "_dense"):
                if hasattr(owner, name):
                    self.forbid(monkeypatch, owner, name)
        self.forbid(monkeypatch, fields.FieldValue, "__init__")
        certs = [(regular_witness(g, k, a), unit_regular_witness(g, k, a),
                  projection_generator(g, k, a))
                 for (g, k), a in zip(cases, elements)]
        monkeypatch.undo()
        for a, (b, unit, proj) in zip(elements, certs):
            assert verify_inner_inverse(a, b)
            assert verify_unit_regular(a, unit)
            assert verify_projection(a, proj)

    def test_projection_factors_each_block_twice(self, monkeypatch):
        from leavitt import linalg, parse_element, parse_field_spec
        from leavitt.semisimple import _phi_rows

        graphs = corpus()
        cases = [(graphs[name], parse_field_spec(spec), text)
                 for name, spec, text in self.CASES]
        cases.append((LINE2, Q, "e1"))
        calls = []
        factor = linalg._factor

        def counted(*args):
            calls.append(None)
            return factor(*args)

        monkeypatch.setattr(linalg, "_factor", counted)
        monkeypatch.setattr(witness, "_factor", counted)
        self.forbid(monkeypatch, witness, "verify_inner_inverse")
        for g, k, text in cases:
            a = parse_element(text, g, k)
            calls.clear()
            cert = projection_generator(g, k, a)
            assert len(calls) == 2 * len(_phi_rows(a)), text
            assert verify_projection(a, cert)

    def test_regular_multiplies_once_per_block(self, monkeypatch):
        # B = Q^-1 (D P^-1), and D P^-1 is read off P^-1 without a product
        from leavitt import parse_element, parse_field_spec
        from leavitt.semisimple import _phi_rows

        graphs = corpus()
        cases = [(graphs[name], parse_field_spec(spec), text)
                 for name, spec, text in self.CASES]
        cases.append((LINE2, Q, "e1"))
        calls = []
        mul = witness._mul

        def counted(*args):
            calls.append(None)
            return mul(*args)

        monkeypatch.setattr(witness, "_mul", counted)
        for g, k, text in cases:
            a = parse_element(text, g, k)
            calls.clear()
            b = regular_witness(g, k, a)
            assert len(calls) == len(_phi_rows(a)), text
            assert verify_inner_inverse(a, b)


class TestOnlyReachedBlocks:
    """Beside the 10-rung ladder (one 2047-row block), a witness of the
    separate edge f: x -> y works on f's 2x2 block alone."""

    @staticmethod
    def case():
        from leavitt import parse_element

        lad = ladder(10)
        g = Graph.build(lad.vertices + ("x", "y"),
                        [(e.id, e.src, e.dst) for e in lad.edges] + [("f", "x", "y")])
        return g, parse_element("f", g, Q)

    @pytest.mark.parametrize("build, rows", [(regular_witness, 2),
                                             (projection_generator, 4),
                                             (unit_regular_witness, 2)],
                             ids=lambda x: getattr(x, "__name__", x))
    def test_rows_factored(self, monkeypatch, build, rows):
        from leavitt import linalg

        g, a = self.case()
        seen = []
        factor = linalg._factor

        def counted(field, block, m, n):
            seen.append(len(block))
            return factor(field, block, m, n)

        monkeypatch.setattr(linalg, "_factor", counted)
        monkeypatch.setattr(witness, "_factor", counted)
        build(g, Q, a)
        assert sum(seen) == rows

    @pytest.mark.parametrize("build", [regular_witness, projection_generator,
                                       unit_regular_witness],
                             ids=lambda build: build.__name__)
    def test_paths_built(self, build):
        # the paths into y and, for unit, Element.one's trivial paths: the
        # 2,047 paths into the ladder's sink, which f misses, are never built
        g, a = self.case()
        _, built = paths_built(lambda: build(g, Q, a))
        assert built <= 32

    def test_unit_maps_back_only_the_block_of_f(self, monkeypatch):
        from leavitt import semisimple

        g, a = self.case()
        raw_counts = []
        normalize = semisimple._normalize_terms

        def counted(g, field, raw):
            raw_counts.append(len(raw))
            return normalize(g, field, raw)

        monkeypatch.setattr(semisimple, "_normalize_terms", counted)
        cert = unit_regular_witness(g, Q, a)
        monkeypatch.undo()
        assert len(raw_counts) == 2 and max(raw_counts) <= 4
        one = Element.one(g, Q)
        assert cert.u == cert.u_prime == one - v(g, Q, "x") - v(g, Q, "y") + a + a.star()


class TestOperandCheck:
    """A builder refuses an element of another field or graph than its own
    before it expands the element to its blocks."""

    BUILDERS = [regular_witness, projection_generator, unit_regular_witness]

    @pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__)
    @pytest.mark.parametrize("g, k, error", [(LINE2, GF5, FieldMismatchError),
                                             (standard_graph("line", 3), Q, AlgebraError)],
                             ids=["other_field", "other_graph"])
    def test_mismatch_refused_before_the_blocks(self, monkeypatch, build, g, k, error):
        def no_blocks(a):
            raise AssertionError("_phi_rows reached")

        monkeypatch.setattr(witness, "_phi_rows", no_blocks)
        with pytest.raises(error):
            build(g, k, e(LINE2, Q, "e1"))

    @pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__)
    def test_equal_graph_object_accepted(self, build):
        twin = Graph.build(LINE2.vertices, [(x.id, x.src, x.dst) for x in LINE2.edges])
        assert twin is not LINE2 and twin == LINE2
        build(twin, Q, e(LINE2, Q, "e1"))


class TestExtendToUnit:
    def test_full_identity_leaves_u(self):
        a = e(LINE2, Q, "e1")
        cert = unit_regular_witness(LINE2, Q, a)
        w, w_prime = extend_to_unit(LINE2, cert.u, cert.u_prime, cert.v)
        assert w == cert.u and w_prime == cert.u_prime

    def test_idempotent_corner(self):
        v1 = v(LINE2, Q, "v1")
        w, w_prime = extend_to_unit(LINE2, v1, v1, v1)
        one = Element.one(LINE2, Q)
        assert w == one and w_prime == one

    def test_unit_property(self, rng):
        one = Element.one(LINE2, Q)
        for _ in range(10):
            a = random_element(LINE2, Q, rng)
            cert = unit_regular_witness(LINE2, Q, a)
            w, w_prime = extend_to_unit(LINE2, cert.u, cert.u_prime, cert.v)
            assert w * w_prime == one and w_prime * w == one
            assert a * w * a == a

    def test_precondition_checked(self):
        # u is not inverse to u' over this v
        v1 = v(LINE2, Q, "v1")
        v2 = v(LINE2, Q, "v2")
        with pytest.raises(UnitDataError, match="not mutually inverse over v"):
            extend_to_unit(LINE2, v1, v1, v2)
        assert issubclass(UnitDataError, ValueError)

    def test_outside_the_corner_is_unit_data_error(self):
        # u u' = v holds but u sticks out of the corner of v
        v1 = v(LINE2, Q, "v1")
        v2 = v(LINE2, Q, "v2")
        with pytest.raises(UnitDataError, match="do not live in the corner of v"):
            extend_to_unit(LINE2, v1 + v2, v1, v1)


class TestCheckClaims:
    def test_unknown_claim_type_is_named(self):
        with pytest.raises(UnknownClaimError, match="unknown claim type 'bogus'"):
            witness.check_claims([("bogus", v(LINE2, Q, "v1"))])
        assert issubclass(UnknownClaimError, ValueError)


# Run under ``python -O`` with the claim evaluator patched to reject every
# claim; prints "ok" only if each builder and the CLI still fail loudly.
_OPTIMIZED_CHILD = """
import contextlib, io, sys
from leavitt import CertificateError, Element, PrimeField, Rationals, standard_graph, witness
from leavitt.cli import main

if sys.flags.optimize != 1:
    sys.exit("not running under -O")
witness.check_claims = lambda claims: False
g = standard_graph("line", 2)
Q = Rationals()
a = Element.edge(g, Q, "e1")
builders = {
    "regular_witness": lambda: witness.regular_witness(g, Q, a),
    "unit_regular_witness": lambda: witness.unit_regular_witness(g, Q, a),
    "projection_generator": lambda: witness.projection_generator(g, Q, a),
    "improper_element": lambda: witness.improper_element(g, PrimeField(5)),
}
for name, build in builders.items():
    try:
        build()
    except CertificateError:
        continue
    sys.exit(name + " returned without CertificateError")
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["witness", "regular", sys.argv[1], "--field", "Q", "-e", "e1"])
if code != 1 or out.getvalue() or err.getvalue().count("\\n") != 1:
    sys.exit(f"cli: exit {code}, stdout {out.getvalue()!r}, stderr {err.getvalue()!r}")
print("ok")
"""


class TestChecksWithoutAsserts:
    def test_failed_claims_raise_certificate_error(self, monkeypatch):
        a = e(LINE2, Q, "e1")
        cert = unit_regular_witness(LINE2, Q, a)
        monkeypatch.setattr(witness, "check_claims", lambda claims: False)
        with pytest.raises(CertificateError, match="inner inverse"):
            regular_witness(LINE2, Q, a)
        with pytest.raises(CertificateError, match="mutually inverse"):
            extend_to_unit(LINE2, cert.u, cert.u_prime, cert.v)
        # callers that catch the parent exception type still see the failure
        with pytest.raises(AssertionError):
            improper_element(LINE2, GF5)

    def test_certificate_checks_survive_optimize(self, tmp_path):
        path = tmp_path / "line2.txt"
        path.write_text(format_graph(LINE2))
        src = pathlib.Path(leavitt.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHILD, str(path)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr

    def test_no_assert_statements_in_library(self):
        package = pathlib.Path(leavitt.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
        assert found == []
