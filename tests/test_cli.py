import codecs
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import leavitt
from leavitt import (
    Element,
    Graph,
    Rationals,
    cli,
    format_element,
    parse_graph,
    phi,
    standard_graph,
)
from leavitt.cli import main
from leavitt.graphs import clock_graph
from leavitt.io import format_graph, graph_to_json, verify_claims

from conftest import FIVE_FIELDS, acyclic_corpus, ladder, random_element

GOLDEN = pathlib.Path(__file__).parent / "golden"

FIELD_SLUGS = {
    "Q": "Q",
    "Qi_id": "Q[i]/id",
    "Qi_conj": "Q[i]/conj",
    "GF3": "GF(3)",
    "GF5": "GF(5)",
}


@pytest.fixture
def line2_file(tmp_path):
    path = tmp_path / "line2.txt"
    path.write_text(format_graph(standard_graph("line", 2)))
    return str(path)


@pytest.fixture
def rose1_file(tmp_path):
    path = tmp_path / "rose1.txt"
    path.write_text(format_graph(standard_graph("rose", 1)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text(self, capsys, line2_file):
        code, out, _ = run(capsys, "analyze", line2_file)
        assert code == 0
        assert "sigma: 2" in out and "v2: sink" in out

    def test_json(self, capsys, line2_file):
        code, out, _ = run(capsys, "analyze", line2_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["acyclic"] is True and data["mu"] == {"v1": 1, "v2": 2}
        assert list(data) == ["vertices", "edges", "acyclic", "sinks", "mu", "sigma"]
        assert data["vertices"] == ["v1", "v2"]
        assert data["edges"] == [{"id": "e1", "src": "v1", "dst": "v2"}]


class TestDecide:
    @pytest.mark.parametrize("slug", sorted(FIELD_SLUGS))
    def test_matches_golden_text(self, capsys, line2_file, slug):
        code, out, _ = run(capsys, "decide", line2_file, "--field", FIELD_SLUGS[slug])
        assert code == 0
        assert out == (GOLDEN / f"decide_line2_{slug}.txt").read_text()

    @pytest.mark.parametrize("slug", sorted(FIELD_SLUGS))
    def test_matches_golden_json(self, capsys, line2_file, slug):
        code, out, _ = run(capsys, "decide", line2_file, "--field", FIELD_SLUGS[slug],
                           "--json")
        assert code == 0
        assert json.loads(out) == json.loads(
            (GOLDEN / f"decide_line2_{slug}.json").read_text())

    def test_unknown_is_exit_2(self, capsys, rose1_file):
        code, out, _ = run(capsys, "decide", rose1_file, "--field", "GF(2)")
        assert code == 2
        assert "proper_algebra: unknown" in out

    def test_exit_2_exactly_for_cyclic_unknown(self, capsys, tmp_path):
        from conftest import FIVE_FIELDS, corpus
        from leavitt import OMEGA, is_acyclic

        for name, g in corpus().items():
            path = tmp_path / f"{name}.txt"
            path.write_text(format_graph(g))
            for k in FIVE_FIELDS:
                code, _, _ = run(capsys, "decide", str(path), "--field",
                                 k.spec_string())
                expect_unknown = (not is_acyclic(g)
                                  and k.properness_level() is not OMEGA)
                assert code == (2 if expect_unknown else 0)

    def test_long_sink_first_line(self, capsys, tmp_path):
        n = 1500
        line = standard_graph("line", n)
        path = tmp_path / "sink_first.txt"
        path.write_text(format_graph(Graph(line.vertices[::-1], line.edges[::-1])))
        code, out, _ = run(capsys, "decide", str(path), "--field", "GF(5)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["sigma"] == n and data["proper_algebra"] == "improper"
        assert data["improper_certificate"] is not None


class TestExpressions:
    def test_nf(self, capsys, line2_file):
        code, out, _ = run(capsys, "nf", line2_file, "--field", "Q", "-e", "e1.e1*")
        assert code == 0 and out.strip() == "v1"

    @pytest.mark.parametrize("expr, out", [
        ("e1.e1*.e1", "e1"),
        ("e1*.e1.e1*", "e1*"),
        ("0*e1.e1*.e1 + v2", "v2"),
    ])
    def test_nf_rewrites_inside_a_term(self, capsys, line2_file, expr, out):
        # a CK2 rewrite in the middle of a term, followed by more factors
        code, stdout, _ = run(capsys, "nf", line2_file, "--field", "Q", "-e", expr)
        assert code == 0 and stdout == out + "\n"

    def test_mul(self, capsys, line2_file):
        code, out, _ = run(capsys, "mul", line2_file, "--field", "Q",
                           "-e", "e1*", "-e", "e1")
        assert code == 0 and out.strip() == "v2"

    def test_star(self, capsys, line2_file):
        code, out, _ = run(capsys, "star", line2_file, "--field", "Q[i]/conj",
                           "-e", "i*e1")
        assert code == 0 and out.strip() == "-i*e1*"

    def test_parse_error_is_exit_1(self, capsys, line2_file):
        code, _, err = run(capsys, "nf", line2_file, "--field", "Q", "-e", "e1..e2")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("expr, column", [("", 1), ("   ", 4)])
    def test_empty_expression_is_one_line(self, capsys, line2_file, expr, column):
        code, out, err = run(capsys, "nf", line2_file, "--field", "Q", "-e", expr)
        assert (code, out) == (1, "")
        assert err == f"error: column {column}: empty expression\n"

    @pytest.mark.parametrize("spec, expr", [
        ("Q", "1/0*e1"),
        ("Q[i]/conj", "1/0i*e1"),
        ("Q[i]/id", "1/0*e1"),
        ("Q[i]/id", "2+3/0i*e1"),
    ])
    def test_zero_denominator_is_exit_1(self, capsys, line2_file, spec, expr):
        code, out, err = run(capsys, "mul", line2_file, "--field", spec,
                             "-e", expr, "-e", "e1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "zero denominator" in err

    def test_expr_to_a_command_without_one_is_reported_as_typed(self, capsys,
                                                               line2_file):
        code, out, err = run(capsys, "decide", line2_file, "--field", "Q", "-e", "v1")
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: -e v1\n"

    def test_phi(self, capsys, line2_file):
        code, out, _ = run(capsys, "phi", line2_file, "--field", "Q", "-e", "v2",
                           "--json")
        assert code == 0
        assert json.loads(out) == [
            {"sink": "v2", "size": 2, "rows": [["1", "0"], ["0", "0"]]}
        ]

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_phi_makes_one_literal_per_nonzero(self, capsys, tmp_path, monkeypatch, fmt):
        # phi(a7) on the 8-rung ladder is one matrix unit of a 511 x 511
        # block: a literal per entry would be 261,121 calls
        g = ladder(8)
        path = tmp_path / "ladder8.txt"
        path.write_text(format_graph(g))
        blocks = phi(Element.edge(g, Rationals(), "a7")).blocks
        nonzeros = sum(1 for b in blocks.values() for row in b for x in row if x)
        calls = [0]
        literal = Rationals.literal

        def counted(self, x):
            calls[0] += 1
            return literal(self, x)

        monkeypatch.setattr(Rationals, "literal", counted)
        code, out, _ = run(capsys, "phi", str(path), "--field", "Q", "-e", "a7", *fmt)
        assert code == 0 and nonzeros == 1
        assert calls[0] <= nonzeros + 1

    def test_phi_cyclic_is_exit_1(self, capsys, rose1_file):
        code, _, err = run(capsys, "phi", rose1_file, "--field", "Q", "-e", "v")
        assert code == 1 and "cycle" in err


class TestWitness:
    def test_improper(self, capsys, line2_file):
        code, out, _ = run(capsys, "witness", "improper", line2_file,
                           "--field", "GF(2)")
        assert code == 0
        assert out.splitlines()[0] == "v2 + e1"
        assert "verified" in out

    def test_improper_none(self, capsys, line2_file):
        code, out, _ = run(capsys, "witness", "improper", line2_file, "--field", "Q")
        assert code == 0 and out.strip() == "none"

    def test_regular_json(self, capsys, line2_file):
        code, out, _ = run(capsys, "witness", "regular", line2_file, "--field", "Q",
                           "-e", "e1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "regular" and data["inverse"] == "e1*"
        assert data["verified"] is True

    def test_projection(self, capsys, line2_file):
        code, out, _ = run(capsys, "witness", "projection", line2_file,
                           "--field", "Q", "-e", "e1", "--json")
        data = json.loads(out)
        assert code == 0 and data["projection"] == "v1" and data["factor"] == "e1*"

    def test_projection_not_star_regular(self, capsys, line2_file):
        code, out, _ = run(capsys, "witness", "projection", line2_file,
                           "--field", "GF(5)", "-e", "v2 + 2*e1", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["kind"] == "not_star_regular"
        assert data["certificate"] == "v2 + 2*e1"

    def test_unit(self, capsys, line2_file):
        code, out, _ = run(capsys, "witness", "unit", line2_file, "--field", "Q",
                           "-e", "e1", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["u"] == "e1* + e1"
        assert data["verified"] is True

    def test_missing_expr_is_exit_1(self, capsys, line2_file):
        code, _, err = run(capsys, "witness", "regular", line2_file, "--field", "Q")
        assert code == 1

    # The same input a = v2 + 2*e1 for every kind: over GF(5) its projection
    # run ends in not_star_regular, and improper is "none" over Q.
    @pytest.mark.parametrize("kind", ["regular", "projection", "unit", "improper"])
    @pytest.mark.parametrize("slug", ["Q", "GF5"])
    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_matches_golden(self, capsys, line2_file, kind, slug, suffix):
        argv = ["witness", kind, line2_file, "--field", FIELD_SLUGS[slug]]
        if kind != "improper":
            argv += ["-e", "v2 + 2*e1"]
        if suffix == "json":
            argv.append("--json")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"witness_{kind}_line2_{slug}.{suffix}").read_text()


# claim types of each emitted witness kind, in the order the claims come
CLAIM_ORDER = {
    "regular": ["product_equals"],
    "projection": ["star_fixed", "product_equals", "product_equals", "product_equals"],
    "not_star_regular": ["nonzero", "star_product_zero"],
    "unit": ["product_equals"] * 5,
    "improper": ["nonzero", "star_product_zero"],
}


class TestWitnessClaimsRoundTrip:
    """The CLI emits claims without re-checking them; parse and check them
    here for every acyclic corpus graph and field."""

    @pytest.mark.parametrize("name", sorted(acyclic_corpus()))
    def test_claims_verify(self, capsys, tmp_path, name):
        g = acyclic_corpus()[name]
        path = tmp_path / f"{name}.txt"
        path.write_text(format_graph(g))
        for k in FIVE_FIELDS:
            rng = random.Random(f"{name}/{k.spec_string()}")
            runs = [["improper"]]
            for _ in range(2):
                expr = format_element(random_element(g, k, rng))
                runs += [[kind, "-e", expr] for kind in ("regular", "projection", "unit")]
            for kind, *expr in runs:
                code, out, err = run(capsys, "witness", kind, str(path),
                                     "--field", k.spec_string(), *expr, "--json")
                assert code == 0 and err == "", (name, k.spec_string(), kind, expr)
                data = json.loads(out)
                assert data["verified"] is True
                types = [c["type"] for c in data["claims"]]
                if data["kind"] == "improper" and data["certificate"] is None:
                    assert types == []
                else:
                    assert types == CLAIM_ORDER[data["kind"]]
                assert verify_claims(g, k, data["claims"])


class TestConstruct:
    def test_line(self, capsys):
        code, out, _ = run(capsys, "construct", "line", "3")
        assert code == 0
        assert parse_graph(out) == standard_graph("line", 3)

    def test_rose_json(self, capsys):
        code, out, _ = run(capsys, "construct", "rose", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["edges"]) == 2

    def test_toeplitz(self, capsys):
        code, out, _ = run(capsys, "construct", "toeplitz")
        assert code == 0
        assert parse_graph(out) == standard_graph("toeplitz")

    def test_mn(self, capsys, line2_file):
        code, out, _ = run(capsys, "construct", "mn", line2_file, "2")
        assert code == 0
        g = parse_graph(out)
        assert len(g.vertices) == 4 and len(g.edges) == 3

    def test_ef(self, capsys, line2_file):
        code, out, _ = run(capsys, "construct", "ef", line2_file, "e1")
        assert code == 0
        g = parse_graph(out)
        assert g.vertices == ("edge:e1", "vertex:v2")

    @pytest.mark.parametrize("params, message", [
        (["line", "2", "3"], "construct line takes at most one size"),
        (["mn", "{g}"], "construct mn needs GRAPH N"),
        (["ef", "{g}"], "construct ef needs GRAPH EDGE[,EDGE...]"),
    ], ids=["line", "mn", "ef"])
    def test_wrong_parameter_count_is_one_line(self, capsys, line2_file, params, message):
        code, out, err = run(capsys, "construct",
                             *[p.replace("{g}", line2_file) for p in params])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_size_is_exit_1(self, capsys):
        code, _, err = run(capsys, "construct", "line", "0")
        assert code == 1

    @pytest.mark.parametrize("size", ["x", "1.5", "-3"])
    def test_non_integer_size_is_one_line(self, capsys, size):
        code, out, err = run(capsys, "construct", "line", size)
        assert (code, out) == (1, "")
        assert err == f"error: size must be a positive integer, got {size!r}\n"

    # 10**12 vertices would exhaust memory long before printing; the limit is
    # checked before anything is built
    @pytest.mark.parametrize("argv", [
        ["line", str(10**12)],
        ["rose", str(10**12)],
        ["mn", "{g}", str(10**12)],
    ], ids=["line", "rose", "mn"])
    def test_oversize_is_one_line(self, capsys, line2_file, argv):
        code, out, err = run(capsys, "construct",
                             *[a.replace("{g}", line2_file) for a in argv])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "MAX_CONSTRUCT_SIZE" in err

    def test_ef_oversize_is_one_line(self, capsys, tmp_path, monkeypatch):
        # 317 loops all in F give 317**2 = 100489 edges; refused unbuilt
        path = tmp_path / "rose317.txt"
        path.write_text(format_graph(standard_graph("rose", 317)))
        monkeypatch.setattr(cli, "e_f_graph", _raise)
        code, out, err = run(capsys, "construct", "ef", str(path),
                             ",".join(f"e{i}" for i in range(1, 318)))
        assert (code, out) == (1, "")
        assert err == ("error: construct ef: output size 100489 exceeds "
                       "MAX_CONSTRUCT_SIZE = 100000\n")

    def test_ef_of_a_long_line(self, capsys, tmp_path):
        g = standard_graph("line", 3000)
        path = tmp_path / "line3000.txt"
        path.write_text(format_graph(g))
        code, out, err = run(capsys, "construct", "ef", str(path),
                             ",".join(e.id for e in g.edges))
        assert (code, err) == (0, "")
        names = [f"edge:e{i}" for i in range(1, 3000)] + ["vertex:v3000"]
        expected = Graph.build(names, [(f"({x},{y})", x, y) for x, y in zip(names, names[1:])])
        assert out == format_graph(expected)

    def test_size_at_limit_builds(self, capsys):
        code, out, _ = run(capsys, "construct", "rose", str(cli.MAX_CONSTRUCT_SIZE),
                           "--json")
        assert code == 0
        assert len(json.loads(out)["edges"]) == cli.MAX_CONSTRUCT_SIZE


class TestOneLineErrors:
    """Expressions starting with '-' are values, not options, and every
    exit 1 writes exactly one stderr line."""

    @pytest.mark.parametrize("argv, code, out", [
        pytest.param(["mul", "{g}", "--field", "GF(5)", "-e", "-0*e1", "-e", "e1"],
                     0, "0\n", id="mul-negative-zero"),
        pytest.param(["star", "{g}", "--field", "Q", "-e", "-v1"], 0, "-1*v1\n",
                     id="star-negative-vertex"),
        pytest.param(["nf", "{g}", "--field", "Q", "--expr", "-e1.e1*"], 0, "-1*v1\n",
                     id="nf-long-option"),
        pytest.param(["mul", "{g}", "--field", "Q", "-e", "-v2", "--expr", "-e1*.e1"],
                     0, "v2\n", id="mul-both-negative"),
        pytest.param(["witness", "regular", "{g}", "--field", "Q", "-e", "-e1"], 0,
                     "inverse: -1*e1*\nverified: a.b.a = a\n", id="witness-negative"),
        pytest.param(["decide", "{g}"], 1, "", id="missing-field"),
        pytest.param(["nf", "{g}", "--field", "Q", "-e"], 1, "", id="missing-expr-value"),
        pytest.param(["nf", "{g}", "--field", "Q", "-e", "-q1"], 1, "",
                     id="negative-unknown-identifier"),
        pytest.param(["decide", "{g}", "--field", "Q", "--bogus"], 1, "",
                     id="unknown-option"),
        pytest.param(["frobnicate"], 1, "", id="unknown-command"),
        pytest.param(["mul", "{g}", "--field", "GF(5)", "-e", "-0*e1"], 1, "",
                     id="mul-one-expr"),
    ])
    def test_exit_and_output(self, capsys, line2_file, argv, code, out):
        got_code, got_out, err = run(capsys, *[a.replace("{g}", line2_file) for a in argv])
        assert (got_code, got_out) == (code, out)
        if code == 1:
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""


class TestSelfCheckFailure:
    """An internal self-check that fails is an AssertionError, and the CLI
    reports it the way it reports a failed certificate: exit 1 and one
    stderr line."""

    def test_factorization_self_check_is_one_line(self, capsys, line2_file, monkeypatch):
        from leavitt import linalg

        monkeypatch.setattr(linalg, "_mul", lambda *args: [])
        code, out, err = run(capsys, "witness", "regular", line2_file,
                             "--field", "Q", "-e", "e1")
        assert (code, out) == (1, "")
        assert err == "error: rank factorization failed self-check\n"


class TestUsageErrors:
    def test_missing_field_flag(self, capsys, line2_file):
        code, _, _ = run(capsys, "decide", line2_file)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/graph.txt")
        assert code == 1

    def test_bad_field_spec(self, capsys, line2_file):
        code, _, err = run(capsys, "decide", line2_file, "--field", "R")
        assert code == 1

    def test_invalid_graph_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("edge e1 v1 v2\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1 and "dangling" in err


class TestGoldens:
    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_analyze(self, capsys, line2_file, suffix):
        argv = ["analyze", line2_file] + (["--json"] if suffix == "json" else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"analyze_line2.{suffix}").read_text()

    @pytest.mark.parametrize("slug", ["Q", "GF5"])
    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_phi(self, capsys, line2_file, slug, suffix):
        argv = ["phi", line2_file, "--field", FIELD_SLUGS[slug], "-e", "v1 + 3*v2 + 7*e1*"]
        code, out, err = run(capsys, *argv + (["--json"] if suffix == "json" else []))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"phi_line2_{slug}.{suffix}").read_text()


class TestByteOrderMark:
    """A graph may start with one UTF-8 byte order mark, as some editors
    write; the verdict is the one for the same graph without it."""

    def expected(self):
        return 0, (GOLDEN / "decide_line2_Q.txt").read_text(), ""

    def test_text_file(self, capsys, tmp_path):
        path = tmp_path / "line2.txt"
        path.write_bytes(codecs.BOM_UTF8
                         + format_graph(standard_graph("line", 2)).encode())
        assert run(capsys, "decide", str(path), "--field", "Q") == self.expected()

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "line2.json"
        path.write_bytes(codecs.BOM_UTF8
                         + json.dumps(graph_to_json(standard_graph("line", 2))).encode())
        assert run(capsys, "decide", str(path), "--field", "Q") == self.expected()

    def test_stdin(self, capsys, monkeypatch):
        text = "\ufeff" + format_graph(standard_graph("line", 2))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "decide", "-", "--field", "Q") == self.expected()

    def test_only_one_mark_is_dropped(self, capsys, monkeypatch):
        text = "\ufeff\ufeff" + format_graph(standard_graph("line", 2))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "decide", "-", "--field", "Q")
        assert (code, out) == (1, "") and err.startswith("error: line 1: ")


class TestJsonOutput:
    """``--json`` prints exactly ``json.dumps(value, indent=2)``, written
    without the stdlib's pure-Python indenting encoder."""

    def test_is_stdlib_indent_2_without_the_python_encoder(self, capsys, monkeypatch,
                                                           line2_file):
        q, gf5, a = ["--field", "Q"], ["--field", "GF(5)"], ["-e", "v2 + 2*e1"]
        expected = {}
        for argv in (["analyze", line2_file], ["decide", line2_file, *gf5],
                     ["nf", line2_file, *q, "-e", "e1.e1*"], ["star", line2_file, *q, *a],
                     ["mul", line2_file, *q, "-e", "e1*", "-e", "e1"],
                     ["phi", line2_file, *q, *a], ["witness", "regular", line2_file, *q, *a],
                     ["witness", "projection", line2_file, *gf5, *a],
                     ["witness", "unit", line2_file, *q, *a],
                     ["witness", "improper", line2_file, *gf5],
                     ["construct", "mn", line2_file, "2"]):
            code, out, err = expected[tuple(argv)] = run(capsys, *argv, "--json")
            assert (code, err) == (0, ""), argv
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        monkeypatch.setattr(json.encoder, "_make_iterencode", _raise)
        for argv, result in expected.items():
            assert run(capsys, *argv, "--json") == result, argv

    def test_without_the_c_accelerator(self, monkeypatch):
        value = {"a": [1, {"b": ()}], "c": "\u00e9"}
        expected = json.dumps(value, indent=2)
        monkeypatch.setattr(cli, "c_make_encoder", None)
        assert cli._json_text(value) == expected


class TestVerdictGraphTables:
    """``decide --json`` and ``analyze --json`` build only the graph tables
    their verdict reads: positions, the edge lookup and the path counts. No
    out- or in-edge table, no vertex set and no special edges, also when
    ``decide`` builds an improper certificate, whose few paths are found by
    scanning the edges and whose terms end in no common edge, so nothing is
    left to rewrite."""

    UNBUILT = {"out_edges", "in_edges", "vertices", "special", "special_ids"}

    GRAPHS = {"line3": standard_graph("line", 3), "rose1": standard_graph("rose", 1),
              "toeplitz": standard_graph("toeplitz"), "clock": clock_graph(2, 2)}

    def tables(self, capsys, monkeypatch, *argv):
        """The tables built on the graph that ``main`` loaded, with the
        exit code and the output."""
        loaded = []
        real_load = cli._load_graph
        monkeypatch.setattr(cli, "_load_graph",
                            lambda source: loaded.append(real_load(source)) or loaded[-1])
        code, out, err = run(capsys, *argv)
        assert err == "", argv
        (g,) = loaded
        return set(vars(g.index)), code, out

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("argv", [["analyze"], ["decide", "--field", "Q"],
                                      ["decide", "--field", "Q[i]/id"],
                                      ["decide", "--field", "GF(3)"]])
    def test_builds_no_in_edges_or_special(self, capsys, monkeypatch, tmp_path, name,
                                           argv):
        path = tmp_path / f"{name}.txt"
        path.write_text(format_graph(self.GRAPHS[name]))
        tables, code, _ = self.tables(capsys, monkeypatch, argv[0], str(path), *argv[1:],
                                      "--json")
        assert code in (0, 2), (name, argv)
        assert not tables & self.UNBUILT, (name, argv)
        assert "_path_counts" in tables, (name, argv)

    def test_improper_certificate_builds_neither(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "line3.txt"
        path.write_text(format_graph(self.GRAPHS["line3"]))
        tables, code, out = self.tables(capsys, monkeypatch, "decide", str(path),
                                        "--field", "Q[i]/id", "--json")
        assert (code, json.loads(out)["improper_certificate"]) == (0, "v2 + i*e1")
        assert not tables & self.UNBUILT

    def test_control_witness_regular_builds_in_edges(self, capsys, monkeypatch, tmp_path):
        # the sink basis enumerates every path along the in-edge table, phi
        # expands along the out-edge table and the expression parser reads
        # the vertex set, so the checks above can see a table that is built
        path = tmp_path / "line3.txt"
        path.write_text(format_graph(self.GRAPHS["line3"]))
        tables, code, _ = self.tables(capsys, monkeypatch, "witness", "regular", str(path),
                                      "--field", "Q", "-e", "e1", "--json")
        assert code == 0 and {"in_edges", "out_edges", "vertices"} <= tables


class TestMuDigitLimit:
    """``decide`` and ``analyze`` refuse, in one line that names
    ``MAX_MU_DIGITS``, a graph with a finite path count of more digits,
    before anything is printed: CPython would refuse to write it as text."""

    ARGVS = [["decide", "--field", "Q"], ["decide", "--field", "GF(3)", "--json"],
             ["analyze"], ["analyze", "--json"]]

    @pytest.fixture(scope="class")
    def ladder_15000(self, tmp_path_factory):
        # mu(v_i) = 2^(i+1) - 1, so mu(v14284) is the first with 4301 digits
        path = tmp_path_factory.mktemp("ladder") / "ladder.txt"
        path.write_text(format_graph(ladder(15_000)))
        return str(path)

    @pytest.mark.parametrize("argv", ARGVS)
    def test_refused_over_the_limit(self, capsys, ladder_15000, argv):
        code, out, err = run(capsys, argv[0], ladder_15000, *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: mu(v14284) has more than MAX_MU_DIGITS = 4300 digits\n"

    @pytest.mark.parametrize("argv", ARGVS)
    @pytest.mark.parametrize("rungs, cycle", [(15, False), (16, False), (16, True)])
    def test_boundary(self, capsys, monkeypatch, tmp_path, argv, rungs, cycle):
        # 2^16 - 1 = 65535 has five digits and is the first count of more
        # than 15 bits, so it is compared in full; 2^17 - 1 has six
        monkeypatch.setattr(cli, "MAX_MU_DIGITS", 5)
        g = ladder(rungs)
        if cycle:
            # a loop elsewhere: mu is omega there, and finite on the ladder
            g = Graph.build(g.vertices + ("w",), [*g.edges, ("l", "w", "w")])
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        if rungs == 15:
            assert code == 0 and err == "" and "65535" in out
        else:
            assert (code, out) == (1, "")
            assert err == "error: mu(v16) has more than MAX_MU_DIGITS = 5 digits\n"


def _raise(*args, **kwargs):
    raise RuntimeError("renderer of the form not asked for was called")


class TestRendersOnlyRequestedForm:
    """Each command runs the renderer of the form asked for and no other."""

    def test_json_skips_text_renderers(self, capsys, monkeypatch, line2_file):
        for name in ("format_report", "format_matrix_image", "classify_vertex"):
            monkeypatch.setattr(cli, name, _raise)
        for argv, golden in (
            (["decide", line2_file, "--field", "Q"], "decide_line2_Q.json"),
            (["phi", line2_file, "--field", "Q", "-e", "v1 + 3*v2 + 7*e1*"],
             "phi_line2_Q.json"),
            (["analyze", line2_file], "analyze_line2.json"),
        ):
            assert run(capsys, *argv, "--json") == (0, (GOLDEN / golden).read_text(), "")

    def test_text_skips_json_renderers(self, capsys, monkeypatch, line2_file):
        for name in ("report_to_json", "matrix_image_to_json", "graph_to_json",
                     "claims_to_json"):
            monkeypatch.setattr(cli, name, _raise)
        for argv, golden in (
            (["decide", line2_file, "--field", "Q"], "decide_line2_Q.txt"),
            (["phi", line2_file, "--field", "Q", "-e", "v1 + 3*v2 + 7*e1*"],
             "phi_line2_Q.txt"),
            (["analyze", line2_file], "analyze_line2.txt"),
            (["witness", "unit", line2_file, "--field", "Q", "-e", "v2 + 2*e1"],
             "witness_unit_line2_Q.txt"),
        ):
            assert run(capsys, *argv) == (0, (GOLDEN / golden).read_text(), "")


# The usage errors, each with argparse's text for it.
COMMAND_CHOICES = ("'analyze', 'decide', 'nf', 'star', 'mul', 'phi', 'witness', "
                   "'construct'")
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["decide"], "the following arguments are required: --field, graph"),
    (["decide", "line2.txt", "--field"], "argument --field: expected one argument"),
    (["nf", "line2.txt", "--field", "Q", "-e"], "argument -e/--expr: expected one argument"),
    (["decide", "line2.txt", "--field", "Q", "-e", "v1"], "unrecognized arguments: -e v1"),
    (["frobnicate"],
     f"argument command: invalid choice: 'frobnicate' (choose from {COMMAND_CHOICES})"),
    (["witness", "bogus", "line2.txt", "--field", "Q"],
     "argument kind: invalid choice: 'bogus' "
     "(choose from 'regular', 'projection', 'improper', 'unit')"),
]


class TestArgvReader:
    """main reads argv by one table, with no parser object, and carries no
    state from one call to the next."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                             ids=[m.split(":")[0] for _, m in USAGE_ERRORS])
    def test_usage_error_texts(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_import_loads_no_argparse(self):
        src = pathlib.Path(leavitt.__file__).parent.parent
        code = "import sys, leavitt.cli; print('argparse' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": str(src)},
                                timeout=120)
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr

    def test_reading_argv_makes_few_calls(self, monkeypatch):
        # main up to its check of the -e count, profiled after one warm call
        class Read(Exception):
            pass

        def stop(args):
            raise Read

        monkeypatch.setattr(cli, "_expressions", stop)
        argv = ["witness", "unit", "G", "--field", "Q", "-e", "v2 + 2*e1", "--json"]
        with pytest.raises(Read):
            main(argv)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            with pytest.raises(Read):
                main(argv)
        finally:
            sys.setprofile(None)
        assert len(calls) <= 30, calls

    def test_calls_match_fresh_processes(self, capsys, line2_file):
        mul = ["mul", line2_file, "--field", "Q", "-e", "e1*", "-e", "e1"]
        argvs = [
            mul,
            ["decide", line2_file],
            ["--help"],
            ["witness", "unit", line2_file, "--field", "Q", "-e", "v2 + 2*e1", "--json"],
            mul,
            ["decide", line2_file, "--field", "GF(5)"],
            ["mul", "--help"],
            ["decide", line2_file, "--field", "GF(5)", "--json"],
        ]
        fresh = {}
        for argv in argvs:
            key = tuple(argv)
            if key not in fresh:
                fresh[key] = _run_fresh_process(argv)

        for i in range(20):
            argv = argvs[i % len(argvs)]
            got = run(capsys, *argv)
            assert got == fresh[tuple(argv)], argv
            if argv is mul:
                # exactly the two -e values are read, on every call
                assert got == (0, "v2\n", "")


class TestHelp:
    """-h and --help print a usage text built from the command table to
    stdout and exit 0; the text does not depend on the terminal width."""

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["-h", "frobnicate"]])
    def test_top_level(self, capsys, monkeypatch, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: leavitt [-h] COMMAND ...\n")
        for name, (_, _, text) in cli._COMMANDS.items():
            assert f"  {name:<11}{text}\n" in out
        monkeypatch.setenv("COLUMNS", "20")
        assert run(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("command", ["analyze", "decide", "nf", "star", "mul", "phi",
                                         "witness", "construct"])
    def test_each_command(self, capsys, command):
        # help stops the reading, so missing arguments are not reported
        code, out, err = run(capsys, command, "--json", "-h", "--bogus")
        assert (code, err) == (0, "")
        usage = out.splitlines()[0]
        assert usage.startswith(f"usage: leavitt {command} ")
        positionals, options, _ = cli._COMMANDS[command]
        for name in positionals + options + ("--json", "-h/--help"):
            assert cli._ARG_HELP[name][0] in usage
        for kind in cli._KINDS.get(command, ()):
            assert kind in out

    def test_an_error_before_help_is_reported(self, capsys):
        code, out, err = run(capsys, "witness", "bogus", "--help")
        assert (code, out) == (1, "") and err.startswith("error: argument kind: ")


class TestDoubleDash:
    """``--`` ends the options (the POSIX rule): every later token is a
    positional."""

    def test_graph_named_like_an_option(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-g.txt").write_text(format_graph(standard_graph("line", 2)))
        assert run(capsys, "nf", "--field", "Q", "-e", "e1.e1*", "--", "-g.txt") == \
            (0, "v1\n", "")
        # without it, -g.txt is an unknown option and the graph is missing
        code, out, err = run(capsys, "nf", "--field", "Q", "-e", "e1.e1*", "-g.txt")
        assert (code, out, err) == (1, "", "error: the following arguments are required: graph\n")

    def test_options_after_it_are_positionals(self, capsys, line2_file):
        code, out, err = run(capsys, "nf", line2_file, "--field", "Q", "-e", "v1",
                             "--", "--json", "-h")
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --json -h\n")

    def test_command_after_it(self, capsys, line2_file):
        expected = run(capsys, "analyze", line2_file)
        assert expected[0] == 0
        assert run(capsys, "--", "analyze", line2_file) == expected

    def test_an_expression_may_be_it(self, capsys, line2_file):
        code, out, err = run(capsys, "nf", line2_file, "--field", "Q", "-e", "--")
        assert (code, out, err) == (1, "", "error: column 2: expected an identifier\n")


class TestConstructParams:
    """construct's PARAMS are every positional after KIND, with options
    anywhere between them."""

    @pytest.mark.parametrize("argv", [
        ["construct", "line", "--json", "3"],
        ["construct", "--json", "line", "3"],
        ["construct", "line", "3", "--json"],
    ])
    def test_options_between_positionals(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["vertices"] == ["v1", "v2", "v3"]

    def test_params_in_order(self, capsys, line2_file):
        code, out, err = run(capsys, "construct", "mn", line2_file, "--json", "2")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["vertices"]) == 4

    def test_missing_kind(self, capsys):
        assert run(capsys, "construct") == \
            (1, "", "error: the following arguments are required: kind\n")


def _run_fresh_process(argv):
    src = pathlib.Path(leavitt.__file__).parent.parent
    result = subprocess.run([sys.executable, "-m", "leavitt.cli", *argv],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return result.returncode, result.stdout, result.stderr
