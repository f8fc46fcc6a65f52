import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import leavitt
import test_console
from leavitt import (
    Element,
    Graph,
    Rationals,
    cli,
    format_element,
    phi,
    standard_graph,
)
from leavitt.cli import main
from leavitt.decide import IMPROPER, full_report
from leavitt.fields import parse_field_spec
from leavitt.graphs import Edge, clock_graph, edge_by_id
from leavitt.io import format_graph, parse_graph, report_to_json, verify_claims

from conftest import FIVE_FIELDS, acyclic_corpus, ladder, random_element

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def line2_file(tmp_path):
    path = tmp_path / "line2.txt"
    path.write_text(format_graph(standard_graph("line", 2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
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


class TestExpressions:
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


class TestBrokenPipe:
    """A reader that went away ends the run in one stderr line and exit 1,
    whether the output fits stdout's buffer or not. The child's stdout is
    buffered, as it is by default: unbuffered, even the short output would
    meet the closed pipe inside main."""

    @pytest.mark.parametrize("size", ["2", "20000"])
    def test_one_line_and_exit_1(self, size):
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(pathlib.Path(leavitt.__file__).parent.parent)
        with open(write, "wb") as stdout:
            result = subprocess.run([sys.executable, "-m", "leavitt.cli", "construct", "line",
                                     size], stdout=stdout, stderr=subprocess.PIPE, env=env,
                                    timeout=120)
        assert (result.returncode, result.stderr) == (1, b"error: [Errno 32] Broken pipe\n")


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


def _holds_edge(value) -> bool:
    """Whether value is an ``Edge`` or a container that holds one, at any
    depth."""
    if isinstance(value, Edge):
        return True
    if isinstance(value, dict):
        return any(map(_holds_edge, value.items()))
    return isinstance(value, (list, tuple, set, frozenset)) and any(map(_holds_edge, value))


class TestVerdictGraphTables:
    """``decide --json`` and ``analyze --json`` build only the graph tables
    their verdict reads: positions, the id positions and the path counts. No
    ``Edge`` (``g.edges`` is not read), no out- or in-edge table and no
    special edges, also when ``decide`` builds an improper certificate,
    whose few paths are found by scanning the range positions and whose
    terms end in no common edge, so nothing is left to rewrite. No command
    builds an ``Edge``: the index holds positions only."""

    UNBUILT = {"outs", "ins", "special_ids", "edge_by_id", "out_edges", "in_edges", "vertices",
               "special"}

    GRAPHS = {"line3": standard_graph("line", 3), "rose1": standard_graph("rose", 1),
              "toeplitz": standard_graph("toeplitz"), "clock": clock_graph(2, 2)}

    def loaded(self, capsys, monkeypatch, *argv):
        """The graph that ``main`` loaded, with the exit code and the
        output."""
        loaded = []
        real_load = cli._load_graph
        monkeypatch.setattr(cli, "_load_graph",
                            lambda source: loaded.append(real_load(source)) or loaded[-1])
        code, out, err = run(capsys, *argv)
        assert err == "", argv
        (g,) = loaded
        return g, code, out

    def tables(self, capsys, monkeypatch, *argv):
        """The tables built on the graph that ``main`` loaded, with the
        exit code and the output."""
        g, code, out = self.loaded(capsys, monkeypatch, *argv)
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

    @pytest.mark.parametrize("argv", [
        ["nf", "--field", "Q", "-e", "e1.e1* + e2*.e2"],
        ["mul", "--field", "Q", "-e", "e1*", "-e", "e1"],
        ["star", "--field", "Q", "-e", "v2 + 2*e1"],
        ["phi", "--field", "Q", "-e", "e1.e1*"],
        ["witness", "regular", "--field", "Q", "-e", "e1"],
        ["witness", "projection", "--field", "GF(5)", "-e", "v2 + 2*e1"],
        ["witness", "unit", "--field", "Q", "-e", "v2 + 2*e1"],
        ["witness", "improper", "--field", "GF(5)"]], ids=" ".join)
    def test_element_commands_build_no_edge(self, capsys, monkeypatch, tmp_path, argv):
        # parsing, normalizing (with a CK2 rewrite for nf and phi), phi's
        # expansion and the sink bases read positions and columns only
        path = tmp_path / "line3.txt"
        path.write_text(format_graph(self.GRAPHS["line3"]))
        cut = 2 if argv[0] == "witness" else 1
        g, code, _ = self.loaded(capsys, monkeypatch, *argv[:cut], str(path), *argv[cut:])
        assert code == 0, argv
        assert "edges" not in vars(g), argv
        assert not any(map(_holds_edge, vars(g.index).values())), argv

    def test_reader_to_output_builds_no_edge(self):
        # the text reader hands the index its columns, and the verdict, the
        # improper certificate's path search and check, and both analyze
        # writers read columns and positions
        g = parse_graph(format_graph(self.GRAPHS["line3"]))
        report = full_report(g, parse_field_spec("GF(3)"))
        assert report.proper_algebra == IMPROPER
        assert report_to_json(report)["improper_certificate"] == "v3 + e2 + e1.e2"
        cli._json_text(cli._analyze_json(g))
        cli._analyze_text(g)
        assert "edges" not in vars(g) and not any(map(_holds_edge, vars(g.index).values()))
        # the control: reading the view builds it
        assert g.edges == (("e1", "v1", "v2"), ("e2", "v2", "v3"))
        assert edge_by_id(g)["e2"] == g.edges[1]
        assert "edges" in vars(g)

    def test_control_witness_regular_builds_outs_and_ins(self, capsys, monkeypatch,
                                                         tmp_path):
        # the sink basis enumerates every path along the in-edge table and
        # phi expands along the out-edge table, so the checks above can see
        # a table that is built
        path = tmp_path / "line3.txt"
        path.write_text(format_graph(self.GRAPHS["line3"]))
        tables, code, _ = self.tables(capsys, monkeypatch, "witness", "regular", str(path),
                                      "--field", "Q", "-e", "e1", "--json")
        assert code == 0 and {"ins", "outs"} <= tables


class TestMuDigitLimit:
    """``decide`` and ``analyze`` refuse, in one line that names
    ``MAX_MU_DIGITS``, a graph with a finite path count of more digits,
    before anything is printed: CPython would refuse to write it as text."""

    ARGVS = [["decide", "--field", "Q"], ["decide", "--field", "GF(3)", "--json"],
             ["analyze"], ["analyze", "--json"]]

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
        for name in ("format_report", "format_matrix_image", "_analyze_text"):
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
                     "_graph_json", "claims_to_json"):
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


class TestArgvReader:
    """main reads argv by one table, with no parser object, and carries no
    state from one call to the next."""

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


def _run_fresh_process(argv):
    src = pathlib.Path(leavitt.__file__).parent.parent
    result = subprocess.run([sys.executable, "-m", "leavitt.cli", *argv],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return result.returncode, result.stdout, result.stderr


# The tests this file held whose calls are now rows of test_console.CASES,
# kept under their old names so that a run or a record that names one still
# finds it: "Class.test" runs its row or rows, and a dict runs each
# parameter's row under the parameter's id. A class that holds nothing else
# is made here.
MOVED = {
    "TestAnalyze.test_text": "analyze",
    "TestAnalyze.test_json": "analyze-json",
    "TestDecide.test_matches_golden_text": {s: f"decide-{s}" for s in test_console.FIELDS},
    "TestDecide.test_matches_golden_json": {s: f"decide-{s}-json" for s in test_console.FIELDS},
    "TestDecide.test_unknown_is_exit_2": "decide-unknown-is-exit-2",
    "TestDecide.test_long_sink_first_line": "decide-long-line-sink-first",
    "TestExpressions.test_nf": "nf-ck1",
    "TestExpressions.test_nf_rewrites_inside_a_term": {
        "e1.e1*.e1-e1": "nf-rewrite-then-edge", "e1*.e1.e1*-e1*": "nf-rewrite-then-ghost",
        "0*e1.e1*.e1 + v2-v2": "nf-rewrite-zero-term"},
    "TestExpressions.test_mul": "mul",
    "TestExpressions.test_star": "star-conj",
    "TestExpressions.test_parse_error_is_exit_1": "nf-double-dot",
    "TestExpressions.test_empty_expression_is_one_line": {"-1": "nf-empty", "   -4": "nf-blank"},
    "TestExpressions.test_zero_denominator_is_exit_1": {
        "Q-1/0*e1": "mul-zero-denominator-Q",
        "Q[i]/conj-1/0i*e1": "mul-zero-denominator-Qi_conj",
        "Q[i]/id-1/0*e1": "mul-zero-denominator-Qi_id",
        "Q[i]/id-2+3/0i*e1": "mul-zero-denominator-Qi_id-imaginary"},
    "TestExpressions.test_expr_to_a_command_without_one_is_reported_as_typed": "decide-expr",
    "TestExpressions.test_phi": "phi-v2-json",
    "TestExpressions.test_phi_cyclic_is_exit_1": "phi-cycle",
    "TestWitness.test_improper": "witness-improper-GF2",
    "TestWitness.test_improper_none": "witness-improper-Q",
    "TestWitness.test_regular_json": "witness-regular-e1-json",
    "TestWitness.test_projection": "witness-projection-e1-json",
    "TestWitness.test_projection_not_star_regular": "witness-projection-GF5-json",
    "TestWitness.test_unit": "witness-unit-e1-json",
    "TestWitness.test_missing_expr_is_exit_1": "witness-regular-no-expr",
    "TestWitness.test_matches_golden": {
        f"{form}-{slug}-{kind}": f"witness-{kind}-{slug}{'-json' if form == 'json' else ''}"
        for form in ("json", "txt") for slug in ("GF5", "Q")
        for kind in ("improper", "projection", "regular", "unit")},
    "TestConstruct.test_line": "construct-line-3",
    "TestConstruct.test_rose_json": "construct-rose-2-json",
    "TestConstruct.test_toeplitz": "construct-toeplitz",
    "TestConstruct.test_mn": "construct-mn",
    "TestConstruct.test_ef": "construct-ef",
    "TestConstruct.test_wrong_parameter_count_is_one_line": {
        "line": "construct-line-two-sizes", "mn": "construct-mn-no-n",
        "ef": "construct-ef-no-edge"},
    "TestConstruct.test_bad_size_is_exit_1": "construct-line-size-0",
    "TestConstruct.test_non_integer_size_is_one_line": {
        size: f"construct-line-size-{size}" for size in ("x", "1.5", "-3")},
    "TestConstruct.test_oversize_is_one_line": {
        kind: f"construct-{kind}-oversize" for kind in ("line", "rose", "mn")},
    "TestConstruct.test_ef_of_a_long_line": "construct-ef-of-a-long-line",
    "TestConstruct.test_size_at_limit_builds": "construct-rose-at-the-limit",
    "TestOneLineErrors.test_exit_and_output": {
        "mul-negative-zero": "mul-negative-zero", "star-negative-vertex": "star-negative-vertex",
        "nf-long-option": "nf-long-option-negative-expr", "mul-both-negative": "mul-both-negative",
        "witness-negative": "witness-negative-expr", "missing-field": "decide-no-field",
        "missing-expr-value": "nf-expr-no-value",
        "negative-unknown-identifier": "nf-negative-unknown-identifier",
        "unknown-option": "decide-unknown-option", "unknown-command": "unknown-command",
        "mul-one-expr": "mul-one-expr"},
    "TestUsageErrors.test_missing_field_flag": "decide-no-field",
    "TestUsageErrors.test_unknown_command": "unknown-command",
    "TestUsageErrors.test_missing_file": "analyze-missing-file",
    "TestUsageErrors.test_bad_field_spec": "decide-bad-field",
    "TestUsageErrors.test_invalid_graph_file": "analyze-dangling-edge",
    "TestGoldens.test_analyze": {"txt": "analyze", "json": "analyze-json"},
    "TestGoldens.test_phi": {f"{form}-{slug}": f"phi-{slug}{'-json' if form == 'json' else ''}"
                             for form in ("json", "txt") for slug in ("GF5", "Q")},
    "TestByteOrderMark.test_text_file": "decide-bom-text",
    "TestByteOrderMark.test_json_file": "decide-bom-json",
    "TestByteOrderMark.test_stdin": "decide-bom-stdin",
    "TestByteOrderMark.test_only_one_mark_is_dropped": "decide-two-boms",
    "TestMuDigitLimit.test_refused_over_the_limit": {
        "argv0": "decide-mu-digits", "argv1": "decide-mu-digits-json",
        "argv2": "analyze-mu-digits", "argv3": "analyze-mu-digits-json"},
    "TestArgvReader.test_usage_error_texts": {
        "the following arguments are required0": "no-command",
        "the following arguments are required1": "decide-no-arguments",
        "argument --field": "decide-field-no-value", "argument -e/--expr": "nf-expr-no-value",
        "unrecognized arguments": "decide-expr", "argument command": "unknown-command",
        "argument kind": "witness-unknown-kind"},
    "TestHelp.test_an_error_before_help_is_reported": "witness-unknown-kind-before-help",
    "TestDoubleDash.test_graph_named_like_an_option": ("nf-graph-after-double-dash",
                                                       "nf-graph-named-like-an-option"),
    "TestDoubleDash.test_options_after_it_are_positionals": "nf-options-after-double-dash",
    "TestDoubleDash.test_command_after_it": "analyze-after-double-dash",
    "TestDoubleDash.test_an_expression_may_be_it": "nf-expr-double-dash",
    "TestConstructParams.test_options_between_positionals": {
        "argv0": "construct-json-before-size", "argv1": "construct-json-before-kind",
        "argv2": "construct-json-last"},
    "TestConstructParams.test_params_in_order": "construct-mn-json-between",
    "TestConstructParams.test_missing_kind": "construct-no-kind",
}


def _moved(rows):
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", rows.values(), ids=list(rows))
        def test(self, row, tmp_path, monkeypatch, capsys):
            test_console.check(row, tmp_path, monkeypatch, capsys)
    else:
        def test(self, tmp_path, monkeypatch, capsys):
            for row in [rows] if isinstance(rows, str) else rows:
                test_console.check(row, tmp_path, monkeypatch, capsys)
    return test


for _name, _rows in MOVED.items():
    _class, _test = _name.split(".")
    setattr(globals().setdefault(_class, type(_class, (), {})), _test, _moved(_rows))
