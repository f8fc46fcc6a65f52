"""The console cases: each row is one ``leavitt`` call with its exact exit
code, stdout and stderr.

Every row runs through ``cli.main`` in this process. When the imported
``leavitt`` package lies outside this checkout, as after ``pip install .``,
every row also runs as a subprocess of the installed ``leavitt``
executable, so the console script itself is tested. A new console
behaviour is one more row.
"""

import io
import json
import pathlib
import shlex
import subprocess
import sys
from typing import Callable, NamedTuple, Optional, Union

import pytest

import leavitt
from leavitt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
# whether the package under test was installed rather than imported from
# this checkout's src/
INSTALLED = (pathlib.Path(__file__).resolve().parent.parent
             not in pathlib.Path(leavitt.__file__).resolve().parents)


class Case(NamedTuple):
    """One call. ``argv`` is split as a POSIX shell splits it and runs in a
    directory that holds ``line2.txt`` and ``files`` (name to text). ``out``
    is the exact stdout, or a function that returns it when it is too long
    to build at import."""
    argv: str
    code: int
    out: Union[str, Callable[[], str]] = ""
    err: str = ""
    files: dict = {}
    stdin: Optional[str] = None


def refused(argv: str, message: str, **inputs) -> Case:
    """A call that ends in exit 1 with one ``error:`` line and no stdout."""
    return Case(argv, 1, "", f"error: {message}\n", **inputs)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def golden_rows(calls) -> dict:
    """For each (name, argv, stem): the row ``name``, which prints the golden
    ``stem.txt``, and the row ``name-json``, which adds --json and prints
    ``stem.json``."""
    rows = {}
    for name, argv, stem in calls:
        rows[name] = Case(argv, 0, golden(f"{stem}.txt"))
        rows[f"{name}-json"] = Case(f"{argv} --json", 0, golden(f"{stem}.json"))
    return rows


def dumps(value) -> str:
    """What ``--json`` prints for ``value``: the stdlib's indent-2 text."""
    return json.dumps(value, indent=2) + "\n"


def product(*factors, equals: str) -> dict:
    return {"type": "product_equals", "factors": list(factors), "equals": equals}


def line(n: int, reverse: bool = False) -> str:
    """The text of ``construct line n``, or of its lines in reverse order."""
    step = -1 if reverse else 1
    return "".join([f"vertex v{i}\n" for i in range(1, n + 1)][::step]
                   + [f"edge e{i} v{i} v{i + 1}\n" for i in range(1, n)][::step])


def ladder(n: int) -> str:
    """Vertices v0..vn and edges a_i, b_i from v_i to v_{i+1}: 2^(i+1) - 1
    paths end at v_i."""
    return ("".join(f"vertex v{i}\n" for i in range(n + 1))
            + "".join(f"edge {c}{i} v{i} v{i + 1}\n" for i in range(n) for c in "ab"))


def ef_of_line(n: int) -> str:
    """``construct ef`` of ``line n`` with every edge in F: the n - 1 edge
    vertices and the sink, each joined to the next."""
    names = [f"edge:e{i}" for i in range(1, n)] + [f"vertex:v{n}"]
    return ("".join(f"vertex {x}\n" for x in names)
            + "".join(f"edge ({x},{y}) {x} {y}\n" for x, y in zip(names, names[1:])))


def graph_json(vertices, edges) -> str:
    return dumps({"vertices": vertices,
                  "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges]})


LINE2 = line(2)
BOM = "\ufeff"
ROSE1 = {"rose1.txt": "vertex v\nedge e1 v v\n"}
LADDER = {"ladder.txt": ladder(15_000)}
LINE3_JSON = graph_json(["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3")])
MN = (["v1", "v2", "v1@1", "v2@1"],
      [("e1", "v1", "v2"), ("v1@e1", "v1@1", "v1"), ("v2@e1", "v2@1", "v2")])
COMMANDS = "'analyze', 'decide', 'nf', 'star', 'mul', 'phi', 'witness', 'construct'"
KINDS = "'regular', 'projection', 'improper', 'unit'"
HELP = """\
usage: leavitt [-h] COMMAND ...

exact computation in path algebras with Cuntz-Krieger relations

commands:
  analyze    structural facts about a graph
  decide     regularity, *-regularity, and properness verdicts
  nf         normal form of an expression
  star       adjoint of an expression
  mul        product of two expressions
  phi        matrix image over the sinks (acyclic graphs)
  witness    constructive certificates
  construct  build standard and derived graphs

'leavitt COMMAND -h' lists the arguments of a command.
"""
FIELDS = {"Q": "Q", "Qi_id": "'Q[i]/id'", "Qi_conj": "'Q[i]/conj'", "GF3": "'GF(3)'",
          "GF5": "'GF(5)'"}
# the goldens: analyze; decide over five fields; phi of v1 + 3*v2 + 7*e1*
# and each witness kind of a = v2 + 2*e1 (improper takes none) over Q and GF(5)
GOLDENS = golden_rows(
    [("analyze", "analyze line2.txt", "analyze_line2")]
    + [(f"decide-{s}", f"decide line2.txt --field {spec}", f"decide_line2_{s}")
       for s, spec in FIELDS.items()]
    + [(f"phi-{s}", f"phi line2.txt --field {FIELDS[s]} -e 'v1 + 3*v2 + 7*e1*'", f"phi_line2_{s}")
       for s in ("Q", "GF5")]
    + [(f"witness-{kind}-{s}", f"witness {kind} line2.txt --field {FIELDS[s]}"
        + ("" if kind == "improper" else " -e 'v2 + 2*e1'"), f"witness_{kind}_line2_{s}")
       for kind in ("regular", "projection", "unit", "improper") for s in ("Q", "GF5")])

CASES = {
    **GOLDENS,
    # analyze and decide
    "decide-unknown-is-exit-2": Case(
        "decide rose1.txt --field 'GF(2)'", 2,
        "field: GF(2)\nacyclic: false\nmu: v=omega\nsigma: omega\nproperness_level: 1\n"
        "regular: false\nstar_regular: false\npositive_definite_algebra: false\n"
        "proper_algebra: unknown\n", files=ROSE1),
    "decide-long-line-sink-first": Case(
        "decide sink_first.txt --field 'GF(5)' --json", 0, dumps({
            "field": "GF(5)", "acyclic": True, "mu": {f"v{i}": i for i in range(1500, 0, -1)},
            "sigma": 1500, "properness_level": 1, "regular": True, "star_regular": False,
            "positive_definite_algebra": False, "proper_algebra": "improper",
            "improper_certificate": "v10 + 2*e9"}),
        files={"sink_first.txt": line(1500, reverse=True)}),
    # a graph may start with one UTF-8 byte order mark, in either format
    "decide-bom-text": Case("decide bom.txt --field Q", 0, golden("decide_line2_Q.txt"),
                            files={"bom.txt": BOM + LINE2}),
    "decide-bom-json": Case("decide bom.json --field Q", 0, golden("decide_line2_Q.txt"),
                            files={"bom.json": BOM + graph_json(["v1", "v2"],
                                                                [("e1", "v1", "v2")])}),
    "decide-bom-stdin": Case("decide - --field Q", 0, golden("decide_line2_Q.txt"),
                             stdin=BOM + LINE2),
    "decide-two-boms": refused("decide - --field Q", "line 1: expected 'vertex <id>' or "
                               "'edge <id> <src> <dst>', got '\\ufeffvertex v1'",
                               stdin=BOM + BOM + LINE2),
    # a path count CPython would refuse to print is refused before printing
    **{name: refused(argv, "mu(v14284) has more than MAX_MU_DIGITS = 4300 digits",
                     files=LADDER) for name, argv in [
        ("decide-mu-digits", "decide ladder.txt --field Q"),
        ("decide-mu-digits-json", "decide ladder.txt --field 'GF(3)' --json"),
        ("analyze-mu-digits", "analyze ladder.txt"),
        ("analyze-mu-digits-json", "analyze ladder.txt --json")]},
    "analyze-missing-file": refused("analyze /nonexistent/graph.txt", "[Errno 2] No such file "
                                    "or directory: '/nonexistent/graph.txt'"),
    "analyze-dangling-edge": refused("analyze bad.txt", "dangling endpoint e1",
                                     files={"bad.txt": "edge e1 v1 v2\n"}),
    "decide-bad-field": refused("decide line2.txt --field R", "unknown field spec 'R'"),

    # expressions: nf, star, mul, phi
    "nf-ck1": Case("nf line2.txt --field Q -e 'e1.e1*'", 0, "v1\n"),
    # a term's factors fold through the product kernel: a vanishing fold,
    # and one where q1 is a prefix of p2 (here equal to it)
    "nf-fold-vanishes": Case("nf line2.txt --field Q -e e1.e1", 0, "0\n"),
    "nf-fold-equal-prefix": Case("nf line2.txt --field Q -e 'e1*.e1'", 0, "v2\n"),
    # a CK2 rewrite in the middle of a term, followed by more factors
    "nf-rewrite-then-edge": Case("nf line2.txt --field Q -e 'e1.e1*.e1'", 0, "e1\n"),
    "nf-rewrite-then-ghost": Case("nf line2.txt --field Q -e 'e1*.e1.e1*'", 0, "e1*\n"),
    "nf-rewrite-zero-term": Case("nf line2.txt --field Q -e '0*e1.e1*.e1 + v2'", 0, "v2\n"),
    # zero coefficients stop at the parser: no term is left
    "nf-zero-coefficients": Case("nf line2.txt --field Q -e '0*e1 + 0'", 0, "0\n"),
    "nf-empty": refused("nf line2.txt --field Q -e ''", "column 1: empty expression"),
    "nf-blank": refused("nf line2.txt --field Q -e '   '", "column 4: empty expression"),
    # a term missing at the end is reported at column len + 1
    "nf-missing-last-term": refused("nf line2.txt --field Q -e 'v1 +'",
                                    "column 5: expected an identifier"),
    "nf-double-dot": refused("nf line2.txt --field Q -e e1..e2",
                             "column 4: expected an identifier"),
    "nf-two-exprs": refused("nf line2.txt --field Q -e v1 -e v2",
                            "nf takes exactly 1 -e expression, got 2"),
    # the Frobenius of GF(2,2) on t: t^2 = t + 1, so t -> 1 + t
    "star-GF4-frobenius": Case("star line2.txt --field 'GF(2,2)' -e 't*e1'", 0, "1+t*e1*\n"),
    "star-conj": Case("star line2.txt --field 'Q[i]/conj' -e 'i*e1'", 0, "-i*e1*\n"),
    "mul": Case("mul line2.txt --field Q -e 'e1*' -e e1", 0, "v2\n"),
    **{f"mul-zero-denominator-{name}": refused(
        f"mul line2.txt --field {FIELDS[slug]} -e '{expr}' -e e1",
        f"zero denominator in literal '{literal}'") for name, slug, expr, literal in [
        ("Q", "Q", "1/0*e1", "1/0"), ("Qi_conj", "Qi_conj", "1/0i*e1", "1/0"),
        ("Qi_id", "Qi_id", "1/0*e1", "1/0"), ("Qi_id-imaginary", "Qi_id", "2+3/0i*e1", "3/0")]},
    "phi-v2-json": Case("phi line2.txt --field Q -e v2 --json", 0,
                        dumps([{"sink": "v2", "size": 2, "rows": [["1", "0"], ["0", "0"]]}])),
    "phi-cycle": refused("phi rose1.txt --field Q -e v", "graph has a cycle", files=ROSE1),

    # witness
    "witness-improper-GF2": Case("witness improper line2.txt --field 'GF(2)'", 0,
                                 "v2 + e1\nverified: a != 0 and star(a).a = 0\n"),
    "witness-regular-e1-json": Case(
        "witness regular line2.txt --field Q -e e1 --json", 0, dumps({
            "kind": "regular", "input": "e1", "inverse": "e1*",
            "claims": [product("e1", "e1*", "e1", equals="e1")], "verified": True})),
    "witness-projection-e1-json": Case(
        "witness projection line2.txt --field Q -e e1 --json", 0, dumps({
            "kind": "projection", "input": "e1", "projection": "v1", "factor": "e1*",
            "claims": [{"type": "star_fixed", "arg": "v1"}, product("v1", "v1", equals="v1"),
                       product("v1", "e1", equals="e1"), product("e1", "e1*", equals="v1")],
            "verified": True})),
    "witness-unit-e1-json": Case(
        "witness unit line2.txt --field Q -e e1 --json", 0, dumps({
            "kind": "unit", "input": "e1", "u": "e1* + e1", "u_prime": "e1* + e1",
            "v": "v1 + v2",
            "claims": [product("e1* + e1", "e1* + e1", equals="v1 + v2"),
                       product("e1* + e1", "e1* + e1", equals="v1 + v2"),
                       product("v1 + v2", "e1", equals="e1"),
                       product("e1", "v1 + v2", equals="e1"),
                       product("e1", "e1* + e1", "e1", equals="e1")],
            "verified": True})),
    # a witness works on the blocks its element reaches: on the block of
    # v1 -> v2, which f misses, u is the identity
    "witness-unit-other-block": Case(
        "witness unit two.txt --field Q -e f", 0,
        "u: v1 + v2 + f* + f\nu_prime: v1 + v2 + f* + f\nv: v1 + v2 + x + y\n"
        "verified: u.u' = v = u'.u, v.a = a.v = a, a.u.a = a\n",
        files={"two.txt": "vertex v1\nvertex v2\nvertex x\nvertex y\nedge e1 v1 v2\n"
                          "edge f x y\n"}),
    # a cycle the element avoids is still refused: the expansion of e1
    # never meets the loop l, so only the acyclicity check stops it
    "witness-regular-cycle-beside": refused(
        "witness regular loop.txt --field Q -e e1", "graph has a cycle",
        files={"loop.txt": "vertex c\nvertex v1\nvertex v2\nedge l c c\nedge e1 v1 v2\n"}),
    "witness-regular-no-expr": refused("witness regular line2.txt --field Q",
                                       "witness regular takes exactly 1 -e expression, got 0"),

    # construct
    "construct-line-2": Case("construct line 2", 0, LINE2),
    "construct-line-3": Case("construct line 3", 0, line(3)),
    "construct-rose-2-json": Case("construct rose 2 --json", 0,
                                  graph_json(["v"], [("e1", "v", "v"), ("e2", "v", "v")])),
    "construct-toeplitz": Case("construct toeplitz", 0,
                               "vertex v1\nvertex v2\nedge e1 v1 v1\nedge e2 v1 v2\n"),
    "construct-mn": Case("construct mn line2.txt 2", 0, "".join(
        [f"vertex {v}\n" for v in MN[0]] + [f"edge {e} {s} {d}\n" for e, s, d in MN[1]])),
    "construct-ef": Case("construct ef line2.txt e1", 0,
                         "vertex edge:e1\nvertex vertex:v2\n"
                         "edge (edge:e1,vertex:v2) edge:e1 vertex:v2\n"),
    "construct-ef-of-a-long-line": Case(
        "construct ef line3000.txt " + ",".join(f"e{i}" for i in range(1, 3000)), 0,
        ef_of_line(3000), files={"line3000.txt": line(3000)}),
    "construct-rose-at-the-limit": Case(
        "construct rose 100000 --json", 0,
        lambda: graph_json(["v"], [(f"e{i}", "v", "v") for i in range(1, 100_001)])),
    # PARAMS are every positional after KIND, with options anywhere
    "construct-json-before-size": Case("construct line --json 3", 0, LINE3_JSON),
    "construct-json-before-kind": Case("construct --json line 3", 0, LINE3_JSON),
    "construct-json-last": Case("construct line 3 --json", 0, LINE3_JSON),
    "construct-mn-json-between": Case("construct mn line2.txt --json 2", 0, graph_json(*MN)),
    "construct-line-two-sizes": refused("construct line 2 3",
                                        "construct line takes at most one size"),
    "construct-mn-no-n": refused("construct mn line2.txt", "construct mn needs GRAPH N"),
    "construct-ef-no-edge": refused("construct ef line2.txt",
                                    "construct ef needs GRAPH EDGE[,EDGE...]"),
    **{f"construct-line-size-{size}": refused(
        f"construct line {size}", f"size must be a positive integer, got '{size}'")
       for size in ("0", "x", "1.5", "-3")},
    # refused before anything is built
    **{f"construct-{kind}-oversize": refused(
        f"construct {kind} {graph}{10 ** 12}",
        f"construct {kind}: output size {size} exceeds MAX_CONSTRUCT_SIZE = 100000")
       for kind, graph, size in [("line", "", 10 ** 12), ("rose", "", 10 ** 12),
                                 ("mn", "line2.txt ", 2 * 10 ** 12)]},

    # the argv reader. An -e value that starts with "-" is an expression.
    "nf-field-equals-negative-expr": Case("nf line2.txt --field=Q -e -v1", 0, "-1*v1\n"),
    "nf-long-option-negative-expr": Case("nf line2.txt --field Q --expr '-e1.e1*'", 0,
                                         "-1*v1\n"),
    "star-negative-vertex": Case("star line2.txt --field Q -e -v1", 0, "-1*v1\n"),
    "mul-negative-zero": Case("mul line2.txt --field 'GF(5)' -e '-0*e1' -e e1", 0, "0\n"),
    "mul-both-negative": Case("mul line2.txt --field Q -e -v2 --expr '-e1*.e1'", 0, "v2\n"),
    "witness-negative-expr": Case("witness regular line2.txt --field Q -e -e1", 0,
                                  "inverse: -1*e1*\nverified: a.b.a = a\n"),
    "nf-negative-unknown-identifier": refused("nf line2.txt --field Q -e -q1",
                                              "unknown identifier 'q1'"),
    "mul-one-expr": refused("mul line2.txt --field 'GF(5)' -e '-0*e1'",
                            "mul takes exactly 2 -e expressions, got 1"),
    # the usage errors, each with argparse's text for it
    "no-command": refused("", "the following arguments are required: command"),
    "unknown-command": refused("frobnicate", "argument command: invalid choice: "
                               f"'frobnicate' (choose from {COMMANDS})"),
    "decide-no-arguments": refused("decide",
                                   "the following arguments are required: --field, graph"),
    "decide-no-field": refused("decide line2.txt",
                               "the following arguments are required: --field"),
    "decide-field-no-value": refused("decide line2.txt --field",
                                     "argument --field: expected one argument"),
    "nf-expr-no-value": refused("nf line2.txt --field Q -e",
                                "argument -e/--expr: expected one argument"),
    "decide-expr": refused("decide line2.txt --field Q -e v1",
                           "unrecognized arguments: -e v1"),
    "decide-unknown-option": refused("decide line2.txt --field Q --bogus",
                                     "unrecognized arguments: --bogus"),
    "construct-json-explicit-value": refused("construct line 2 --json=1",
                                             "argument --json: ignored explicit argument '1'"),
    "witness-unknown-kind": refused("witness bogus line2.txt --field Q",
                                    f"argument kind: invalid choice: 'bogus' "
                                    f"(choose from {KINDS})"),
    "construct-no-kind": refused("construct", "the following arguments are required: kind"),
    "help": Case("--help", 0, HELP),
    "witness-unknown-kind-before-help": refused(
        "witness bogus --help", f"argument kind: invalid choice: 'bogus' (choose from {KINDS})"),
    # "--" ends the options: every later token is a positional
    "nf-graph-after-double-dash": Case("nf --field Q -e 'e1.e1*' -- -g.txt", 0, "v1\n",
                                       files={"-g.txt": LINE2}),
    "nf-graph-named-like-an-option": refused("nf --field Q -e 'e1.e1*' -g.txt",
                                             "the following arguments are required: graph",
                                             files={"-g.txt": LINE2}),
    "nf-options-after-double-dash": refused("nf line2.txt --field Q -e v1 -- --json -h",
                                            "unrecognized arguments: --json -h"),
    "analyze-after-double-dash": Case("-- analyze line2.txt", 0, golden("analyze_line2.txt")),
    "nf-expr-double-dash": refused("nf line2.txt --field Q -e --",
                                   "column 2: expected an identifier"),
}


def run_in_process(case: Case, cwd, monkeypatch, capsys) -> tuple:
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.stdin or ""))
    code = main(shlex.split(case.argv))
    return (code, *capsys.readouterr())


def run_installed(case: Case, cwd) -> tuple:
    done = subprocess.run(["leavitt", *shlex.split(case.argv)], cwd=cwd,
                          input=(case.stdin or "").encode(), capture_output=True, timeout=20)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def check(name: str, tmp_path, monkeypatch, capsys) -> None:
    """Run the row ``name`` on every route and compare it exactly."""
    case = CASES[name]
    cwd = tmp_path / name
    cwd.mkdir()
    for file, text in {"line2.txt": LINE2, **case.files}.items():
        (cwd / file).write_text(text, encoding="utf-8")
    out = case.out() if callable(case.out) else case.out
    got = {"in process": run_in_process(case, cwd, monkeypatch, capsys)}
    if INSTALLED:
        got["installed"] = run_installed(case, cwd)
    assert got == dict.fromkeys(got, (case.code, out, case.err))


@pytest.mark.parametrize("name", CASES)
def test_case(name, tmp_path, monkeypatch, capsys):
    check(name, tmp_path, monkeypatch, capsys)
