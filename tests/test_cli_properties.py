"""Property tests of the CLI.

The exit contract on the commands that take -e expressions: any count of
expressions, spelled any of the three ways, with or without --field, ends in
exit 0, 1 or 2 with no traceback; exit 1 is one ``error:`` line on stderr,
and exit 0 needs the command's own count.

The ``--json`` writer: ``_json_text(v)`` is ``json.dumps(v, indent=2)`` for
any JSON value, tuples and non-string keys included, and for values whose
types are subclasses of the JSON types (an ``IntEnum``, a ``str``
subclass, a ``NamedTuple``, an ``OrderedDict``), which the writer's exact
type test does not take as plain scalars.

The column writer: the view ``_graph_json(g)`` is written as
``json.dumps(graph_to_json(g), indent=2)`` writes the dicts, at any depth.

The argv reader: on any argv drawn from the commands' own tokens, ``main``
reads what the argparse parser it replaced (``conftest.oracle_read_args``)
read, or both refuse it with exit 1 and one ``error:`` line."""

import enum
import json
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from leavitt import Edge, Graph, Path, standard_graph  # noqa: E402
from leavitt import cli  # noqa: E402
from leavitt.cli import _graph_json, _json_text, _read_args, main  # noqa: E402
from leavitt.io import ParseError, format_graph, graph_to_json  # noqa: E402

from conftest import oracle_read_args  # noqa: E402

from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402

# the number of -e expressions each command takes, as documented
EXPR_COUNTS = {"nf": 1, "star": 1, "phi": 1, "mul": 2, "witness regular": 1,
               "witness projection": 1, "witness unit": 1, "witness improper": 0}
# well-formed, negated and malformed expressions over line 2
EXPRS = ("v1", "-v1", "e1.e1*", "v2 + 2*e1", "-e1*", "1+2i*e1", "e1..e2", "", "q1",
         "1/0*e1", "-e")
SPECS = (None, "Q", "GF(5)", "Q[i]/conj", "GF(3,2)")


@pytest.fixture(scope="module")
def line2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "line2.txt"
    path.write_text(format_graph(standard_graph("line", 2)))
    return str(path)


def expression_args(text, spelling):
    return {"short": ["-e", text], "long": ["--expr", text],
            "joined": [f"--expr={text}"]}[spelling]


@PROPERTY_SETTINGS
@given(command=st.sampled_from(sorted(EXPR_COUNTS)),
       exprs=st.lists(st.tuples(st.sampled_from(EXPRS),
                                st.sampled_from(("short", "long", "joined"))),
                      max_size=3),
       spec=st.sampled_from(SPECS),
       field_first=st.booleans(),
       as_json=st.booleans())
def test_expression_count_exit_contract(line2_file, command, exprs, spec, field_first,
                                        as_json):
    field = [] if spec is None else ["--field", spec]
    expr_args = [a for text, spelling in exprs for a in expression_args(text, spelling)]
    argv = command.split() + [line2_file]
    argv += field + expr_args if field_first else expr_args + field
    argv += ["--json"] if as_json else []
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if len(exprs) != EXPR_COUNTS[command] or spec is None:
        assert rc == 1
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and err.getvalue() == lines[0] + "\n"
        assert lines[0].startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


# text with the characters JSON escapes or spells as \\u sequences
JSON_TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f'
                                                  '\u00e9\u2028\U0001f600 a'))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.sampled_from((0, 1, -1)),
                         st.integers(), st.integers(min_value=2 ** 64), st.floats(),
                         JSON_TEXT)
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=24)


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Text(str):
    pass


class Number(float):
    pass


class Items(list):
    pass


# the same values with scalars and containers mapped through subclasses,
# which the C encoder and the stdlib's Python encoder spell as their bases
SUBCLASS_SCALARS = st.one_of(st.sampled_from(Level), JSON_TEXT.map(Text),
                             st.floats().map(Number))
SUBCLASS_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, SUBCLASS_SCALARS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.lists(inner, max_size=4).map(Items),
                            st.tuples(inner, inner, inner).map(Edge._make),
                            st.tuples(inner, inner).map(Path._make),
                            st.dictionaries(st.one_of(JSON_KEYS, SUBCLASS_SCALARS),
                                            inner, max_size=4),
                            st.dictionaries(JSON_KEYS, inner, max_size=4).map(OrderedDict)),
    max_leaves=24)


@PROPERTY_SETTINGS
@given(value=st.one_of(JSON_VALUES, SUBCLASS_VALUES))
@example(value={})
@example(value=[[], {}, ()])
@example(value={"a": {"b": [1, (True, None)]}, 2: [], True: "\u00e9"})
@example(value=[{"id": "e1", "src": "v1", "dst": "v2"}, [10 ** 30]])
# lists of non-empty dicts of scalars
@example(value=[{"a": "},\n    {", "b": "[x]"}, {"c": "},{\n", "d": "}, {"}])
@example(value=({"id": "}", "n": 1}, {"id": "{", "n": None}))
@example(value=[{1: "a", None: "b"}, {True: 2.5, 0: None, 1.5: False}])
# lists of dicts that share a key tuple: keys that hold "%", and more dicts
# than one batch
@example(value=[{"a%s": 1, "%%": "%d"}, {"a%s": 2, "%%": "%"}])
@example(value=[{"id": f"e{i}", "n": i, "w": i % 2 == 0} for i in range(4097)])
@example(value=[{}, {"a": 1}, {}])
# flat containers of one batch and past one, written one encoder call per
# batch: a dict, a list with a subclass container inside (so walked), a
# tuple, and an OrderedDict
@example(value={f"v{i}": i for i in range(4096)})
@example(value={"mu": {f"v{i}": i for i in range(4097)}, "n": [None] * 8193})
@example(value=[tuple(f"\u00e9{i}" for i in range(9000)), Items([1])])
@example(value=OrderedDict((i, i % 2 == 0) for i in range(4097)))
@example(value=[{"a": 1}, {}])
@example(value={"edges": [{"id": "e1", "src": "v1", "dst": "v2"}], "x": [[{"a": [1]}]]})
# subclasses of the scalar and container types
@example(value=[Level.HIGH, Text("a\n"), {Level.LOW: Text("b"), Text("k"): Level.HIGH}])
@example(value=[Edge("e1", "v1", "v2"), OrderedDict([("b", 1), ("a", [2, Path("v", ())])])])
@example(value=Edge("e1", "v1", "v2"))
@example(value=[OrderedDict(id="e1", src="v1"), OrderedDict(id="e2", src="v2")])
@example(value=Items([1, Items(["a"]), ()]))
@example(value=float("nan"))
@example(value=float("inf"))
@example(value={"x": float("nan"), "y": [float("inf"), -float("inf"), Number(0.5)]})
# a list of dicts of scalars in which one value is a subclass
@example(value=[{"id": "e1", "n": 1}, {"id": "e2", "n": Level.HIGH}])
@example(value=[{"id": Text("e1")}, {"id": "e2", "w": Number("nan")}])
@example(value=[{"id": "e1", "at": Edge("e1", "v1", "v2")}, {"id": "e2"}])
def test_json_text_is_stdlib_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


# identifiers that JSON escapes: quotes, backslashes, control and non-ASCII
# characters
GRAPH_IDS = st.text(alphabet='ab"\\/\n\x00\u00e9\u2028\U0001f600', min_size=1, max_size=4)


@st.composite
def id_graphs(draw):
    """A ``Graph.build`` graph over drawn identifiers: distinct vertices and
    edge ids, each edge between two of the vertices."""
    names = draw(st.lists(GRAPH_IDS, unique=True, min_size=1, max_size=12))
    cut = draw(st.integers(1, len(names)))
    vertices, ids = names[:cut], names[cut:]
    ends = st.sampled_from(vertices)
    return Graph.build(vertices, [(i, draw(ends), draw(ends)) for i in ids])


@PROPERTY_SETTINGS
@given(g=st.one_of(id_graphs(), st.builds(standard_graph, st.sampled_from(("line", "rose")),
                                          st.integers(1, 9))),
       depth=st.integers(0, 2), accelerated=st.booleans())
@example(g=Graph.build([], []), depth=0, accelerated=True)
@example(g=Graph.build(["v"], []), depth=1, accelerated=True)
@example(g=Graph.build(['"\\', "\u00e9"], [("\u2028", '"\\', "\u00e9")]), depth=0,
         accelerated=False)
# past the first batch of edges, and exactly two batches
@example(g=standard_graph("rose", 4097), depth=0, accelerated=True)
@example(g=standard_graph("line", 8193), depth=2, accelerated=True)
def test_column_writer_is_stdlib_indent_2(g, depth, accelerated):
    view, dicts = _graph_json(g), graph_to_json(g)
    for _ in range(depth):
        view, dicts = {"g": [view, 1]}, {"g": [dicts, 1]}
    with pytest.MonkeyPatch.context() as patch:
        if not accelerated:
            patch.setattr(cli, "c_make_encoder", None)
        assert _json_text(view) == json.dumps(dicts, indent=2)


# Every command and witness kind name, and each form of every option, with
# values that read as options, as negative numbers and as stdin. Left out
# are the three places where the reader differs from argparse on purpose,
# each pinned in tests/test_console.py: "--", "-h", and construct's kinds, as
# argparse fills PARAMS only from the positionals right after KIND and the
# reader from every positional after it.
ARGV_TOKENS = ("analyze", "decide", "nf", "star", "mul", "phi", "witness", "construct",
               "regular", "projection", "improper", "unit", "G", "-", "--json", "--js",
               "--field", "--fi", "--field=Q", "-e", "--expr", "--expr=-v1", "-ev1", "-v1",
               "-3", "--bogus", "extra", "Q")
READ_FIELDS = ("command", "kind", "graph", "params", "field", "expr", "as_json")


def one_error_line(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    return (rc, out.getvalue(), len(lines), err.getvalue().startswith("error: "),
            err.getvalue().endswith("\n"))


@PROPERTY_SETTINGS
@given(argv=st.lists(st.sampled_from(ARGV_TOKENS), max_size=9))
@example(argv=["witness", "unit", "G", "--field", "Q", "-e", "-v1", "--json"])
@example(argv=["mul", "--fi", "Q", "G", "-ev1", "--expr", "-3", "--js", "--json"])
@example(argv=["nf", "--expr=-v1", "--field=Q", "-", "--field", "-3"])
@example(argv=["--json", "decide", "G", "--field", "Q"])
@example(argv=["decide", "G", "--field", "Q", "-e", "v1"])
@example(argv=["witness", "improper", "--json", "-3", "--field", "--js"])
def test_reader_reads_what_argparse_read(argv):
    try:
        with redirect_stderr(StringIO()) as err:
            expected = oracle_read_args(argv)
    except SystemExit as exc:
        assert (exc.code, err.getvalue()[:7], err.getvalue().count("\n")) == (1, "error: ", 1)
        with pytest.raises(ParseError):
            _read_args(argv)
        assert one_error_line(argv) == (1, "", 1, True, True)
        return
    got = _read_args(argv)
    assert {f: getattr(got, f) or None for f in READ_FIELDS} == \
        {f: getattr(expected, f, None) or None for f in READ_FIELDS}
