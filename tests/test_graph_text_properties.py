"""Property tests of the graph text reader: ``parse_graph`` gives the graph,
or the ParseError text, of the line-by-line reader ``_parse_lines``, on
texts in ``format_graph``'s layout (read by the whole-text path), ids
spelled like keywords included, and on texts just outside it: other
whitespace and line breaks, blank and comment lines, stray spaces, a
missing final newline, interleaved or truncated lines, and non-ASCII
ids."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from leavitt.io import ParseError, _parse_lines, parse_graph  # noqa: E402

from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402

# vertex names and edge ids in the grammar, and odd ones: ids spelled like
# keywords, and ids outside the grammar, which keep a text off the
# whole-text path
NAMES = ("v1", "v2", "v3", "a(b):c@,_")
EDGE_IDS = ("e1", "e2", "e3", "f")
ODD_NAMES = ("vertex", "edge", "é", "vé")
# what a mutation inserts: whitespace and line breaks that str.split and
# str.splitlines know, comments, keywords and stray characters
PIECES = (" ", "  ", "\t", "\r\n", "\r", "\n", "\n\n", "\x0b", "\x0c", "\x1c", "\x1d",
          "\x1e", "\x1f", "\x85", "\u2028", "\u00a0", "#", "# c\n", "vertex ", "edge ",
          "vertex v1\n", "edge e9 v1 v2\n", "x", "-", "é", "\ud800")


@st.composite
def graph_texts(draw):
    """A graph in ``format_graph``'s layout, mostly with unique ids and
    names in the grammar, its lines shuffled one time in four, then zero to
    three insertions, deletions or truncations at drawn positions (none one
    time in two)."""
    odd = draw(st.integers(0, 3)) == 0
    names = st.sampled_from(NAMES + ODD_NAMES if odd else NAMES)
    edge_ids = st.sampled_from(EDGE_IDS + ODD_NAMES if odd else EDGE_IDS)
    unique = draw(st.integers(0, 3)) > 0
    vertices = draw(st.lists(names, max_size=4, unique=unique))
    ends = st.sampled_from(vertices) if vertices else names
    edges = draw(st.lists(st.tuples(edge_ids, ends, ends), max_size=4,
                          unique_by=(lambda e: e[0]) if unique else None))
    lines = [f"vertex {v}" for v in vertices] + [f"edge {e} {s} {d}" for e, s, d in edges]
    if draw(st.integers(0, 3)) == 0:
        lines = draw(st.permutations(lines))
    text = "".join(line + "\n" for line in lines)
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        kind = draw(st.sampled_from(("insert", "delete", "truncate")))
        pos = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:pos] + draw(st.sampled_from(PIECES)) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos]
    return text


def outcome(parse, text):
    """The graph read, with each edge's type, or the error's text."""
    try:
        g = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return "graph", g.vertices, g.edges, [type(e) for e in g.edges]


@PROPERTY_SETTINGS
@given(text=graph_texts())
@example(text="")
@example(text="\n")
@example(text="vertex v1")
@example(text="vertex v1\nvertex v2\nedge e1 v1 v2")
@example(text="vertex v1\nvertex v2\nedge e1 v1 v2\n")
@example(text="vertex vertex\nvertex edge\nedge e1 vertex edge\n")
@example(text="edge e1 v1 v1\nvertex v1\n")
@example(text="vertex v1 \nvertex v2\n")
@example(text=" vertex v1\n")
@example(text="vertex  v1\n")
@example(text="vertex v1\n\nvertex v2\n")
@example(text="vertex v1\r\nvertex v2\r\n")
@example(text="vertex v1\x0bvertex v2\n")
@example(text="vertex v1\x1cvertex v2\x1fv3\n")
@example(text="vertex v1\tv2\n")
@example(text="# c\nvertex v1\n")
@example(text="vertex v1 # c\n")
@example(text="vertex é\n")
@example(text="vertex \ud800\n")
@example(text="vertex v1\nvertex v1\n")
@example(text="vertex v1\nedge e1 v1 v2\n")
@example(text="vertex v1\nedge v1 v1 v1\n")
@example(text="vertex v1\nedge e1 v1\n")
# each of these fails exactly one check of the whole-text path
@example(text="edge e1\nv1 v1\n")
@example(text="edge e1\nv1 v1")
@example(text="vertex v1\nedge e1 v1\rv1\n")
@example(text="vertex v1\nedge e1 v1 #\n")
@example(text="vertex v1\nedge e1 v1 v1 v1\n")
@example(text="vertex v1 vertex\nvertex \n")
@example(text="vertex a edge c\nedge d\n")
@example(text="vertex \nvertex v1 v2\nedge e1 v1 v1\n")
@example(text="vertex v1\nedge e1 v1\nedge e2 v1 v1 v1\n")
def test_parse_graph_matches_the_line_reader(text):
    assert outcome(parse_graph, text) == outcome(_parse_lines, text)
