"""Property tests of the expression parser on line, rose, toeplitz, clock
and M_n graphs over six fields: it gives the element, or the ParseError
text, of the multiply-as-you-go parser of conftest, and ``leavitt nf`` on
the same expressions keeps the CLI's exit contract."""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from leavitt import Rationals, m_n_graph, standard_graph  # noqa: E402
from leavitt.graphs import clock_graph  # noqa: E402
from leavitt.cli import main  # noqa: E402
from leavitt.io import format_graph, parse_element  # noqa: E402

from conftest import oracle_parse_element  # noqa: E402
from test_linalg_properties import COEFFS, FIELDS, PROPERTY_SETTINGS  # noqa: E402

GRAPHS = (standard_graph("line", 3), standard_graph("rose", 2),
          standard_graph("toeplitz"), clock_graph(2, 2),
          m_n_graph(standard_graph("line", 2), 3))
TAILS = (" +", "-", ".", "..e1", " x9", "*", " v1 v1", " + 2*", "e1 ")


@st.composite
def expressions(draw):
    """(g, k, text): one to four terms joined by '+' or '-', each of the
    forms c*w, -w, c and w for words w of vertices, edges and ghosts, and
    now and then a malformed tail."""
    g = draw(st.sampled_from(GRAPHS))
    field, gen = draw(st.sampled_from(FIELDS))
    names = ([*g.vertices] + [e.id for e in g.edges] + [f"{e.id}*" for e in g.edges])

    def word():
        factors = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        return draw(st.sampled_from((".", " . "))).join(factors)

    def coeff():
        x = field.from_int(draw(COEFFS)) + field.from_int(draw(COEFFS)) * gen
        return field.literal(x.payload)

    def term():
        form = draw(st.integers(0, 3))
        if form == 0:
            return f"{coeff()}*{word()}"
        if form == 1:
            return f"-{word()}"
        return coeff() if form == 2 else word()

    text = term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from((" + ", " - ", "+", "-"))) + term()
    if draw(st.integers(0, 3)) == 0:
        text += draw(st.sampled_from(TAILS))
    return g, field, text


def outcome(parse, g, k, text):
    try:
        return parse(text, g, k)
    except Exception as exc:  # the error type and text must agree too
        return (type(exc).__name__, str(exc))


LINE3, ROSE2, Q = GRAPHS[0], GRAPHS[1], Rationals()


@PROPERTY_SETTINGS
@given(expressions())
# q1 = v2 is a proper prefix of p2 = e2: the gamma goes onto p1
@example((LINE3, Q, "e1.e2"))
# p2 = v2, then p2 = e1, is a proper prefix of q1: the gamma goes onto q2
@example((LINE3, Q, "e2*.e1*.e1"))
# the fold vanishes, and the unknown factor after it is still reported
@example((LINE3, Q, "e1.e1.x9"))
# e2 is the special edge at v, so the fold's e2.e2* takes the CK2 rewrite
@example((ROSE2, Q, "e2.e2*"))
def test_parse_matches_the_multiply_as_you_go_parser(case):
    g, k, text = case
    assert outcome(parse_element, g, k, text) == outcome(oracle_parse_element, g, k, text)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """One graph file per entry of GRAPHS, in the same order."""
    root = tmp_path_factory.mktemp("graphs")
    files = []
    for i, g in enumerate(GRAPHS):
        path = root / f"g{i}.txt"
        path.write_text(format_graph(g), encoding="utf-8")
        files.append(str(path))
    return files


@PROPERTY_SETTINGS
@given(case=expressions())
def test_nf_exit_contract(graph_files, case):
    """Exit 0 printing an element that parses back to the expression's, or
    exit 1 with one ``error:`` line; never a traceback."""
    g, k, text = case
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["nf", graph_files[GRAPHS.index(g)], "--field", k.spec_string(),
                   "-e", text])
    assert rc in (0, 1)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
        assert parse_element(out.getvalue().strip(), g, k) == parse_element(text, g, k)
