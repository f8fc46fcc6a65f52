import json
import sys
import tracemalloc

import pytest

from leavitt import (
    Element,
    GaussianRationals,
    Graph,
    ParseError,
    PrimeField,
    QuadraticExtField,
    Rationals,
    UnknownClaimError,
    e_f_graph,
    format_element,
    format_graph,
    format_report,
    full_report,
    graph_to_json,
    parse_element,
    parse_field_spec,
    parse_graph,
    parse_graph_any,
    parse_graph_json,
    phi,
    report_to_json,
    standard_graph,
    verify_claims,
)
from leavitt.io import (
    _parse_lines,
    claim_nonzero,
    claim_product_equals,
    claim_star_fixed,
    claim_star_product_zero,
    claims_to_json,
    matrix_image_to_json,
)

from leavitt.cli import main

from conftest import FIVE_FIELDS, corpus, oracle_parse_element, random_element

Q = Rationals()
GF2 = PrimeField(2)
QI = GaussianRationals(conjugation=False)
LINE2 = standard_graph("line", 2)


class TestGraphText:
    def test_parse_line2(self):
        assert parse_graph("vertex v1\nvertex v2\nedge e1 v1 v2") == LINE2

    def test_comments_and_blanks(self):
        text = "# a graph\n\nvertex v1  # the source\nvertex v2\nedge e1 v1 v2\n"
        assert parse_graph(text) == LINE2

    def test_dangling(self):
        with pytest.raises(ParseError, match="dangling endpoint e1"):
            parse_graph("edge e1 v1 v2")

    def test_duplicate(self):
        with pytest.raises(ParseError, match="duplicate identifier v1"):
            parse_graph("vertex v1\nvertex v1")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("vertex v1\nedge oops")

    def test_round_trip(self):
        for g in corpus().values():
            assert parse_graph(format_graph(g)) == g


class TestGraphTextWorkGate:
    """Text in ``format_graph``'s layout is read with one ``split`` of the
    whole text; any other layout, line by line."""

    G = e_f_graph(standard_graph("line", 6), ["e1", "e2", "e3", "e4", "e5"])

    @staticmethod
    def c_calls(text, kind, names):
        """``parse_graph(text)`` and the names of its calls of the methods
        ``names`` of ``kind``, in order."""
        calls = []

        def profile(frame, event, arg):
            if (event == "c_call" and arg.__name__ in names
                    and type(arg.__self__) is kind):
                calls.append(arg.__name__)

        sys.setprofile(profile)
        try:
            g = parse_graph(text)
        finally:
            sys.setprofile(None)
        return g, calls

    @classmethod
    def str_splits(cls, text):
        return cls.c_calls(text, str, ("split", "splitlines"))

    def test_layout_is_split_once(self):
        g, calls = self.str_splits(format_graph(self.G))
        assert g == self.G and calls == ["split"]

    def test_control_other_layouts_split_each_line(self):
        # the counter sees the per-line reader's calls
        g, calls = self.str_splits("# a comment\n" + format_graph(self.G))
        assert g == self.G
        assert calls.count("split") >= 1 + len(self.G.vertices) + len(self.G.edges)

    def test_layout_counts_lines_once(self):
        # the keyword replacements count the vertex and edge lines by how
        # much they shorten the text, so only the newlines are counted
        g, calls = self.c_calls(format_graph(self.G), str, ("count", "replace"))
        assert g == self.G and calls == ["replace", "replace", "count"]

    def test_layout_ids_are_checked_once(self):
        # the layout check's translate proves every id spelled, so the
        # index step makes no second pass over the ids
        g, calls = self.c_calls(format_graph(self.G), bytes, ("translate",))
        assert g == self.G and calls == ["translate"]

    def test_control_other_layouts_check_ids_when_indexed(self):
        # the counter sees the index step's translate: the layout check
        # stops at the line count, before its own
        g, calls = self.c_calls("# a comment\n" + format_graph(self.G), bytes, ("translate",))
        assert g == self.G and calls == ["translate"]

    @pytest.mark.parametrize("layout", ["comment", "crlf"])
    def test_other_layouts_hold_no_copy_of_the_text(self, layout):
        # the layout check's replaced copies are freed before the line by
        # line read, so its peak is the per-line reader's own
        text = format_graph(standard_graph("line", 2000))
        text = "# a comment\n" + text if layout == "comment" else text.replace("\n", "\r\n")
        peaks = []
        for parse in (parse_graph, _parse_lines):
            parse(text)
            tracemalloc.start()
            try:
                parse(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] < len(text) // 2, (peaks, len(text))


_EXPECTED = "expected 'vertex <id>' or 'edge <id> <src> <dst>', got "


class TestGraphTextPinned:
    """The exact graphs and error texts of the line format."""

    def test_comments_whitespace_and_line_endings(self):
        text = ("# leading comment\r\n"
                "\tvertex\tv1 # after a declaration\r\n"
                "\r\n"
                "   \n"
                "vertex v2#glued\n"
                "edge e1\t v1  v2   \r\n"
                "#edge e2 v2 v1\n")
        assert parse_graph(text) == LINE2

    @pytest.mark.parametrize("text, message", [
        ("vertex", "line 1: " + _EXPECTED + "'vertex'"),
        ("vertex v1\nvertex a b", "line 2: " + _EXPECTED + "'vertex a b'"),
        ("vertex v1\r\n\r\nedge e1 v1", "line 3: " + _EXPECTED + "'edge e1 v1'"),
        ("edge e1 a b c # five", "line 1: " + _EXPECTED + "'edge e1 a b c'"),
        ("# c\n\tnode\ta  # unknown keyword\n", "line 2: " + _EXPECTED + "'node\\ta'"),
        ("  vertex  a \t b  ", "line 1: " + _EXPECTED + "'vertex  a \\t b'"),
        ("vertex a\nVertex b", "line 2: " + _EXPECTED + "'Vertex b'"),
    ])
    def test_syntax_error_text(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == message

    INVALID = ("duplicate identifier a; duplicate identifier e1; dangling endpoint e2; "
               "dangling endpoint e3; duplicate identifier e2")

    def test_invariant_errors_in_order(self):
        edges = [("e1", "a", "b"), ("e1", "b", "a"), ("e2", "a", "z"),
                 ("e3", "y", "b"), ("e2", "b", "b")]
        text = "vertex a\nvertex b\nvertex a\n" + "".join(
            f"edge {e} {s} {d}\n" for e, s, d in edges)
        obj = {"vertices": ["a", "b", "a"],
               "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges]}
        for parse, data in ((parse_graph, text), (parse_graph_json, obj),
                            (parse_graph_any, json.dumps(obj))):
            with pytest.raises(ParseError) as info:
                parse(data)
            assert str(info.value) == self.INVALID, parse.__name__


class TestGraphJson:
    def test_round_trip(self):
        for g in corpus().values():
            assert parse_graph_json(graph_to_json(g)) == g
            assert parse_graph_any(json.dumps(graph_to_json(g))) == g

    def test_unknown_top_key(self):
        with pytest.raises(ParseError, match="unknown keys"):
            parse_graph_json({"vertices": [], "edges": [], "extra": 1})

    def test_unknown_edge_key(self):
        with pytest.raises(ParseError, match="unknown edge keys"):
            parse_graph_json({"vertices": ["a", "b"],
                              "edges": [{"id": "e", "src": "a", "dst": "b", "w": 1}]})

    def test_duplicates_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph_json({"vertices": ["a", "a"], "edges": []})

    @pytest.mark.parametrize("obj, message", [
        ([], "graph object expected"),
        ({"vertices": [1]}, "vertices must be a list of strings"),
        ({"edges": [5]}, "edges must be objects"),
        ({"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a"}]},
         "edge missing key 'dst'"),
    ], ids=["list", "int-vertex", "int-edge", "no-dst"])
    def test_malformed_object_refused(self, obj, message):
        with pytest.raises(ParseError) as exc:
            parse_graph_json(obj)
        assert str(exc.value) == message

    def test_bad_json_text_is_one_parse_error(self):
        with pytest.raises(ParseError) as direct:
            parse_graph_json("{bad")
        with pytest.raises(ParseError) as sniffed:
            parse_graph_any("{bad")
        assert str(direct.value).startswith("bad JSON: ")
        assert str(direct.value) == str(sniffed.value)

    @pytest.mark.parametrize("edges", [
        [{"id": ["l"], "src": "a", "dst": "a"}],
        [{"id": "e", "src": "a", "dst": "b"}, {"id": 7, "src": "a", "dst": "b"}],
        [{"id": "e", "src": {"v": "a"}, "dst": "b"}],
        [{"id": "e", "src": "a", "dst": None}],
    ], ids=["list-id", "int-id-among-strings", "object-src", "null-dst"])
    def test_non_string_edge_fields_rejected(self, edges, tmp_path, capsys):
        obj = {"vertices": ["a", "b"], "edges": edges}
        with pytest.raises(ParseError) as exc:
            parse_graph_json(obj)
        assert str(exc.value) == "edge id, src and dst must be strings"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        assert main(["decide", str(path), "--field", "Q"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "must be strings" in captured.err

    @pytest.mark.parametrize("edges", [None, 5, "xyz", {"id": "e"}],
                             ids=["null", "number", "string", "object"])
    def test_edges_not_a_list_rejected(self, edges, tmp_path, capsys):
        obj = {"vertices": ["a"], "edges": edges}
        with pytest.raises(ParseError) as exc:
            parse_graph_json(obj)
        assert str(exc.value) == "edges must be a list of objects"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "edges must be a list of objects" in captured.err
        assert "Traceback" not in captured.err


class TestIdsTheGrammarCanSpell:
    """Both graph parsers refuse an id that element expressions cannot
    spell, since claims printed over it would not parse back."""

    # (vertices, edges, message); edges are (id, src, dst)
    REFUSED = [
        (["a", "b"], [("a", "a", "b")],
         "identifier 'a' names both a vertex and an edge"),
        (["x-1", "b"], [("e", "x-1", "b")],
         "identifier 'x-1' must be nonempty letters, digits and _:@(),"),
        (["a", "b"], [("e.f", "a", "b")],
         "identifier 'e.f' must be nonempty letters, digits and _:@(),"),
        (["v\u00e9", "b"], [],
         "identifier 'v\u00e9' must be nonempty letters, digits and _:@(),"),
    ]

    @staticmethod
    def _files(tmp_path, vertices, edges):
        text = tmp_path / "g.txt"
        text.write_text("".join(f"vertex {v}\n" for v in vertices)
                        + "".join(f"edge {e} {s} {d}\n" for e, s, d in edges),
                        encoding="utf-8")
        data = tmp_path / "g.json"
        data.write_text(json.dumps(graph_to_json(Graph.build(vertices, edges))))
        return text, data

    @pytest.mark.parametrize("vertices,edges,message", REFUSED,
                             ids=["vertex-and-edge", "dash", "dot", "non-ascii"])
    def test_refused_through_the_cli(self, vertices, edges, message, tmp_path, capsys):
        for path in self._files(tmp_path, vertices, edges):
            for argv in (["decide", str(path), "--field", "GF(5)"],
                         ["witness", "improper", str(path), "--field", "GF(5)", "--json"],
                         ["witness", "unit", str(path), "--field", "Q", "-e", "b",
                          "--json"]):
                assert main(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {message}\n", argv

    @pytest.mark.parametrize("name", ["", "\ud800"], ids=["empty", "lone-surrogate"])
    def test_json_only_ids_refused(self, name, tmp_path, capsys):
        for obj in ({"vertices": [name, "b"], "edges": []},
                    {"vertices": ["a", "b"], "edges": [{"id": name, "src": "a", "dst": "b"}]}):
            with pytest.raises(ParseError) as exc:
                parse_graph_json(obj)
            assert str(exc.value) == (f"identifier {name!r} must be nonempty letters, "
                                      "digits and _:@(),")
            path = tmp_path / "g.json"
            path.write_text(json.dumps(obj))
            assert main(["analyze", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_index_errors_come_first(self):
        # duplicate and dangling ids keep their messages
        with pytest.raises(ParseError, match="^duplicate identifier x-1$"):
            parse_graph("vertex x-1\nvertex x-1\n")
        with pytest.raises(ParseError, match="^dangling endpoint a$"):
            parse_graph_json({"vertices": ["a"], "edges": [{"id": "a", "src": "a", "dst": "z"}]})

    def test_grammar_punctuation_and_empty_graphs_accepted(self, tmp_path, capsys):
        g = Graph.build(["_", "(a,b)", "x@1", "edge:e1"],
                        [("f_1", "_", "(a,b)"), ("g:2", "x@1", "edge:e1")])
        assert parse_graph(format_graph(g)) == g
        assert parse_graph_json(graph_to_json(g)) == g
        assert parse_graph_json({"vertices": [], "edges": []}) == Graph.build([], [])
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        assert main(["witness", "unit", str(path), "--field", "Q",
                     "-e", "f_1 + 2*x@1", "--json"]) == 0
        assert verify_claims(g, Q, json.loads(capsys.readouterr().out)["claims"])


class TestParseElement:
    def test_improper_certificate_input(self):
        x = parse_element("v2 + e1", LINE2, GF2)
        assert x == Element.vertex(LINE2, GF2, "v2") + Element.edge(LINE2, GF2, "e1")

    def test_ck1_product(self):
        assert parse_element("e1*.e1", LINE2, Q) == Element.vertex(LINE2, Q, "v2")

    def test_double_dot_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_element("e1..e2", LINE2, Q)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_element("zz", LINE2, Q)

    def test_ambiguous_identifier(self):
        # Graph.build accepts a vertex and an edge of one id; an expression
        # cannot tell them apart
        g = Graph.build(["x", "y"], [("x", "x", "y")])
        with pytest.raises(ParseError) as caught:
            parse_element("y + x", g, Q)
        assert str(caught.value) == "ambiguous identifier 'x' (both a vertex and an edge)"

    def test_bare_coefficient_scales_identity(self):
        assert parse_element("3", LINE2, Q) == Element.one(LINE2, Q).scale(3)

    def test_coefficient_attachment(self):
        got = parse_element("1/2*e1 + v2", LINE2, Q)
        want = Element.edge(LINE2, Q, "e1").scale(Q.parse_literal("1/2")) + \
            Element.vertex(LINE2, Q, "v2")
        assert got == want

    def test_gaussian_literals_are_atomic(self):
        glued = parse_element("1+2i*e1", LINE2, QI)
        spaced = parse_element("1 + 2i*e1", LINE2, QI)
        assert glued == Element.edge(LINE2, QI, "e1").scale(QI.parse_literal("1+2i"))
        assert spaced == Element.one(LINE2, QI) + \
            Element.edge(LINE2, QI, "e1").scale(QI.parse_literal("2i"))

    def test_leading_minus_on_factors(self):
        assert parse_element("-v1", LINE2, Q) == -Element.vertex(LINE2, Q, "v1")

    def test_subtraction(self):
        x = parse_element("v1 - v1", LINE2, Q)
        assert x.is_zero

    def test_vanishing_products_are_zero_not_errors(self):
        assert parse_element("e1.e1", LINE2, Q).is_zero
        assert parse_element("v1.v2", LINE2, Q).is_zero

    def test_ef_graph_identifiers(self):
        g = e_f_graph(LINE2, {"e1"})
        k = Q
        x = parse_element("(edge:e1,vertex:v2).(edge:e1,vertex:v2)*", g, k)
        assert x == Element.vertex(g, k, "edge:e1")

    def test_one_normalization_and_no_products(self, monkeypatch):
        from leavitt import algebra, io

        calls = []
        original = algebra._normalize_terms

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def no_products(*args):
            raise AssertionError("Element.__mul__ called")

        for module in (algebra, io):
            monkeypatch.setattr(module, "_normalize_terms", counted)
        monkeypatch.setattr(Element, "__mul__", no_products)
        text = "2*e1.e1*.v1 - e1*.e1 + 3 + v2.e1*"
        x = parse_element(text, LINE2, Q)
        monkeypatch.undo()
        assert len(calls) == 1
        assert x == oracle_parse_element(text, LINE2, Q)
        assert format_element(x) == "5*v1 + 2*v2 + e1*"

    @pytest.mark.parametrize("text, column", [("v1 +", 5), ("v1 + ", 6), ("v1 - ", 6)])
    def test_missing_term_is_reported_at_the_end(self, text, column):
        # the end of the text is column len + 1, past any trailing space
        with pytest.raises(ParseError) as caught:
            parse_element(text, LINE2, Q)
        assert str(caught.value) == f"column {column}: expected an identifier"

    def test_round_trips(self, rng):
        fields = FIVE_FIELDS + (QuadraticExtField(3),)
        for g in corpus().values():
            for k in fields:
                for _ in range(15):
                    x = random_element(g, k, rng)
                    assert parse_element(format_element(x), g, k) == x


LONG_VERTEX, LONG_EDGE = "v" * 1000, "e" * 1000
LONG_IDS = Graph.build([LONG_VERTEX, "x"], [(LONG_EDGE, LONG_VERTEX, "x")])


class TestParserWorkGate:
    """Whitespace and identifiers are scanned by compiled patterns, so the
    lines of ``leavitt/io.py`` that a parse runs do not grow with the length
    of a name or of a run of spaces (2,056 / 2,092 / 6,056 line events when
    the parser read one character per loop step)."""

    @staticmethod
    def io_lines(text, g, k):
        """(element, line events in ``leavitt/io.py``) of parsing text."""
        from leavitt import io

        count = 0

        def trace(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != io.__file__:
                return None
            count += event == "line"
            return trace

        sys.settrace(trace)
        try:
            x = parse_element(text, g, k)
        finally:
            sys.settrace(None)
        return x, count

    @pytest.mark.parametrize("text, expected", [
        (LONG_VERTEX, LONG_VERTEX),
        (f"2*{LONG_EDGE}.x", f"2*{LONG_EDGE}"),
        (" " * 1000 + LONG_VERTEX + " " * 1000, LONG_VERTEX),
    ], ids=["vertex", "edge", "padded"])
    def test_line_events_bounded(self, text, expected):
        x, lines = self.io_lines(text, LONG_IDS, Q)
        assert format_element(x) == expected
        assert lines <= 100


class TestFormatting:
    def test_zero(self):
        assert format_element(Element.zero(LINE2, Q)) == "0"

    def test_unit_coefficient_omitted(self):
        assert format_element(Element.vertex(LINE2, Q, "v1")) == "v1"

    def test_negative_coefficients_float_out(self):
        x = Element.vertex(LINE2, Q, "v1") - Element.vertex(LINE2, Q, "v2")
        assert format_element(x) == "v1 - v2"

    def test_mixed_sign_gaussian_kept_inline(self):
        c = QI.parse_literal("-1+2i")
        x = Element.vertex(LINE2, QI, "v1") + Element.vertex(LINE2, QI, "v2").scale(c)
        assert format_element(x) == "v1 + -1+2i*v2"
        assert parse_element(format_element(x), LINE2, QI) == x

    def test_monomial_shapes(self):
        from leavitt import Path

        rose = standard_graph("rose", 2)
        # ends in the non-special edge e1 on both sides, so already normal
        x = Element.from_terms(
            rose, Q, [(1, Path("v", ("e1", "e1")), Path("v", ("e2", "e1")))])
        assert format_element(x) == "e1.e1.e1*.e2*"
        assert parse_element("e1.e1.e1*.e2*", rose, Q) == x

    # identifiers that are whole field literals: "1" over Q reads as the
    # identity, "i" over Q[i] as the scalar i, unless written "1*..."
    LITERAL_IDS = [("Q[i]/id", "i", "1i"), ("Q[i]/conj", "i", "1i"),
                   ("GF(3,2)", "t", "2t"), ("Q", "1", "2"), ("GF(5)", "1", "2")]

    @pytest.mark.parametrize("spec,x,y", LITERAL_IDS)
    def test_literal_like_ids_round_trip(self, spec, x, y):
        k = parse_field_spec(spec)
        on_vertices = Graph.build([x, y, "w"], [("e", "w", x)])
        on_edges = Graph.build(["a", "b"], [(x, "a", "b"), (y, "a", "b")])
        for g in (on_vertices, on_edges):
            gens = [Element.vertex(g, k, u) for u in g.vertices]
            gens += [Element.edge(g, k, f.id) for f in g.edges]
            gens += [Element.edge(g, k, f.id).star() for f in g.edges]
            gens.append(Element.one(g, k))
            elements = gens + [-u for u in gens]
            elements += [u - w for u in gens for w in gens if u != w]
            for elem in elements:
                assert parse_element(format_element(elem), g, k) == elem

    def test_id_with_a_zero_denominator_still_formats(self):
        g = Graph.build(["1/0", "2/0i"], [])
        for k in (Q, GaussianRationals(conjugation=True)):
            assert format_element(Element.vertex(g, k, "1/0")) == "1/0"
            assert format_element(Element.vertex(g, k, "2/0i")) == "2/0i"

    @pytest.mark.parametrize("spec,x,y", LITERAL_IDS)
    def test_literal_like_ids_claims_reverify(self, spec, x, y, tmp_path, capsys):
        k = parse_field_spec(spec)
        g = Graph.build(["a", "b", x], [(y, "a", "b")])
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        for kind in ("regular", "unit", "projection"):
            for text in (f"1*{y}", f"1*{x} - 1*{y}*", f"a + 1*{y}"):
                argv = ["witness", kind, str(path), "--field", spec, "-e", text, "--json"]
                assert main(argv) == 0, argv
                out = json.loads(capsys.readouterr().out)
                assert verify_claims(g, k, out["claims"]), argv


class TestReportSerialization:
    def test_json_and_text_agree_on_corpus(self):
        for g in corpus().values():
            for k in FIVE_FIELDS:
                report = full_report(g, k)
                data = report_to_json(report)
                text = format_report(report)
                assert data["field"] == k.spec_string()
                for key in ("acyclic", "regular", "star_regular",
                            "positive_definite_algebra"):
                    assert f"{key}: {'true' if data[key] else 'false'}" in text
                assert f"sigma: {data['sigma']}" in text
                assert f"properness_level: {data['properness_level']}" in text
                assert f"proper_algebra: {data['proper_algebra']}" in text
                if data["improper_certificate"] is not None:
                    assert data["improper_certificate"] in text

    def test_omega_serialization(self):
        report = full_report(standard_graph("rose", 1), Q)
        data = report_to_json(report)
        assert data["sigma"] == "omega"
        assert data["properness_level"] == "omega"


class TestMatrixImageJson:
    def test_line2_identity(self):
        image = phi(Element.one(LINE2, Q))
        data = matrix_image_to_json(image)
        assert data == [{"sink": "v2", "size": 2, "rows": [["1", "0"], ["0", "1"]]}]


class TestClaims:
    def test_claim_round_trip(self):
        a = Element.edge(LINE2, Q, "e1")
        b = a.star()
        claims = [
            claim_product_equals([a, b, a], a),
            claim_star_fixed(Element.vertex(LINE2, Q, "v1")),
            claim_nonzero(a),
        ]
        assert verify_claims(LINE2, Q, claims)

    def test_improper_claim(self):
        a = parse_element("v2 + e1", LINE2, GF2)
        assert verify_claims(LINE2, GF2, [claim_star_product_zero(a), claim_nonzero(a)])

    def test_false_claim_detected(self):
        a = Element.edge(LINE2, Q, "e1")
        bad = claim_product_equals([a, a], a)
        assert not verify_claims(LINE2, Q, [bad])

    def test_unknown_claim_type_is_not_serialized(self):
        with pytest.raises(UnknownClaimError, match="unknown claim type 'bogus'"):
            claims_to_json([("bogus", Element.vertex(LINE2, Q, "v1"))])

    def test_unknown_claim_type_is_parse_error(self):
        with pytest.raises(ParseError, match="unknown claim type 'bogus'"):
            verify_claims(LINE2, Q, [{"type": "bogus", "arg": "v1"}])

    @pytest.mark.parametrize("claims, message", [
        ([{"type": "nonzero"}], "claim has no 'arg'"),
        ("abc", "claims must be a list, not str"),
        (None, "claims must be a list, not NoneType"),
        (5, "claims must be a list, not int"),
        ([["nonzero", "v1"]], "a claim must be an object, not list"),
        ([{"type": "nonzero", "arg": 5}], "claim 'arg' must be a string"),
        ([{"type": "product_equals", "factors": [], "equals": "v1"}],
         "claim 'factors' must be a non-empty list of strings"),
    ])
    def test_malformed_claims_are_one_parse_error(self, claims, message):
        # before these checks: KeyError, TypeError (five inputs), IndexError
        with pytest.raises(ParseError) as exc:
            verify_claims(LINE2, Q, claims)
        assert str(exc.value) == message

    def test_each_element_formatted_once(self, monkeypatch, tmp_path, capsys):
        # one whole witness command: the payload and the claims print each
        # distinct element object once, and later prints reuse its text
        from leavitt import algebra
        from leavitt.witness import UnitRegularCertificate, unit_regular_claims

        path = tmp_path / "g.txt"
        path.write_text(format_graph(LINE2))
        formatted = []
        original = algebra._format_terms

        def counted(x):
            formatted.append(x)
            return original(x)

        monkeypatch.setattr(algebra, "_format_terms", counted)
        assert main(["witness", "unit", str(path), "--field", "Q",
                     "-e", "e1 + v2", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len({id(x) for x in formatted}) == len(formatted) == 4
        texts = {out[key] for key in ("input", "u", "u_prime", "v")}
        assert {format_element(x) for x in formatted} == texts
        assert len(out["claims"]) == 5 and verify_claims(LINE2, Q, out["claims"])
        a, u, u_prime, v = formatted
        assert out["claims"][0] == claim_product_equals([u, u_prime], v)
        assert out["claims"] == claims_to_json(
            unit_regular_claims(a, UnitRegularCertificate(u, u_prime, v)))

    def test_formatted_element_equals_and_hashes_like_a_fresh_one(self):
        a = parse_element("e1 + 2*v2", LINE2, Q)
        text = format_element(a)
        fresh = parse_element("e1 + 2*v2", LINE2, Q)
        assert a == fresh and fresh == a
        assert hash(a) == hash(fresh)
        assert format_element(a) is text
        assert format_element(fresh) == text and {a: 1}[fresh] == 1

    def test_stops_at_first_false_claim(self):
        # a false claim ahead of an unparsable one decides the result
        a = Element.edge(LINE2, Q, "e1")
        claims = [claim_product_equals([a, a], a), {"type": "bogus"}]
        assert not verify_claims(LINE2, Q, claims)
