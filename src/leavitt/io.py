"""Parsing and serialization: graph files, element expressions, reports.

Graph text format, one declaration per line, '#' starts a comment:

    vertex <id>
    edge <id> <source-id> <range-id>

Text in the layout ``format_graph`` writes (vertex lines, then edge lines,
a newline after every line) is read in whole-text passes: two keyword
replacements that also count the lines, a newline count and a byte filter
prove the layout, and one ``split`` reads it. Any other text is read line
by line, with the same graph or the same error.

The structured (JSON) graph format is an object with "vertices" and "edges"
keys only; edges are {"id","src","dst"} objects. Every reader produces the
graph's columns (the vertex tuple and the edge ids, sources and ranges, see
``graphs.Graph.from_columns``) and builds no ``Edge``; ``format_graph`` and
``graph_to_json`` read the columns too, and the CLI's ``--json`` writer
writes the same edge objects straight from the columns, with no dict per
edge (``cli._graph_json``). Both parsers build the graph's index, which
rejects duplicate identifiers and dangling endpoints with the messages of
``graphs.validate``, and then refuse an id that the expression grammar
below cannot spell.

Element expressions follow

    expr    := term (('+'|'-') term)*
    term    := [coeff '*'] factors | coeff
    factors := factor ('.' factor)*
    factor  := identifier ['*']

where coeff is a field literal. Coefficient literals are atomic: "1+2i*e1"
is (1+2i)*e1, while "1 + 2i*e1" is 1 + (2i)*e1. A bare coeff term means
coeff times the identity (the sum of all vertices). Printing emits the same
grammar with terms in canonical monomial order.

Each term's factors fold into a normal form through
``algebra._product``, the product kernel of ``Element.__mul__``, so a
term is a few (payload, p, q) triples in normal form (none if it
vanishes), or one per vertex for a bare coeff; the terms are summed
once, at the end. A zero literal never reaches the kernel. A name is
resolved through the index's ``pos`` and ``edge_pos``, and an edge's
source and range are read off the columns, so parsing builds no ``Edge``
either. The parser is a recursive descent; two compiled patterns scan
the text, ``_SPACE`` for whitespace and ``_FACTOR`` for an identifier
and its optional '*', so its Python steps do not grow with the length of
a name or of a run of spaces.
An error names a 1-based column; the end of the text is column len + 1.
"""

from __future__ import annotations

import json
import re
from itertools import repeat

from .algebra import Element, _edge_monomial, _make, _normalize_terms, _product, format_element
from .fields import Field
from .graphs import Graph, GraphError, Path
from .omega import extnat_to_json
from .semisimple import MatrixImage
from .decide import DecisionReport
from .witness import UnknownClaimError, check_claims

__all__ = [
    "ParseError",
    "parse_graph",
    "parse_graph_json",
    "parse_graph_any",
    "format_graph",
    "graph_to_json",
    "parse_element",
    "format_element",
    "matrix_image_to_json",
    "format_matrix_image",
    "report_to_json",
    "format_report",
    "claims_to_json",
    "verify_claims",
]


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphs


def parse_graph(text: str) -> Graph:
    """The line-oriented text format; raises with line numbers on bad syntax
    and with offending identifiers on broken invariants.

    Text in ``format_graph``'s layout (vertex lines, then edge lines, a
    newline after every line, only ``_IDENT_CHARS`` and spaces between)
    is read with one ``split`` of the whole text. Whole-text passes prove
    that layout before the tokens are read by position: the keyword
    replacements count the lines that start ``vertex `` and ``edge `` by
    how much they shorten the text, and their sum must equal the newline
    count, so every newline ends a line that starts with a keyword; once
    each keyword is spelled as a character no id has, the keywords sit
    where lines of two and of four tokens put them. Any other text is read
    line by line by ``_parse_lines``; both give the same graph and the same
    errors."""
    # "<" and ">" for the keywords: split returns one shared object for a
    # one-character token, so the keywords cost no memory. Each "\nvertex "
    # replaced shortens the text by 5, each "\nedge " by 3.
    size = len(text) + 1
    body = ("\n" + text).replace("\nvertex ", "\n< ")
    nv, size = (size - len(body)) // 5, len(body)
    body = body.replace("\nedge ", "\n> ")
    ne = (size - len(body)) // 3
    if (nv + ne != text.count("\n") or not text.endswith("\n") or not text.isascii()
            or text.encode().translate(None, _LAYOUT_CHARS)):
        del body  # not held through the line-by-line read
        return _parse_lines(text)
    # A tuple, not a list: its stride slices are the graph's columns as
    # they are, with no further copy.
    tokens = body.split()
    del body
    tokens = tuple(tokens)
    cut = 2 * nv
    if (len(tokens) != cut + 4 * ne or tokens[0:cut:2].count("<") != nv
            or tokens[cut::4].count(">") != ne):
        return _parse_lines(text)
    g = Graph.from_columns(tokens[1:cut:2], tokens[cut + 1::4], tokens[cut + 2::4],
                           tokens[cut + 3::4])
    del tokens  # freed before the index is built
    return _indexed(g, spelled=True)


def _parse_lines(text: str) -> Graph:
    """``parse_graph`` one line at a time, for text in any layout."""
    vertices, ids, srcs, dsts = [], [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        n = len(tokens)
        if n == 4 and tokens[0] == "edge":
            ids.append(tokens[1])
            srcs.append(tokens[2])
            dsts.append(tokens[3])
        elif n == 2 and tokens[0] == "vertex":
            vertices.append(tokens[1])
        elif n:
            raise ParseError(f"line {lineno}: expected 'vertex <id>' or "
                             f"'edge <id> <src> <dst>', got {line.strip()!r}")
    return _indexed(Graph.from_columns(vertices, ids, srcs, dsts))


def _indexed(g: Graph, spelled: bool = False) -> Graph:
    """g with its index built; the index refuses duplicate identifiers and
    dangling endpoints, reported here as a ParseError. Then every id must be
    one the expression grammar can spell (nonempty ``_IDENT_CHARS``, never
    both a vertex and an edge), or printed claims would not parse back. One
    pass over the joined ids checks the first half, unless ``spelled`` says
    the caller has proved it; only a refused graph is scanned id by id, to
    name the first offender."""
    try:
        index = g.index
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    vertices, edges = index.pos.keys(), index.edge_pos
    if not spelled:
        ids = "".join(g.vertices) + "".join(edges)
        if ("" in vertices or "" in edges or not ids.isascii()
                or ids.encode().translate(None, _IDENT_BYTES)):
            name = next(name for name in (*g.vertices, *edges)
                        if not name or not _IDENT_CHARS.issuperset(name))
            raise ParseError(f"identifier {name!r} must be nonempty letters, "
                             f"digits and _:@(),")
    if vertices.isdisjoint(edges):
        return g
    name = next(v for v in g.vertices if v in edges)
    raise ParseError(f"identifier {name!r} names both a vertex and an edge")


def parse_graph_json(obj) -> Graph:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("graph object expected")
    unknown = set(obj) - {"vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    vertices = obj.get("vertices", [])
    edges_in = obj.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("vertices must be a list of strings")
    if not isinstance(edges_in, list):
        raise ParseError("edges must be a list of objects")
    ids, srcs, dsts = [], [], []
    for e in edges_in:
        if not isinstance(e, dict):
            raise ParseError("edges must be objects")
        bad = set(e) - {"id", "src", "dst"}
        if bad:
            raise ParseError(f"unknown edge keys: {sorted(bad)}")
        try:
            eid, src, dst = e["id"], e["src"], e["dst"]
        except KeyError as missing:
            raise ParseError(f"edge missing key {missing}") from None
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(dst, str)):
            raise ParseError("edge id, src and dst must be strings")
        ids.append(eid)
        srcs.append(src)
        dsts.append(dst)
    return _indexed(Graph.from_columns(vertices, ids, srcs, dsts))


def parse_graph_any(text: str) -> Graph:
    """Sniff the format: JSON if the first non-space character is '{'. One
    leading byte order mark (U+FEFF), as some editors write, is dropped
    first."""
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph(text)


def format_graph(g: Graph) -> str:
    lines = list(map("vertex ".__add__, g.vertices))
    lines += map(" ".join, zip(repeat("edge"), g.ids, g.srcs, g.dsts))
    return "\n".join(lines) + ("\n" if lines else "")


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": i, "src": s, "dst": d} for i, s, d in zip(g.ids, g.srcs, g.dsts)],
    }


# ---------------------------------------------------------------------------
# element expressions

_IDENT_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:@(),"
_IDENT_CHARS = frozenset(_IDENT_ALPHABET)
_IDENT_BYTES = _IDENT_ALPHABET.encode()
# the bytes of text in ``format_graph``'s layout: id characters, space, newline
_LAYOUT_CHARS = _IDENT_BYTES + b" \n"
_SPACE = re.compile(r"\s*")
# a factor: an identifier and an optional "*", whitespace around either
_FACTOR = re.compile(rf"\s*([{re.escape(_IDENT_ALPHABET)}]*)\s*(\*?)")


class _ExprParser:
    def __init__(self, text: str, g: Graph, k: Field):
        self.text = text
        self.pos = 0
        self.g = g
        self.k = k
        self.vertex_pos, self.edge_pos = g.index.pos, g.index.edge_pos

    def fail(self, message):
        raise ParseError(f"column {self.pos + 1}: {message}")

    def next_char(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        self.pos = pos = _SPACE.match(self.text, self.pos).end()
        return self.text[pos:pos + 1]

    def parse(self) -> Element:
        if not self.next_char():
            self.fail("empty expression")
        raw = self.parse_term()
        while True:
            ch = self.next_char()
            if not ch:
                return _make(self.g, self.k, _normalize_terms(self.g, self.k, raw))
            if ch not in "+-":
                self.fail(f"unexpected character {ch!r}")
            self.pos += 1
            term = self.parse_term()
            if ch == "-":
                neg = self.k._neg
                term = [(neg(c), p, q) for c, p, q in term]
            raw += term

    def parse_term(self) -> list:
        """The term as (payload, p, q) triples with nonzero payloads, each
        in normal form; ``parse`` sums the terms once, at the end."""
        first = self.next_char()
        start = self.pos
        scanned = self.k.scan_literal(self.text, start)
        if scanned is not None:
            coeff, self.pos = scanned
            ch = self.next_char()
            if ch == "*":
                self.pos += 1
                return self.monomial_term(coeff.payload)
            if ch in ("", "+", "-"):
                c = coeff.payload
                if self.k._is_zero(c):  # the parser's door for a zero literal
                    return []
                return [(c, Path(v, ()), Path(v, ())) for v in self.g.vertices]
            self.pos = start  # looked like a literal but is not one: re-read
        c = self.k._from_int(1)
        if first in ("+", "-"):
            # sign before plain factors, e.g. "-v1"
            if first == "-":
                c = self.k._neg(c)
            self.pos += 1
        return self.monomial_term(c)

    def monomial_term(self, c) -> list:
        """c times the factors' product, as (payload, p, q) triples in
        normal form. Each factor folds in through ``_product``, the kernel
        of ``Element.__mul__``."""
        factor = self.parse_factor()
        # the parser's door: a zero literal never reaches the kernel, but its
        # factors are still parsed and resolved, so their errors are reported
        term = {} if self.k._is_zero(c) else {factor: c}
        one = self.k._from_int(1)
        while self.next_char() == ".":
            self.pos += 1
            factor = self.parse_factor()
            if term:
                term = _product(self.g, self.k, term, {factor: one})
        return [(x, p, q) for (p, q), x in term.items()]

    def parse_factor(self):
        m = _FACTOR.match(self.text, self.pos)
        name, star = m.group(1, 2)
        if not name:
            self.pos = m.start(1)
            self.fail("expected an identifier")
        self.pos = m.end()
        return self.resolve(name, bool(star))

    def resolve(self, name: str, adjoint: bool):
        """The monomial (p, q) that a vertex, an edge or a ghost stands for."""
        is_vertex = name in self.vertex_pos
        is_edge = name in self.edge_pos
        if is_vertex and is_edge:
            raise ParseError(f"ambiguous identifier {name!r} (both a vertex and an edge)")
        if is_vertex:
            t = Path(name, ())
            return t, t
        if is_edge:
            mono = _edge_monomial(self.g, name)
            return mono[::-1] if adjoint else mono
        raise ParseError(f"unknown identifier {name!r}")


def parse_element(text: str, g: Graph, k: Field) -> Element:
    return _ExprParser(text, g, k).parse()


# ---------------------------------------------------------------------------
# matrix images and reports


def matrix_image_to_json(image: MatrixImage) -> list:
    literal = image.field.literal
    zero = literal(image.field.zero.payload)
    out = []
    for v in image.basis.sinks:
        rows = image.rows[v]
        dense = [[zero] * len(rows) for _ in rows]
        for out_row, row in zip(dense, rows):
            for j, x in row.items():
                out_row[j] = literal(x)
        out.append({"sink": v, "size": len(rows), "rows": dense})
    return out


def format_matrix_image(image: MatrixImage) -> str:
    lines = []
    for entry in matrix_image_to_json(image):
        lines.append(f"sink {entry['sink']} (size {entry['size']}):")
        width = max((len(x) for row in entry["rows"] for x in row), default=1)
        for row in entry["rows"]:
            lines.append("  [ " + "  ".join(x.rjust(width) for x in row) + " ]")
    return "\n".join(lines)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def report_to_json(report: DecisionReport) -> dict:
    return {
        "field": report.field.spec_string(),
        "acyclic": report.acyclic,
        # in vertex order already, and all ints when acyclic
        "mu": report.mu if report.acyclic else {
            v: extnat_to_json(report.mu[v]) for v in report.graph.vertices},
        "sigma": extnat_to_json(report.sigma),
        "properness_level": extnat_to_json(report.properness_level),
        "regular": report.regular,
        "star_regular": report.star_regular,
        "positive_definite_algebra": report.positive_definite_algebra,
        "proper_algebra": report.proper_algebra,
        "improper_certificate": (
            format_element(report.improper_certificate)
            if report.improper_certificate is not None else None
        ),
    }


def format_report(report: DecisionReport) -> str:
    data = report_to_json(report)
    mu_line = " ".join(f"{v}={data['mu'][v]}" for v in report.graph.vertices)
    lines = [
        f"field: {data['field']}",
        f"acyclic: {_bool_str(data['acyclic'])}",
        f"mu: {mu_line}" if mu_line else "mu: (no vertices)",
        f"sigma: {data['sigma']}",
        f"properness_level: {data['properness_level']}",
        f"regular: {_bool_str(data['regular'])}",
        f"star_regular: {_bool_str(data['star_regular'])}",
        f"positive_definite_algebra: {_bool_str(data['positive_definite_algebra'])}",
        f"proper_algebra: {data['proper_algebra']}",
    ]
    if data["improper_certificate"] is not None:
        lines.append(f"improper_certificate: {data['improper_certificate']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# machine-checkable claims (witness serialization; the vocabulary and the
# evaluator live in ``leavitt.witness``)


def claim_product_equals(factors, equals) -> dict:
    return {"type": "product_equals",
            "factors": [format_element(x) for x in factors],
            "equals": format_element(equals)}


def claim_star_fixed(x) -> dict:
    return {"type": "star_fixed", "arg": format_element(x)}


def claim_star_product_zero(x) -> dict:
    return {"type": "star_product_zero", "arg": format_element(x)}


def claim_nonzero(x) -> dict:
    return {"type": "nonzero", "arg": format_element(x)}


def claims_to_json(claims) -> list:
    """Serialize ``leavitt.witness`` claim tuples, keeping their order. An
    element keeps its printed text, so one that appears in several claims
    (or was printed before) is formatted once."""
    writers = {"product_equals": claim_product_equals, "star_fixed": claim_star_fixed,
               "star_product_zero": claim_star_product_zero, "nonzero": claim_nonzero}
    out = []
    for kind, *args in claims:
        if kind not in writers:
            raise UnknownClaimError(f"unknown claim type {kind!r}")
        out.append(writers[kind](*args))
    return out


def _parse_claim(g: Graph, k: Field, claim) -> tuple:
    if not isinstance(claim, dict):
        raise ParseError(f"a claim must be an object, not {type(claim).__name__}")
    kind = _claim_field(claim, "type")
    if kind == "product_equals":
        factors = _claim_field(claim, "factors", "a non-empty list of strings", lambda x: (
            isinstance(x, list) and x and all(isinstance(t, str) for t in x)))
        return (kind, [parse_element(t, g, k) for t in factors],
                parse_element(_claim_field(claim, "equals"), g, k))
    if kind in ("star_fixed", "star_product_zero", "nonzero"):
        return (kind, parse_element(_claim_field(claim, "arg"), g, k))
    raise ParseError(f"unknown claim type {kind!r}")


def _claim_field(claim: dict, key: str, what="a string", ok=lambda x: isinstance(x, str)):
    if key not in claim:
        raise ParseError(f"claim has no {key!r}")
    if not ok(claim[key]):
        raise ParseError(f"claim {key!r} must be {what}")
    return claim[key]


def verify_claims(g: Graph, k: Field, claims) -> bool:
    """Parse serialized claims back into claim tuples and check them with
    ``witness.check_claims``, one at a time, so checking stops at the first
    false one; a malformed claim list or claim is one ``ParseError``."""
    if not isinstance(claims, list):
        raise ParseError(f"claims must be a list, not {type(claims).__name__}")
    return check_claims(_parse_claim(g, k, claim) for claim in claims)
