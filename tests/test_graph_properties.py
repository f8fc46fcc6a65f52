"""Property tests of the path counts and the incidence tables on small random
multigraphs, checked through the forward-walk and reachability oracles of
conftest and a brute-force scan of the edges; invalid draws must be refused
with validate's messages. Every reader and constructor gives one graph, or
one error, for the same data."""

import json
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from leavitt import OMEGA, Graph, GraphError, is_acyclic, mu_table, sigma  # noqa: E402
from leavitt.graphs import (  # noqa: E402
    Edge,
    edge_by_id,
    in_edges,
    out_edges,
    path_range,
    sinks,
    validate,
)
from leavitt.io import _parse_lines, format_graph, graph_to_json, parse_graph  # noqa: E402
from leavitt.io import parse_graph_json  # noqa: E402

from conftest import brute_paths, cycle_reached  # noqa: E402
from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402


@st.composite
def multigraphs(draw, invalid=False):
    """Up to 5 vertices listed in a shuffled order and up to 7 edges between
    any two of them: loops and parallel edges included. With ``invalid``,
    each of three faults may also be drawn: a repeated vertex, a repeated
    edge id, and an edge with an endpoint missing from the vertex list."""
    n = draw(st.integers(0, 5))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    ends = st.integers(0, n - 1) if n else st.nothing()
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=7 if n else 0))
    edges = [(f"e{j}", f"v{s}", f"v{d}") for j, (s, d) in enumerate(pairs)]
    if invalid:
        if names and draw(st.booleans()):
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        if edges and draw(st.booleans()):
            _, s, d = draw(st.sampled_from(edges))
            edges.append((draw(st.sampled_from(edges))[0], s, d))
        if draw(st.booleans()):
            # "u" names no vertex; the other end may be a vertex or missing too
            other = draw(st.sampled_from(names)) if names else "u1"
            missing = [("u0", other), (other, "u0")][draw(st.integers(0, 1))]
            edges.append((f"e{len(pairs)}", *missing))
    return Graph.build(names, draw(st.permutations(edges)))


@PROPERTY_SETTINGS
@given(multigraphs())
def test_path_counts_match_the_oracles(g):
    table = mu_table(g)
    assert list(table) == list(g.vertices)
    reached = cycle_reached(g)
    # a path into a vertex no cycle reaches repeats no vertex
    counts = Counter(path_range(g, p) for p in brute_paths(g, max_len=len(g.vertices)))
    for v in g.vertices:
        if v in reached:
            assert table[v] is OMEGA, v
        else:
            assert table[v] == counts[v], v
    assert is_acyclic(g) == (not reached)
    finite = [table[v] for v in g.vertices if v not in reached]
    assert sigma(g) == (OMEGA if reached else max(finite, default=0))


@PROPERTY_SETTINGS
@given(multigraphs(invalid=True))
def test_tables_match_a_scan_or_refuse(g):
    errors = validate(g)
    if errors:
        message = "; ".join(errors)
        some_vertex = g.vertices[0] if g.vertices else "v0"
        readers = [mu_table, sinks, is_acyclic, lambda g: out_edges(g, some_vertex),
                   lambda g: in_edges(g, some_vertex)]
        for reader in readers:
            with pytest.raises(GraphError) as info:
                reader(g)
            assert str(info.value) == message
        return
    by_id = sorted(g.edges, key=lambda e: e.id)
    assert sinks(g) == tuple(v for v in g.vertices if all(e.src != v for e in g.edges))
    for v in g.vertices:
        assert out_edges(g, v) == tuple(e for e in by_id if e.src == v), v
        assert in_edges(g, v) == tuple(e for e in by_id if e.dst == v), v


def readings(g) -> dict:
    """The graph that each reader and constructor makes of g's data, with
    its index built, or the text of the error that refuses it, by name."""
    text = format_graph(g)
    edges = [tuple(e) for e in g.edges]
    makers = {
        "layout": lambda: parse_graph(text),
        "lines": lambda: _parse_lines("# the same graph\n" + text),
        "json": lambda: parse_graph_json(json.dumps(graph_to_json(g))),
        "build": lambda: Graph.build(list(g.vertices), edges),
        "init": lambda: Graph(g.vertices, tuple(map(Edge._make, edges))),
    }
    out = {}
    for name, make in makers.items():
        try:
            h = make()
            h.index
        except ValueError as exc:  # ParseError or GraphError
            out[name] = str(exc)
        else:
            out[name] = h
    return out


@PROPERTY_SETTINGS
@given(multigraphs(invalid=True))
def test_every_reader_gives_one_graph_or_one_error(g):
    errors = validate(g)
    got = readings(g)
    if errors:
        message = "; ".join(errors)
        assert "\n" not in message
        assert got == dict.fromkeys(got, message)
        return
    first = got["build"]
    for name, h in got.items():
        assert h == first and hash(h) == hash(first), name
        assert h.edges == first.edges and {type(e) for e in h.edges} <= {Edge}, name
        assert edge_by_id(h) == edge_by_id(first), name
        index = h.index
        assert (index.pos, index.src, index.dst) == (first.index.pos, first.index.src,
                                                     first.index.dst), name
