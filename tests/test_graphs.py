import contextlib
import gc
import itertools
import weakref
from dataclasses import FrozenInstanceError

import pytest

from leavitt import (
    Element,
    Graph,
    GraphError,
    InfinitePathSetError,
    OMEGA,
    Path,
    Rationals,
    classify_vertex,
    e_f_graph,
    enumerate_paths_to,
    graph_union,
    is_acyclic,
    m_n_graph,
    mu,
    mu_table,
    phi,
    relabel_graph,
    sigma,
    standard_graph,
    validate,
)
from leavitt.graphs import clock_graph, e_f_edge_count, is_path, sinks, vertex_set

from conftest import acyclic_corpus, binary_in_tree, brute_paths_to, corpus, paths_built


LINE2 = standard_graph("line", 2)
LINE3 = standard_graph("line", 3)
LOOP = standard_graph("rose", 1)


class TestGraphValue:
    def test_columns_of_different_lengths_refused(self):
        with pytest.raises(GraphError, match=r"^edge columns of different lengths$"):
            Graph.from_columns(["v1", "v2"], ["e1", "e2"], ["v1"], ["v2", "v2"])

    def test_attributes_cannot_be_assigned_or_deleted(self):
        g = standard_graph("line", 2)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'ids'"):
            g.ids = ()
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'vertices'"):
            del g.vertices
        assert g == standard_graph("line", 2)


class TestValidate:
    def test_empty_graph_ok(self):
        assert validate(Graph.build([], [])) == []

    def test_dangling_endpoint(self):
        g = Graph.build(["v2"], [("e1", "v1", "v2")])
        assert validate(g) == ["dangling endpoint e1"]

    def test_duplicate_edge_id(self):
        g = Graph.build(["v1", "v2"], [("e1", "v1", "v2"), ("e1", "v1", "v2")])
        assert "duplicate identifier e1" in validate(g)

    def test_duplicate_vertex_id(self):
        g = Graph.build(["v1", "v1"], [])
        assert validate(g) == ["duplicate identifier v1"]

    def test_corpus_valid(self):
        for g in corpus().values():
            assert validate(g) == []


class TestInvalidGraphsRefused:
    """Every table reader refuses an invalid graph with one GraphError that
    carries validate's messages."""

    CASES = {
        "duplicate_vertex": Graph.build(["v1", "v1"], [("e1", "v1", "v1")]),
        "duplicate_edge": Graph.build(["v1", "v2"], [("e1", "v1", "v2"), ("e1", "v2", "v1")]),
        "dangling_dst": Graph.build(["v1"], [("e1", "v1", "v2")]),
        "dangling_src": Graph.build(["v2"], [("e0", "v2", "v2"), ("e1", "v1", "v2")]),
        "all_three": Graph.build(["a", "b", "a"], [("e1", "a", "b"), ("e1", "b", "a"),
                                                    ("e2", "a", "z")]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("reader", [
        mu_table, sigma, sinks, is_acyclic,
        lambda g: phi(Element.one(g, Rationals())),
    ], ids=["mu_table", "sigma", "sinks", "is_acyclic", "phi"])
    def test_refused(self, name, reader):
        g = self.CASES[name]
        message = "; ".join(validate(g))
        assert message
        with pytest.raises(GraphError) as info:
            reader(g)
        assert str(info.value) == message


class TestClassify:
    def test_isolated_vertex(self):
        g = standard_graph("line", 1)
        info = classify_vertex(g, "v1")
        assert info.sink and info.source and info.out_degree == 0

    def test_line2_sink(self):
        info = classify_vertex(LINE2, "v2")
        assert info.sink and not info.source

    def test_rose2(self):
        info = classify_vertex(standard_graph("rose", 2), "v")
        assert not info.sink and not info.source and info.out_degree == 2

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            classify_vertex(LINE2, "nope")


class TestAcyclicity:
    def test_lines(self):
        for n in range(1, 6):
            assert is_acyclic(standard_graph("line", n))

    def test_single_loop(self):
        assert not is_acyclic(LOOP)

    def test_toeplitz(self):
        assert not is_acyclic(standard_graph("toeplitz"))


class TestMu:
    def test_isolated(self):
        assert mu(standard_graph("line", 1), "v1") == 1

    def test_line3_sink(self):
        # oracle: the three paths are v3, e2, e1e2
        assert len(brute_paths_to(LINE3, "v3")) == 3
        assert mu(LINE3, "v3") == 3

    def test_loop_vertex(self):
        assert mu(LOOP, "v") is OMEGA

    def test_matches_brute_force_on_acyclic_corpus(self):
        for g in acyclic_corpus().values():
            for v in g.vertices:
                assert mu(g, v) == len(brute_paths_to(g, v))

    def test_downstream_of_cycle_is_omega(self):
        assert mu(standard_graph("toeplitz"), "v2") is OMEGA

    def test_monotone_under_edge_removal(self):
        for g in corpus().values():
            base = mu_table(g)
            for dropped in g.edges:
                smaller = Graph(g.vertices,
                                tuple(e for e in g.edges if e.id != dropped.id))
                for v, count in mu_table(smaller).items():
                    assert count <= base[v]

    def test_paths_extend_to_sinks(self):
        # in an acyclic graph every path is a prefix of one ending at a sink,
        # so the per-sink counts add up to the number of sink-bound paths
        for g in acyclic_corpus().values():
            total = sum(mu(g, v) for v in sinks(g))
            sink_set = set(sinks(g))
            bound = [p for v in sink_set for p in brute_paths_to(g, v)]
            assert total == len(bound)


class TestSigma:
    def test_lines(self):
        for n in range(1, 6):
            assert sigma(standard_graph("line", n)) == n

    def test_roses(self):
        for n in (1, 2, 3):
            assert sigma(standard_graph("rose", n)) is OMEGA

    def test_empty(self):
        assert sigma(Graph.build([], [])) == 0

    def test_sigma_one_means_every_vertex_isolated(self):
        # any edge gives its range a second path, pushing sigma past 1
        for g in corpus().values():
            if sigma(g) == 1:
                assert g.edges == ()
        assert sigma(Graph.build(["a", "b"], [])) == 1

    def test_long_line(self):
        assert sigma(standard_graph("line", 5000)) == 5000


class TestIsPath:
    def test_edges_must_chain(self):
        assert is_path(LINE3, Path("v1", ("e1", "e2")))
        # e2 leaves v2, not v1; e1 cannot follow itself
        assert not is_path(LINE3, Path("v1", ("e2",)))
        assert not is_path(LINE3, Path("v1", ("e1", "e1")))
        assert not is_path(LINE3, Path("v2", ("e2", "e1")))


class TestEnumeratePaths:
    def test_isolated(self):
        g = standard_graph("line", 1)
        assert enumerate_paths_to(g, "v1") == [Path("v1", ())]

    def test_line2(self):
        assert enumerate_paths_to(LINE2, "v2") == [Path("v2", ()), Path("v1", ("e1",))]

    def test_line3(self):
        assert enumerate_paths_to(LINE3, "v3") == [
            Path("v3", ()), Path("v2", ("e2",)), Path("v1", ("e1", "e2")),
        ]

    def test_infinite_refused(self):
        with pytest.raises(InfinitePathSetError):
            enumerate_paths_to(LOOP, "v")

    def test_limit_zero_gives_no_path(self):
        assert enumerate_paths_to(standard_graph("line", 4), "v4", limit=0) == []

    def test_negative_limit_refused_before_any_table(self):
        g = standard_graph("line", 4)
        with pytest.raises(GraphError, match=r"^limit must be non-negative, got -1$"):
            enumerate_paths_to(g, "v4", limit=-1)
        assert "index" not in vars(g)

    def test_deterministic_and_ordered(self):
        for g in acyclic_corpus().values():
            for v in g.vertices:
                first = enumerate_paths_to(g, v)
                assert first == enumerate_paths_to(g, v)
                keys = [(len(p.edges), p.edges) for p in first]
                assert keys == sorted(keys)
                assert len(first) == mu(g, v)
                assert len(set(first)) == len(first)
                for n in range(len(first) + 2):
                    assert enumerate_paths_to(g, v, limit=n) == first[:n]

    def test_long_line(self):
        paths = enumerate_paths_to(standard_graph("line", 2000), "v2000")
        assert len(paths) == 2000
        assert paths[-1] == Path("v1", tuple(f"e{i}" for i in range(1, 2000)))

    def test_bounded_builds_only_the_paths_it_returns(self):
        # a star of 20,000 sources into t: the last level a limit of 3
        # reaches has 20,000 paths, of which 2 are kept
        n = 20_000
        star = Graph.build(["t", *(f"s{i}" for i in range(n))],
                           [(f"e{i}", f"s{i}", "t") for i in range(n)])
        paths, built = paths_built(lambda: enumerate_paths_to(star, "t", 3))
        assert paths == [Path("t", ()), Path("s0", ("e0",)), Path("s1", ("e1",))]
        assert built <= 3
        # control: the counter sees every path an unbounded call builds
        every, built = paths_built(lambda: enumerate_paths_to(star, "t"))
        assert every[:3] == paths and built == n + 1


class TestMnGraph:
    def test_single_vertex_gives_line2_shape(self):
        g = m_n_graph(standard_graph("line", 1), 2)
        assert len(g.vertices) == 2 and len(g.edges) == 1
        e = g.edges[0]
        assert e.dst == "v1" and e.src != "v1"

    def test_identity_for_n1(self):
        for g in corpus().values():
            assert m_n_graph(g, 1) == g

    def test_vertex_count(self):
        assert len(m_n_graph(LINE2, 3).vertices) == 6

    def test_mu_at_sink_doubles(self):
        g2 = m_n_graph(LINE2, 2)
        assert mu(g2, "v2") == 4
        assert len(brute_paths_to(g2, "v2")) == 4

    def test_mu_scaling(self):
        for g in acyclic_corpus().values():
            for n in (2, 3, 4):
                gn = m_n_graph(g, n)
                for v in g.vertices:
                    assert mu(gn, v) == n * mu(g, v)

    def test_sigma_scaling(self):
        for g in acyclic_corpus().values():
            for n in (2, 3, 4):
                assert sigma(m_n_graph(g, n)) == n * sigma(g)

    def test_sinks_preserved(self):
        for g in acyclic_corpus().values():
            assert sinks(m_n_graph(g, 3)) == sinks(g)

    def test_valid_output_and_fresh_names(self):
        for g in corpus().values():
            assert validate(m_n_graph(g, 3)) == []
        twice = m_n_graph(m_n_graph(LINE2, 2), 2)
        assert validate(twice) == []
        assert len(twice.vertices) == 8

    def test_rejects_bad_n(self):
        with pytest.raises(GraphError):
            m_n_graph(LINE2, 0)


class TestEfGraph:
    def test_line2_single_edge(self):
        expected = Graph.build(
            ["edge:e1", "vertex:v2"],
            [("(edge:e1,vertex:v2)", "edge:e1", "vertex:v2")],
        )
        assert e_f_graph(LINE2, {"e1"}) == expected

    def test_loop(self):
        g = standard_graph("rose", 1)
        expected = Graph.build(["edge:e1"], [("(edge:e1,edge:e1)", "edge:e1", "edge:e1")])
        assert e_f_graph(g, {"e1"}) == expected

    def test_acyclic_preserved_and_valid(self):
        for g in acyclic_corpus().values():
            ids = [e.id for e in g.edges]
            if not ids:
                continue
            out = e_f_graph(g, ids)
            assert validate(out) == []
            assert is_acyclic(out)

    def test_vertex_set_is_three_part_union(self):
        for g in corpus().values():
            ids = [e.id for e in g.edges]
            if not ids:
                continue
            f = set(ids[: max(1, len(ids) // 2)])
            out = e_f_graph(g, f)
            r_f = {e.dst for e in g.edges if e.id in f}
            s_f = {e.src for e in g.edges if e.id in f}
            s_rest = {e.src for e in g.edges if e.id not in f}
            expected = {f"edge:{eid}" for eid in f}
            expected |= {f"vertex:{v}" for v in (r_f & s_f & s_rest)}
            expected |= {f"vertex:{v}" for v in (r_f - s_f)}
            assert vertex_set(out) == expected

    def test_errors(self):
        with pytest.raises(GraphError):
            e_f_graph(LINE2, set())
        with pytest.raises(GraphError):
            e_f_graph(LINE2, {"zz"})

    def test_matches_definition_and_count(self):
        # every non-empty F of up to three edges, against the definition
        # read literally: x in F, y any vertex, range(x) = source(y)
        for g in corpus().values():
            ids = [e.id for e in g.edges]
            for r in range(1, min(3, len(ids)) + 1):
                for f in itertools.combinations(ids, r):
                    out = e_f_graph(g, f)
                    assert out == definition_e_f_graph(g, out.vertices)
                    assert e_f_edge_count(g, f) == len(out.edges)
                    assert e_f_edge_count(g, reversed(f)) == len(out.edges)

    def test_count_errors(self):
        with pytest.raises(GraphError):
            e_f_edge_count(LINE2, set())
        with pytest.raises(GraphError):
            e_f_edge_count(LINE2, {"zz"})


def definition_e_f_graph(g, vertices):
    """E_F on the given vertex list, by the quadratic loop over F x vertices."""
    edge = {e.id: e for e in g.edges}
    source = {y: edge[y[5:]].src if y.startswith("edge:") else y[7:] for y in vertices}
    edges = []
    for x in vertices:
        if x.startswith("edge:"):
            for y in vertices:
                if edge[x[5:]].dst == source[y]:
                    edges.append((f"({x},{y})", x, y))
    return Graph.build(list(vertices), edges)


class TestStandardGraphs:
    def test_line1(self):
        assert standard_graph("line", 1) == Graph.build(["v1"], [])

    def test_rose2(self):
        g = standard_graph("rose", 2)
        assert len(g.vertices) == 1 and len(g.edges) == 2
        assert all(e.src == e.dst == "v" for e in g.edges)

    def test_toeplitz(self):
        g = standard_graph("toeplitz")
        assert g == Graph.build(["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v1", "v2")])

    def test_rejects_bad_n(self):
        with pytest.raises(GraphError):
            standard_graph("line", 0)

    def test_clock_is_composed(self):
        with pytest.raises(GraphError):
            standard_graph("clock", 3)
        g = clock_graph(3, 2)
        assert len(g.vertices) == 3 and len(g.edges) == 4
        assert not is_acyclic(g)

    @pytest.mark.parametrize("build, message", [
        (lambda: standard_graph("clock"),
         "clock graphs take two sizes; compose one with clock_graph(n, m)"),
        (lambda: standard_graph("line", 0), "n must be positive, got 0"),
        (lambda: standard_graph("star"), "unknown graph kind 'star'"),
        (lambda: clock_graph(0, 1), "clock sizes must be positive"),
        (lambda: clock_graph(1, 0), "clock sizes must be positive"),
    ], ids=["clock", "line-0", "unknown-kind", "clock-0-1", "clock-1-0"])
    def test_refusals(self, build, message):
        with pytest.raises(GraphError) as caught:
            build()
        assert str(caught.value) == message

    def test_union_requires_disjoint_ids(self):
        with pytest.raises(GraphError):
            graph_union(LINE2, LINE3)
        combined = graph_union(LINE2, relabel_graph(LINE3, "u"))
        assert validate(combined) == []
        assert len(combined.vertices) == 5

    def test_binary_tree_mu(self):
        g = binary_in_tree()
        assert sinks(g) == ("n1",)
        assert mu(g, "n1") == 7


class TestConcurrentReads:
    def test_shared_graph_tables_are_consistent(self):
        # graphs are immutable and the memoized tables may be shared across
        # threads; concurrent readers must all see the same values
        from concurrent.futures import ThreadPoolExecutor

        g = binary_in_tree()
        expected = dict(mu_table(g))

        def probe(_):
            return (dict(mu_table(g)),
                    enumerate_paths_to(g, "n1"),
                    sigma(g))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(probe, range(32)))
        for table, paths, s in results:
            assert table == expected
            assert paths == enumerate_paths_to(g, "n1")
            assert s == 7


class TestGraphIndex:
    def test_built_once_per_graph(self):
        g = binary_in_tree()
        assert g.index is g.index
        assert mu_table(g) is g.index.mu

    # (acyclic, sigma) for every corpus graph
    CORPUS_VALUES = {
        "line1": (True, 1), "line2": (True, 2), "line3": (True, 3),
        "line4": (True, 4), "line5": (True, 5),
        "union_2_1": (True, 2), "union_3_2": (True, 3), "btree": (True, 7),
        "rose1": (False, OMEGA), "rose2": (False, OMEGA), "toeplitz": (False, OMEGA),
    }

    def test_acyclic_and_sigma_values(self):
        graphs = corpus()
        assert set(graphs) == set(self.CORPUS_VALUES)
        for name, g in graphs.items():
            assert (is_acyclic(g), sigma(g)) == self.CORPUS_VALUES[name], name
            assert (g.index.acyclic, g.index.sigma) == self.CORPUS_VALUES[name], name
        empty = Graph.build([], [])
        assert (is_acyclic(empty), sigma(empty)) == (True, 0)
        # a cycle upstream of a sink: every vertex it reaches has OMEGA paths
        cyclic = Graph.build(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "a"),
                                               ("z", "b", "c")])
        assert (is_acyclic(cyclic), sigma(cyclic)) == (False, OMEGA)

    def test_acyclic_and_sigma_computed_once(self):
        g = binary_in_tree()
        assert "acyclic" not in vars(g.index) and "sigma" not in vars(g.index)
        is_acyclic(g), sigma(g)
        acyclic, top = vars(g.index)["acyclic"], vars(g.index)["sigma"]
        del g.index.mu  # a recomputation would have to rebuild the table
        assert (is_acyclic(g), sigma(g)) == (acyclic, top)
        assert "mu" not in vars(g.index)

    def test_graphs_are_freed_after_use(self):
        # no table keyed on a graph may outlive the graph, and no table may
        # point back to it: reference counting alone frees the graph
        from leavitt import (
            Element,
            NotStarRegularError,
            PrimeField,
            Rationals,
            full_report,
            improper_element,
            phi,
            projection_generator,
            regular_witness,
            unit_regular_witness,
        )

        def use(g):
            q, gf3 = Rationals(), PrimeField(3)
            a = Element.vertex(g, q, "v3") + Element.edge(g, q, "e2")
            full_report(g, gf3)
            phi(a)
            regular_witness(g, q, a)
            unit_regular_witness(g, q, a)
            projection_generator(g, q, a)
            improper_element(g, gf3)
            try:
                projection_generator(g, gf3, Element.edge(g, gf3, "e2"))
            except NotStarRegularError:
                pass

        with collector_off():
            g = standard_graph("line", 3)
            use(g)
            ref = weakref.ref(g)
            del g
            assert ref() is None

    def test_cli_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # nothing a command builds, its --json output included, waits for
        # the cycle collector: with the collector off and DEBUG_SAVEALL, a
        # final collection finds no garbage from any module
        from leavitt.cli import main
        from leavitt.io import format_graph

        line3 = tmp_path / "line3.txt"
        line3.write_text(format_graph(standard_graph("line", 3)))
        rose1 = tmp_path / "rose1.txt"
        rose1.write_text(format_graph(standard_graph("rose", 1)))
        a = ["--field", "Q", "-e", "v3 + e2"]
        runs = [
            (["analyze", line3], 0),
            (["analyze", rose1, "--json"], 0),
            (["analyze", line3, "--json"], 0),
            (["decide", line3, "--field", "GF(3)"], 0),
            (["decide", rose1, "--field", "Q", "--json"], 0),
            (["decide", line3, "--field", "GF(3)", "--json"], 0),
            (["nf", line3, "--field", "Q", "-e", "e1.e2.e2* + v3"], 0),
            (["mul", line3, "--field", "Q", "-e", "e1", "-e", "e2"], 0),
            (["star", line3, "--field", "Q[i]/conj", "-e", "i*e2"], 0),
            (["phi", line3, *a], 0),
            (["phi", line3, *a, "--json"], 0),
            (["witness", "regular", line3, *a], 0),
            (["witness", "unit", line3, "--field", "Q", "-e", "v3 + 2*e2"], 0),
            (["witness", "projection", line3, *a], 0),
            (["witness", "improper", line3, "--field", "GF(3)"], 0),
            (["witness", "regular", line3, *a, "--json"], 0),
            (["witness", "unit", line3, "--field", "Q", "-e", "v3 + 2*e2", "--json"], 0),
            (["witness", "projection", line3, *a, "--json"], 0),
            (["witness", "projection", line3, "--field", "GF(3)", "-e", "e2", "--json"], 0),
            (["witness", "improper", line3, "--field", "GF(3)", "--json"], 0),
            (["witness", "regular", rose1, "--field", "Q", "-e", "v"], 1),
        ]
        with collector_off(gc.DEBUG_SAVEALL):
            for argv, code in runs:
                assert main([str(a) for a in argv]) == code, argv
            capsys.readouterr()
            gc.collect()
            kept = sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                           for o in gc.garbage})
        assert kept == []

    def test_image_keeps_its_graph(self):
        from leavitt import phi_inv

        def element():
            g, q = standard_graph("line", 3), Rationals()
            return Element.vertex(g, q, "v3") + 2 * Element.edge(g, q, "e2")

        with collector_off():
            x = element()
            img = phi(x)
            ref = weakref.ref(x.graph)
            del x
            assert ref() is img.basis.graph
            assert phi_inv(img) == element()
            del img
            assert ref() is None


@contextlib.contextmanager
def collector_off(debug=0):
    """Run the block with the cyclic garbage collector disabled (and the
    given debug flags), restoring both afterwards."""
    was_enabled, old_debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(debug)
    try:
        yield
    finally:
        gc.set_debug(old_debug)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
