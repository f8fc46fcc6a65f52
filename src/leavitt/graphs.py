"""Finite directed multigraphs with named vertices and edges.

Everything downstream (path algebra elements, the matrix picture, the
decision procedures) works over these graphs. Graphs are immutable values
and all functions here are pure. A graph stores its vertex tuple and its
edges as three string columns, ``ids``, ``srcs`` and ``dsts``, in edge
order; ``g.edges``, the same edges as ``Edge`` tuples, is a view built on
first read (or the tuple the caller passed to ``Graph``). Every derived
table of a graph lives in one ``GraphIndex``, reached as ``g.index`` and
memoized on that graph object.

What is eager: building the index validates the graph and makes only the
vertex order, each vertex's position in it, each edge id's position in the
columns, and each edge's source and range position, all from the columns.
A duplicate identifier or a dangling endpoint raises ``GraphError`` with
the messages of ``validate``, so every table-reading function refuses an
invalid graph the same way. No table of the index holds an ``Edge``: edges
are positions into the columns.

What is built on first read, and by whom: the path counts ``mu`` and
``acyclic`` by the verdicts (``decide``, ``analyze``) and by the acyclicity
check of ``phi`` and the witnesses, in one forward Kahn pass over
positions; ``sinks``, from the source positions, by ``analyze`` and the
sink basis; the out-edge positions ``outs`` of each vertex by
normalization's CK2 rewrites (through ``special_ids`` too, when an element
has a monomial whose paths end in the same edge) and the sink expansion of
``phi``, both of which cross a run of single-exit edges (a vertex's only
out-edge) in one step; the in-edge positions ``ins`` when all paths into a
vertex are enumerated; and the paths into a sink when a block of that sink
is first read or built. The expression parser, the element constructors,
``is_path``, ``path_range``, ``classify_vertex``, ``e_f_graph`` and the
bounded ``enumerate_paths_to`` read the columns through ``pos``,
``edge_pos`` and the source and range positions. So no command builds an
``Edge``, and ``decide`` and ``analyze --json`` build no incidence list.
``edge_by_id``, ``vertex_set``, ``out_edges`` and ``in_edges`` build their
results from these tables when called, and nothing in the package calls
them. Sharing a graph across threads is safe: a race may build a table, or
one sink's paths, twice, and both copies are equal.

Ownership: derived tables never point back to the graph, so a graph and
everything computed from it are freed by reference counting as soon as the
last reference to the graph goes. Only values handed to callers hold a
``Graph``: an ``Element``, a ``SinkBasis`` view (and the ``MatrixImage``
built on it) and a ``DecisionReport``.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError
from heapq import nsmallest
from itertools import compress, count, repeat
from operator import itemgetter, not_
from typing import Iterable, NamedTuple

from .omega import OMEGA, is_finite


class GraphError(ValueError):
    """Invalid graph data, or an operation applied outside its domain."""


class CyclicGraphError(GraphError):
    """Raised by operations defined only for acyclic graphs."""


class InfinitePathSetError(GraphError):
    """Raised when asked to enumerate an infinite family of paths."""


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


_ID, _SRC, _DST = itemgetter(0), itemgetter(1), itemgetter(2)  # Edge fields, read in C


class Path(NamedTuple):
    """A directed path: a start vertex and a chained edge-id sequence.

    The trivial path at a vertex v is Path(v, ()).
    """

    base: str
    edges: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


class Graph:
    """An immutable graph: ``vertices`` and the edge columns ``ids``,
    ``srcs`` and ``dsts`` (tuples of strings, in edge order). Two graphs are
    equal, and hash alike, when those four tuples are equal, whichever
    constructor or reader made them.

    ``Graph(vertices, edges)`` takes ``Edge``-like (id, src, dst) tuples and
    keeps their tuple as ``edges``; ``Graph.from_columns`` takes the columns
    and builds ``edges`` only when it is first read.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        edges = tuple(edges)
        self._set(tuple(vertices), tuple(map(_ID, edges)), tuple(map(_SRC, edges)),
                  tuple(map(_DST, edges)))
        self.__dict__["edges"] = edges

    @classmethod
    def from_columns(cls, vertices: Iterable[str], ids: Iterable[str],
                     srcs: Iterable[str], dsts: Iterable[str]) -> "Graph":
        g = cls.__new__(cls)
        g._set(tuple(vertices), tuple(ids), tuple(srcs), tuple(dsts))
        if not len(g.ids) == len(g.srcs) == len(g.dsts):
            raise GraphError("edge columns of different lengths")
        return g

    def _set(self, vertices, ids, srcs, dsts):
        self.__dict__.update(vertices=vertices, ids=ids, srcs=srcs, dsts=dsts)

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "Graph":
        return Graph(vertices, tuple(Edge(*e) for e in edges))

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` tuples, in column order."""
        return tuple(map(tuple.__new__, repeat(Edge), zip(self.ids, self.srcs, self.dsts)))

    def _key(self) -> tuple:
        return self.vertices, self.ids, self.srcs, self.dsts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.ids)} edges)"

    @functools.cached_property
    def index(self) -> "GraphIndex":
        return GraphIndex(self)


# ---------------------------------------------------------------------------
# derived tables


class GraphIndex:
    """The derived tables of one graph. Build it through ``g.index``.

    Eager, and all the validation needs, all read from the graph's columns:
    ``order`` (the vertex-order tuple), ``pos`` (each vertex's position in
    it), ``edge_pos`` (each edge id's position in the columns), and ``src``
    and ``dst`` (each edge's source and range position, in the graph's edge
    order). Membership tests read ``pos`` and ``edge_pos``. A duplicate
    identifier is seen as a ``pos`` or ``edge_pos`` shorter than its input,
    a dangling endpoint as a ``KeyError`` from ``pos``; either raises
    ``GraphError`` (the ``validate`` messages joined by "; ").

    Built on first read: ``mu``, ``acyclic`` and ``sigma`` (one Kahn pass
    over positions), ``sinks``, ``outs`` and ``ins`` (the out- and in-edge
    positions of each vertex position, each list in edge-id order),
    ``special_ids`` (the greatest outgoing edge id of each non-sink vertex,
    read off ``outs``), and each sink's ``sink_table``; the module docstring
    says who reads each. A bounded enumeration (``enumerate_paths_to`` with
    a ``limit``) scans the range positions for the in-edges it needs
    without building ``ins``, and Kahn's pass builds its own out-lists and
    drops them, so the verdicts build neither. The index keeps the graph's
    vertex-order tuple and its id column, never the graph itself, so it
    forms no reference cycle with the graph that memoizes it.
    """

    def __init__(self, g: Graph):
        order, ids = g.vertices, g.ids
        self.order, self.ids = order, ids
        pos = self.pos = dict(zip(order, count()))
        self.edge_pos = dict(zip(ids, count()))
        if len(pos) < len(order) or len(self.edge_pos) < len(ids):
            raise _invalid(g)
        try:
            self.src = list(map(pos.__getitem__, g.srcs))
            self.dst = list(map(pos.__getitem__, g.dsts))
        except KeyError:
            raise _invalid(g) from None
        self._sink_tables = {}

    @functools.cached_property
    def outs(self) -> list:
        """The out-edge positions of each vertex position, in edge-id order."""
        return self._incidence(self.src)

    @functools.cached_property
    def ins(self) -> list:
        """The in-edge positions of each vertex position, in edge-id order."""
        return self._incidence(self.dst)

    def _incidence(self, end: list) -> list:
        """The edge positions at each vertex position, by ``end`` (``src``
        or ``dst``), in edge-id order."""
        lists = [[] for _ in self.order]
        ids = self.ids
        for j in sorted(range(len(ids)), key=ids.__getitem__):
            lists[end[j]].append(j)
        return lists

    @functools.cached_property
    def special_ids(self) -> frozenset:
        """The special edge ids: the greatest outgoing edge id of each
        non-sink vertex."""
        ids = self.ids
        return frozenset(ids[js[-1]] for js in self.outs if js)

    @functools.cached_property
    def _path_counts(self) -> tuple[dict, bool]:
        """(mu, acyclic) from one forward pass of Kahn's topological sort
        over vertex positions.

        Every count starts at 1 (the trivial path). A vertex joins ``ready``
        once the sources of all its in-edges have been visited, so its count
        is final when it is visited; visiting it adds that count to each
        out-neighbour. The vertices that never join are exactly those a
        cycle reaches, and they get OMEGA; the graph is acyclic when every
        vertex joined. Vertices are positions throughout: the pass reads
        ``src`` and ``dst`` and probes no string-keyed table.
        """
        order = self.order
        n = len(order)
        pending = [0] * n
        outs = [[] for _ in order]
        for v, w in zip(self.src, self.dst):
            outs[v].append(w)
            pending[w] += 1
        counts = [1] * n
        ready = list(compress(range(n), map(not_, pending)))
        for v in ready:  # the loop reaches each vertex appended while it runs
            c = counts[v]
            for w in outs[v]:
                counts[w] += c
                pending[w] -= 1
                if not pending[w]:
                    ready.append(w)
        if len(ready) == n:
            return dict(zip(order, counts)), True
        return {v: OMEGA if p else c for v, p, c in zip(order, pending, counts)}, False

    @functools.cached_property
    def mu(self) -> dict:
        """Number of paths ending at each vertex, the trivial path included,
        in vertex order; OMEGA where a cycle reaches."""
        return self._path_counts[0]

    @functools.cached_property
    def acyclic(self) -> bool:
        return self._path_counts[1]

    @functools.cached_property
    def sigma(self):
        """Supremum of mu over all vertices; 0 for the empty graph."""
        return max(self.mu.values(), default=0) if self.acyclic else OMEGA

    @functools.cached_property
    def sinks(self) -> tuple[str, ...]:
        """The vertices that source no edge, in vertex order."""
        sources = set(self.src)
        return tuple(compress(self.order, map(not_, map(sources.__contains__, count()))))

    def sink_table(self, v: str) -> tuple[tuple, dict]:
        """The ordered paths into sink v of an acyclic graph (see
        ``enumerate_paths_to``) and the position of each, built per sink."""
        table = self._sink_tables.get(v)
        if table is None:
            if not self.acyclic:
                raise CyclicGraphError("graph has a cycle")
            paths = tuple(_paths_to(self, lambda level: self.ins, v))
            if len(paths) != self.mu[v]:
                raise AssertionError(f"path count at sink {v} disagrees with mu")
            table = self._sink_tables[v] = (paths, {a: i for i, a in enumerate(paths)})
        return table


def vertex_set(g: Graph) -> frozenset:
    return frozenset(g.index.order)


def edge_by_id(g: Graph) -> dict:
    """Each edge id's ``Edge``, in edge order."""
    return dict(zip(g.index.ids, map(Edge, g.ids, g.srcs, g.dsts)))


def out_edges(g: Graph, v: str) -> tuple[Edge, ...]:
    """The edges leaving v, sorted by edge id."""
    return _edges(g, g.index.outs[_vertex_pos(g, v)])


def in_edges(g: Graph, v: str) -> tuple[Edge, ...]:
    """The edges entering v, sorted by edge id."""
    return _edges(g, g.index.ins[_vertex_pos(g, v)])


def _edges(g: Graph, positions) -> tuple[Edge, ...]:
    """The edges at these column positions, as ``Edge`` tuples."""
    ids, srcs, dsts = g.ids, g.srcs, g.dsts
    return tuple(Edge(ids[j], srcs[j], dsts[j]) for j in positions)


def _vertex_pos(g: Graph, v: str) -> int:
    i = g.index.pos.get(v)
    if i is None:
        raise GraphError(f"unknown vertex {v}")
    return i


def _invalid(g: Graph) -> GraphError:
    return GraphError("; ".join(validate(g)))


# ---------------------------------------------------------------------------
# validation and structural predicates


def validate(g: Graph) -> list:
    """All invariant violations, as human-readable strings. Empty means ok."""
    errors = []
    seen = set()
    for v in g.vertices:
        if v in seen:
            errors.append(f"duplicate identifier {v}")
        seen.add(v)
    seen_edges = set()
    vs = set(g.vertices)
    for eid, src, dst in zip(g.ids, g.srcs, g.dsts):
        if eid in seen_edges:
            errors.append(f"duplicate identifier {eid}")
        seen_edges.add(eid)
        if src not in vs or dst not in vs:
            errors.append(f"dangling endpoint {eid}")
    return errors


class VertexInfo(NamedTuple):
    sink: bool
    source: bool
    out_degree: int


def classify_vertex(g: Graph, v: str) -> VertexInfo:
    i = _vertex_pos(g, v)
    index = g.index
    degree = index.src.count(i)
    return VertexInfo(sink=not degree, source=i not in index.dst, out_degree=degree)


def sinks(g: Graph) -> tuple[str, ...]:
    return g.index.sinks


def is_acyclic(g: Graph) -> bool:
    return g.index.acyclic


def check_acyclic(g: Graph) -> Graph:
    if not is_acyclic(g):
        raise CyclicGraphError("graph has a cycle")
    return g


# ---------------------------------------------------------------------------
# path counting


def mu_table(g: Graph) -> dict:
    """Number of paths ending at each vertex, OMEGA where a cycle reaches."""
    return g.index.mu


def mu(g: Graph, v: str):
    _vertex_pos(g, v)
    return g.index.mu[v]


def sigma(g: Graph):
    """Supremum of mu over all vertices; 0 for the empty graph."""
    return g.index.sigma


def path_range(g: Graph, p: Path) -> str:
    if not p.edges:
        return p.base
    return g.dsts[g.index.edge_pos[p.edges[-1]]]


def is_path(g: Graph, p: Path) -> bool:
    index = g.index
    if p.base not in index.pos:
        return False
    edge_pos, srcs, dsts = index.edge_pos, g.srcs, g.dsts
    at = p.base
    for eid in p.edges:
        j = edge_pos.get(eid)
        if j is None or srcs[j] != at:
            return False
        at = dsts[j]
    return True


def enumerate_paths_to(g: Graph, v: str, limit: int | None = None) -> list:
    """All paths ending at v, shortest first, ties broken by edge ids.

    The list has exactly mu(g, v) entries, the trivial path first; when that
    count is infinite the enumeration is refused. With ``limit``, only the
    first ``limit`` paths of that order are built and returned (none for a
    limit of 0; a negative limit is refused), and the in-edges of each path
    length's start vertices come from one scan of the range positions, so
    the graph's in-edge table ``ins`` is not built.
    """
    if limit is not None and limit < 0:
        raise GraphError(f"limit must be non-negative, got {limit}")
    if not is_finite(mu(g, v)):
        raise InfinitePathSetError(f"infinitely many paths end at {v}")
    index = g.index
    if limit is None:
        return _paths_to(index, lambda level: index.ins, v)
    return _paths_to(index, lambda level: _in_edges_among(index, {b for _, b in level}), v,
                     limit)


def _paths_to(index: GraphIndex, ins_of, v: str, limit: int | None = None) -> list:
    """``enumerate_paths_to`` in a graph in which finitely many paths end at
    v. A level holds the (edges, base position) pairs of one path length in
    order, and ``ins_of(level)`` maps each base position of the level to its
    in-edge positions, in any order. Each level is sorted, except the last
    one a ``limit`` reaches: only its smallest keys become ``Path``s. Two
    pairs of one level never have the same edges, so the base positions
    never decide the order."""
    ids, src, order = index.ids, index.src, index.order
    found = [Path(v, ())]
    level = [((), index.pos[v])]
    while level and (limit is None or len(found) < limit):
        ins = ins_of(level)
        level = [((ids[j],) + edges, src[j]) for edges, b in level for j in ins[b]]
        over = limit is not None and len(found) + len(level) > limit
        level = nsmallest(limit - len(found), level) if over else sorted(level)
        found += [Path(order[b], edges) for edges, b in level]
    return found[:limit]


def _in_edges_among(index: GraphIndex, bases: set) -> dict:
    """The in-edge positions of the vertex positions in ``bases``, by vertex
    position: one C-level pass over the range positions picks them out."""
    dst = index.dst
    ins = {b: [] for b in bases}
    for j in compress(count(), map(ins.__contains__, dst)):
        ins[dst[j]].append(j)
    return ins


class SinkBasis:
    """Ordered sinks with, for each, the ordered list of paths into it, and
    ``index`` (built on first read) giving each path its (sink, position).
    A view of one acyclic graph: it holds the graph, so a ``MatrixImage``
    built on it keeps its graph alive; the tables come from ``graph.index``.
    """

    def __init__(self, graph: Graph):
        index = check_acyclic(graph).index
        self.sinks, self.graph = index.sinks, graph
        self.paths = {v: index.sink_table(v)[0] for v in self.sinks}

    @functools.cached_property
    def index(self) -> dict:
        return {a: (v, i) for v, ps in self.paths.items() for i, a in enumerate(ps)}

    def size(self, v: str) -> int:
        return len(self.paths[v])


# ---------------------------------------------------------------------------
# constructions


def standard_graph(kind: str, n: int = 1) -> Graph:
    """The stock test graphs: 'line', 'rose', and 'toeplitz'.

    line: vertices v1..vn with edges ei: vi -> vi+1.
    rose: a single vertex v with loops e1..en.
    toeplitz: a loop at v1 plus one exit edge v1 -> v2 (n is ignored).
    A clock (line feeding a rose) is built by clock_graph instead, since it
    needs two size parameters.
    """
    if n < 1:
        raise GraphError(f"n must be positive, got {n}")
    if kind == "line":
        vertices = [f"v{i}" for i in range(1, n + 1)]
        edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(1, n)]
        return Graph.build(vertices, edges)
    if kind == "rose":
        return Graph.build(["v"], [(f"e{i}", "v", "v") for i in range(1, n + 1)])
    if kind == "toeplitz":
        return Graph.build(["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v1", "v2")])
    if kind == "clock":
        raise GraphError("clock graphs take two sizes; compose one with clock_graph(n, m)")
    raise GraphError(f"unknown graph kind {kind!r}")


def clock_graph(n: int, m: int) -> Graph:
    """A line of n vertices whose last vertex carries m loops."""
    if n < 1 or m < 1:
        raise GraphError("clock sizes must be positive")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(1, n)]
    edges += [(f"l{j}", f"v{n}", f"v{n}") for j in range(1, m + 1)]
    return Graph.build(vertices, edges)


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; identifier clashes are refused, relabel first."""
    if set(a.vertices) & set(b.vertices) or set(a.ids) & set(b.ids):
        raise GraphError("graphs share identifiers; relabel before taking a union")
    return Graph.from_columns(a.vertices + b.vertices, a.ids + b.ids, a.srcs + b.srcs,
                              a.dsts + b.dsts)


def relabel_graph(g: Graph, prefix: str) -> Graph:
    add = prefix.__add__
    return Graph.from_columns(*(map(add, column) for column in g._key()))


def _fresh_separator(g: Graph) -> str:
    sep = "@"
    ids = g.vertices + g.ids
    while any(sep in name for name in ids):
        sep += "@"
    return sep


def m_n_graph(g: Graph, n: int) -> Graph:
    """Attach an incoming line of length n-1 to every vertex.

    The tail for v is v@1 -> v@2 -> ... -> v@(n-1) -> v (the separator grows
    if '@' already occurs in an identifier). n = 1 returns the graph itself.
    """
    if n < 1:
        raise GraphError(f"n must be positive, got {n}")
    if n == 1:
        return Graph.from_columns(*g._key())
    sep = _fresh_separator(g)
    vertices = list(g.vertices)
    edges = list(zip(g.ids, g.srcs, g.dsts))
    for v in g.vertices:
        tail = [f"{v}{sep}{i}" for i in range(1, n)]
        vertices.extend(tail)
        chain = tail + [v]
        for i in range(1, n):
            edges.append((f"{v}{sep}e{i}", chain[i - 1], chain[i]))
    return Graph.build(vertices, edges)


def _e_f_layout(g: Graph, f_ids):
    """The F-edges as (id, src, dst) in edge order, the vertices of E_F, and
    those vertices grouped by their source in g (the original source for
    edge-type, itself for vertex-type), each group in vertex order."""
    f_ids = set(f_ids)
    if not f_ids:
        raise GraphError("F must be non-empty")
    unknown = sorted(f_ids - g.index.edge_pos.keys())
    if unknown:
        raise GraphError(f"unknown edge {unknown[0]}")
    f_edges = [e for e in zip(g.ids, g.srcs, g.dsts) if e[0] in f_ids]
    r_f = {dst for _, _, dst in f_edges}
    s_f = {src for _, src, _ in f_edges}
    s_non_f = {src for eid, src in zip(g.ids, g.srcs) if eid not in f_ids}

    middle = [v for v in g.vertices if v in r_f and v in s_f and v in s_non_f]
    terminal = [v for v in g.vertices if v in r_f and v not in s_f]
    vertices = [(f"edge:{eid}", src) for eid, src, _ in f_edges]
    vertices += [(f"vertex:{v}", v) for v in middle + terminal]
    by_source = {}
    for y, src in vertices:
        by_source.setdefault(src, []).append(y)
    return f_edges, [y for y, _ in vertices], by_source


def e_f_edge_count(g: Graph, f_ids) -> int:
    """Edge count of ``e_f_graph(g, f_ids)``, without building it."""
    f_edges, _, by_source = _e_f_layout(g, f_ids)
    return sum(len(by_source.get(dst, ())) for _, _, dst in f_edges)


def e_f_graph(g: Graph, f_ids) -> Graph:
    """The finite graph induced by a non-empty edge set F.

    Vertices are the F-edges themselves (named edge:<id>) together with two
    classes of original vertices (named vertex:<id>): ranges of F that also
    source both an F-edge and a non-F edge, and ranges of F that source no
    F-edge. An edge (x,y) joins x in F to y whenever the range of x is the
    source of y, reading the source of a vertex-type y as y itself. The
    cost is linear in the sizes of g and of the output.
    """
    f_edges, vertices, by_source = _e_f_layout(g, f_ids)
    edges = []
    for eid, _, dst in f_edges:
        x = f"edge:{eid}"
        for y in by_source.get(dst, ()):
            edges.append((f"({x},{y})", x, y))
    return Graph.build(vertices, edges)
