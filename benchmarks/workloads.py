"""Seeded inputs, operations and output checks for the three workloads.

Each workload turns ``(seed, i)`` into the i-th operation as plain data
(graph text, argv, expression strings), so the same seed always gives the
same inputs and the program under test only ever sees generated inputs.
Operations come in fixed *cycles*: slot ``i % cycle`` fixes the kind of
operation, graph family, field and size band, and the seed fills in the
rest (names, vertex order, sizes within the band, elements). Runs stop on a
cycle boundary, so every run measures the same mix and run-to-run spread
comes from the machine, not from the draw.

Checks never trust the library's own verification: claims are re-derived
and re-checked by element arithmetic, path counts come from an independent
forward pass over the generator's own edge list, and field properness
levels come from a table kept here.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from leavitt import cli
from leavitt.algebra import Element
from leavitt.fields import parse_field_spec
from leavitt.graphs import Graph, Path, clock_graph, e_f_graph, m_n_graph, standard_graph
from leavitt.io import parse_element
from leavitt.semisimple import MatrixImage, phi, phi_inv, sink_basis

OMEGA = "omega"

# ---------------------------------------------------------------------------
# fields, graphs and elements as plain data


def field_level(spec: str):
    """Properness level of a field spec, kept independent of leavitt.fields:
    Q and Q[i]/conj are positive definite; -1 is a square in Q[i] and in
    GF(p) unless p = 3 (mod 4), where three squares still cancel; the norm
    of GF(p^2) onto GF(p) hits -1."""
    if spec in ("Q", "Q[i]/conj"):
        return OMEGA
    if spec == "Q[i]/id" or spec.endswith(",2)"):
        return 1
    p = int(spec[3:-1])
    return 2 if p % 4 == 3 else 1


def level_below(level, count) -> bool:
    """level < count in the extended naturals (OMEGA above every int)."""
    if count == OMEGA:
        return level != OMEGA
    return level != OMEGA and level < count


class GraphData:
    """A graph as the generator built it: listed vertices and edge triples."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = [tuple(e) for e in edges]

    @staticmethod
    def of(g: Graph, prefix: str) -> "GraphData":
        return GraphData([prefix + v for v in g.vertices],
                         [(prefix + e.id, prefix + e.src, prefix + e.dst) for e in g.edges])

    def text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} {s} {d}" for e, s, d in self.edges]
        return "\n".join(lines) + "\n"

    def graph(self) -> Graph:
        return Graph.build(self.vertices, self.edges)

    def in_edges(self):
        table = {v: [] for v in self.vertices}
        for eid, src, dst in self.edges:
            table[dst].append((eid, src))
        return table

    def sinks(self):
        sources = {src for _, src, _ in self.edges}
        return [v for v in self.vertices if v not in sources]

    def path_counts(self) -> dict:
        """Paths ending at each vertex (the trivial one included), by a
        forward Kahn pass; vertices never peeled sit on or below a cycle and
        get OMEGA."""
        outs = {v: [] for v in self.vertices}
        indeg = dict.fromkeys(self.vertices, 0)
        for _, src, dst in self.edges:
            outs[src].append(dst)
            indeg[dst] += 1
        counts = dict.fromkeys(self.vertices, 1)
        ready = [v for v in self.vertices if indeg[v] == 0]
        peeled = set()
        while ready:
            v = ready.pop()
            peeled.add(v)
            for w in outs[v]:
                counts[w] += counts[v]
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        return {v: (counts[v] if v in peeled else OMEGA) for v in self.vertices}


def sigma_of(counts: dict):
    values = list(counts.values())
    if OMEGA in values:
        return OMEGA
    return max(values, default=0)


def coeff_literal(spec: str, rng) -> str:
    """A random nonzero coefficient in the expression grammar of ``spec``."""
    if spec == "Q":
        num = rng.choice((-3, -2, -1, 1, 2, 3, 5))
        den = rng.choice((1, 1, 2, 3))
        return str(num) if den == 1 else f"{num}/{den}"
    if spec.startswith("Q[i]"):
        return f"{rng.randint(-3, 3)}{rng.choice((-2, -1, 1, 2)):+d}i"
    if spec.endswith(",2)"):
        p = int(spec[3:spec.index(",")])
        return f"{rng.randrange(p)}+{rng.randrange(1, p)}t"
    return str(rng.randrange(1, int(spec[3:-1])))


def random_monomials(data: GraphData, spec: str, rng, max_terms: int, max_len: int,
                     exact: bool = False) -> list:
    """(coefficient literal, p, q) for random monomials p.q* (``max_terms``
    of them when ``exact``), p and q random backward walks of at most
    ``max_len`` edges into a common vertex."""
    ins = data.in_edges()

    def walk(v):
        edges = []
        for _ in range(rng.randint(0, max_len)):
            if not ins[v]:
                break
            eid, v = rng.choice(ins[v])
            edges.append(eid)
        return Path(v, tuple(edges[::-1]))

    terms = []
    for _ in range(max_terms if exact else rng.randint(1, max_terms)):
        w = rng.choice(data.vertices)
        p, q = walk(w), walk(w)
        terms.append((coeff_literal(spec, rng), p, q))
    return terms


def random_expr(data: GraphData, spec: str, rng, max_terms: int, max_len: int) -> str:
    """The same monomials as an expression string."""
    terms = []
    for c, p, q in random_monomials(data, spec, rng, max_terms, max_len):
        factors = list(p.edges) + [f"{e}*" for e in reversed(q.edges)] or [p.base]
        terms.append(f"{c}*{'.'.join(factors)}")
    return " + ".join(terms)


def line(n: int, prefix: str) -> GraphData:
    return GraphData.of(standard_graph("line", n), prefix)


def binary_in_tree(prefix: str) -> GraphData:
    """Two levels of a binary tree feeding the root sink n1 (block 7)."""
    edges = (("c1", "n2", "n1"), ("c2", "n3", "n1"), ("c3", "n4", "n2"),
             ("c4", "n5", "n2"), ("c5", "n6", "n3"), ("c6", "n7", "n3"))
    return GraphData([f"{prefix}n{i}" for i in range(1, 8)],
                     [(prefix + e, prefix + s, prefix + d) for e, s, d in edges])


# ---------------------------------------------------------------------------
# running the CLI in process


def run_cli(argv):
    """leavitt.cli.main with stdout and stderr captured; looked up through
    the module so a traced run sees its wrapper."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class CliOp:
    """One CLI invocation: argv with ``{graph}`` standing for the file the
    graph text is written to, plus what the checker needs to know."""

    __slots__ = ("argv", "data", "facts")

    def __init__(self, argv, data: GraphData, **facts):
        self.argv = argv
        self.data = data
        self.facts = facts

    def signature(self):
        return (tuple(self.argv), self.data.text(), tuple(sorted(self.facts.items())))

    def graph_key(self):
        return self.data.text()

    def known_error(self):
        """Name of the exception a known defect of the program raises on
        this op, or None."""
        return self.facts.get("known_error")

    def prepare(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.data.text())
        argv = [path if a == "{graph}" else a for a in self.argv]
        return lambda: run_cli(argv)


def _claims_problem(claims_json, expected, parse) -> str | None:
    """Compare serialized claims with the expected ones element by element,
    then re-check every expected identity by arithmetic."""
    if len(claims_json) != len(expected):
        return f"{len(claims_json)} claims, expected {len(expected)}"
    for got, (kind, *args) in zip(claims_json, expected):
        if got.get("type") != kind:
            return f"claim {got.get('type')!r}, expected {kind!r}"
        if kind == "product_equals":
            factors, equals = args
            if ([parse(s) for s in got["factors"]] != factors
                    or parse(got["equals"]) != equals):
                return "product claim names other elements"
            product = factors[0]
            for x in factors[1:]:
                product = product * x
            if product != equals:
                return "product claim does not hold"
        else:
            (x,) = args
            if parse(got["arg"]) != x:
                return f"{kind} claim names another element"
            if kind == "star_fixed" and x.star() != x:
                return "star_fixed claim does not hold"
            if kind == "star_product_zero" and not (x.star() * x).is_zero:
                return "star_product_zero claim does not hold"
            if kind == "nonzero" and x.is_zero:
                return "nonzero claim does not hold"
    return None


def _improper_problem(data: GraphData, spec: str, text) -> str | None:
    g = data.graph()
    c = parse_element(text, g, parse_field_spec(spec))
    if c.is_zero or not (c.star() * c).is_zero:
        return "improper certificate fails c != 0, star(c).c = 0"
    return None


# ---------------------------------------------------------------------------
# certify: witness and phi through the CLI on small acyclic graphs

CERT_KINDS = ("regular", "unit", "projection", "improper", "phi")
CERT_FIELDS = ("Q", "GF(3,2)", "GF(5)", "GF(3)", "Q[i]/id", "Q[i]/conj")
CERT_FAMILIES = ("line", "union", "btree", "mn", "ef")
OUTPUT_KINDS = {"regular": ("regular",), "unit": ("unit",), "improper": ("improper",),
                "projection": ("projection", "not_star_regular")}
# block size of the largest sink per kind, by occurrence within a cycle
CERT_SIZES = {
    "regular": (2, 4, 6, 8, 10, 12),
    "unit": (3, 5, 7, 9, 11, 12),
    "projection": (2, 3, 4, 5, 6, 8),
    "improper": (3, 5, 7, 9, 11, 12),
    "phi": (2, 4, 6, 8, 10, 12),
}


class Certify:
    """``leavitt witness regular|unit|projection|improper`` and ``leavitt
    phi`` with --json, one fresh graph per operation."""

    name = "certify"
    cycle = 30
    cycles = 20    # cycles per run

    def __init__(self, seed: int):
        self.seed = seed
        self.token = f"{random.Random(f'certify:{seed}').getrandbits(24):06x}"

    def op(self, i: int) -> CliOp:
        rng = random.Random(f"certify:{self.seed}:{i}")
        slot = i % self.cycle
        kind = CERT_KINDS[slot % 5]
        spec = CERT_FIELDS[slot % 6]
        family = CERT_FAMILIES[slot // 6]
        size = CERT_SIZES[kind][slot // 5]
        data = self._graph(family, size, rng, f"g{self.token}o{i}")
        argv = (["phi", "{graph}"] if kind == "phi" else ["witness", kind, "{graph}"])
        argv += ["--field", spec]
        expr = None
        if kind != "improper":
            expr = random_expr(data, spec, rng, max_terms=4, max_len=3)
            argv.append(f"--expr={expr}")  # a leading '-' is not an option
        return CliOp(argv + ["--json"], data, kind=kind, field=spec, expr=expr)

    @staticmethod
    def _graph(family, size, rng, prefix) -> GraphData:
        if family == "line":
            return line(size, prefix)
        if family == "union":
            a, b = line(size, prefix + "a"), line(max(2, size // 2), prefix + "b")
            return GraphData(a.vertices + b.vertices, a.edges + b.edges)
        if family == "btree":
            return binary_in_tree(prefix)
        if family == "mn":
            # M_m of a line of k vertices has a sink block of k*m
            k, m = rng.choice([(k, size // k) for k in range(1, size)
                               if size % k == 0 and size // k >= 2])
            return GraphData.of(m_n_graph(standard_graph("line", k), m), prefix)
        # E_F of a line with F a run of size-1 edges plus isolated edges: a
        # union of lines, the longest with `size` vertices
        extra = rng.randint(1, 3)
        base = standard_graph("line", size + 2 * extra)
        f_ids = [f"e{j}" for j in range(1, size)]
        f_ids += [f"e{size + 2 * j}" for j in range(1, extra)]
        return GraphData.of(e_f_graph(base, f_ids), prefix)

    def check(self, op: CliOp, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        got = json.loads(text)
        facts = op.facts
        g = op.data.graph()
        k = parse_field_spec(facts["field"])

        def parse(s):
            return parse_element(s, g, k)

        if facts["kind"] == "phi":
            return self._phi_problem(op, got, g, k, parse(facts["expr"]))
        if got.get("verified") is not True:
            return "output not marked verified"
        if got.get("kind") not in OUTPUT_KINDS[facts["kind"]]:
            return f"asked for {facts['kind']}, got {got.get('kind')!r}"
        level = field_level(facts["field"])
        improper_possible = level_below(level, sigma_of(op.data.path_counts()))
        if facts["kind"] == "improper":
            if got["certificate"] is None:
                if improper_possible:
                    return "no improper certificate although sigma exceeds the level"
                return None if got["claims"] == [] else "claims without a certificate"
            c = parse(got["certificate"])
            return _claims_problem(got["claims"], [("nonzero", c), ("star_product_zero", c)], parse)
        a = parse(facts["expr"])
        if parse(got["input"]) != a:
            return "input echoed as another element"
        if got["kind"] == "regular":
            b = parse(got["inverse"])
            expected = [("product_equals", [a, b, a], a)]
        elif got["kind"] == "projection":
            p, f = parse(got["projection"]), parse(got["factor"])
            expected = [("star_fixed", p), ("product_equals", [p, p], p),
                        ("product_equals", [p, a], a), ("product_equals", [a, f], p)]
        elif got["kind"] == "not_star_regular":
            if not improper_possible:
                return "not_star_regular although the field is proper enough"
            c = parse(got["certificate"])
            expected = [("nonzero", c), ("star_product_zero", c)]
        else:
            u, up, v = parse(got["u"]), parse(got["u_prime"]), parse(got["v"])
            if v != Element.one(g, k):
                return "unit witness v is not the identity"
            expected = [("product_equals", [u, up], v), ("product_equals", [up, u], v),
                        ("product_equals", [v, a], a), ("product_equals", [a, v], a),
                        ("product_equals", [a, u, a], a)]
        return _claims_problem(got["claims"], expected, parse)

    @staticmethod
    def _phi_problem(op, got, g, k, a) -> str | None:
        counts = op.data.path_counts()
        sinks = op.data.sinks()
        if [b["sink"] for b in got] != sinks:
            return "phi blocks are not the sinks in order"
        if any(b["size"] != counts[b["sink"]] or len(b["rows"]) != b["size"] for b in got):
            return "phi block size differs from the path count"
        blocks = {b["sink"]: [[k.parse_literal(x) for x in row] for row in b["rows"]]
                  for b in got}
        if phi_inv(MatrixImage(k, sink_basis(g), blocks)) != a:
            return "phi image does not map back to the input"
        return None

    def warm_up(self, path):
        g = line(3, "w")
        for kind in CERT_KINDS:
            for spec in CERT_FIELDS:
                argv = (["phi"] if kind == "phi" else ["witness", kind]) + ["{graph}", "--field", spec]
                if kind != "improper":
                    argv.append("--expr=1*we1 + 2*we2.we2*")
                CliOp(argv + ["--json"], g).prepare(path)()


# ---------------------------------------------------------------------------
# decide: decide and analyze through the CLI on fresh large graphs

DECIDE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# slot -> (family, command, lowest and highest vertex count)
DECIDE_SLOTS = (
    ("line", "decide", 520, 560),
    ("ladder", "decide", 240, 260),
    ("dag", "decide", 480, 520),
    ("clock", "decide", 170, 180),
    ("line_shuffled", "analyze", 340, 360),
    ("mn_rose", "decide", 240, 260),
    ("line_sink_first", "decide", 340, 360),
    ("dag", "analyze", 70, 80),
    ("line", "decide", 70, 80),
    ("ladder", "analyze", 120, 130),
    # a sink-first chain this long overflows the recursive path count
    ("line_sink_first", "decide", 600, 640),
    ("clock", "analyze", 340, 360),
    ("dag", "decide", 240, 260),
    ("line_shuffled", "decide", 140, 160),
    ("mn_rose", "analyze", 140, 160),
    ("line", "analyze", 240, 260),
    ("ladder", "decide", 60, 70),
    ("dag", "decide", 950, 1000),
    ("line_sink_first", "analyze", 95, 105),
    ("clock", "decide", 270, 290),
)


class Decide:
    """``leavitt decide --json`` and ``leavitt analyze --json``, one fresh
    graph per operation, so no lookup table of an earlier operation helps."""

    name = "decide"
    cycle = len(DECIDE_SLOTS)
    cycles = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.token = f"{random.Random(f'decide:{seed}').getrandbits(24):06x}"

    def op(self, i: int) -> CliOp:
        rng = random.Random(f"decide:{self.seed}:{i}")
        family, command, lo, hi = DECIDE_SLOTS[i % self.cycle]
        n = rng.randint(lo, hi)
        data = self._graph(family, n, rng, f"g{self.token}o{i}")
        # the recursive path count overflows on a long sink-first chain
        known = "RecursionError" if family == "line_sink_first" and n > 500 else None
        if command == "analyze":
            return CliOp(["analyze", "{graph}", "--json"], data, command=command,
                         known_error=known)
        # fields and primes rotate with i, so every run sees the same mix
        p = DECIDE_PRIMES[i // 4 % len(DECIDE_PRIMES)]
        spec = ("Q", "Q[i]/id", f"GF({p})", f"GF({p},2)")[(i // self.cycle + i) % 4]
        return CliOp(["decide", "{graph}", "--field", spec, "--json"], data,
                     command=command, field=spec, known_error=known)

    @staticmethod
    def _graph(family, n, rng, prefix) -> GraphData:
        if family.startswith("line"):
            data = line(n, prefix)
            if family == "line_shuffled":
                rng.shuffle(data.vertices)
            elif family == "line_sink_first":
                data.vertices.reverse()
            return data
        if family == "clock":
            return GraphData.of(clock_graph(n, rng.randint(1, 3)), prefix)
        if family == "mn_rose":
            return GraphData.of(m_n_graph(standard_graph("rose", rng.randint(1, 3)), n), prefix)
        if family == "ladder":
            # a_j -> a_j+1, a_j -> b_j+1, b_j -> a_j+1, b_j -> b_j+1:
            # about 2^(n/2) paths into the last rung
            rungs = n // 2
            vertices = [f"{prefix}{s}{j}" for j in range(1, rungs + 1) for s in "ab"]
            edges = []
            for j in range(1, rungs):
                for s in "ab":
                    for t in "ab":
                        edges.append((f"{prefix}{s}{t}{j}", f"{prefix}{s}{j}", f"{prefix}{t}{j + 1}"))
        else:
            # random in-forest toward low indices plus a few forward shortcuts
            vertices = [f"{prefix}v{j}" for j in range(n)]
            edges = [(f"{prefix}t{j}", vertices[j], vertices[rng.randrange(j)]) for j in range(1, n)]
            for j in range(n // 20):
                a, b = sorted(rng.sample(range(n), 2))
                edges.append((f"{prefix}x{j}", vertices[b], vertices[a]))
        data = GraphData(vertices, edges)
        rng.shuffle(data.vertices)
        return data

    def check(self, op: CliOp, out) -> str | None:
        rc, text = out
        counts = op.data.path_counts()
        sigma = sigma_of(counts)
        acyclic = OMEGA not in counts.values()
        expected = {"acyclic": acyclic, "sigma": sigma,
                    "mu": {v: counts[v] for v in op.data.vertices}}
        if op.facts["command"] == "analyze":
            expected_rc = 0
            expected.update(
                vertices=op.data.vertices,
                edges=[{"id": e, "src": s, "dst": d} for e, s, d in op.data.edges],
                sinks=op.data.sinks())
        else:
            spec = op.facts["field"]
            level = field_level(spec)
            if level == OMEGA:
                status = "proper"
            elif not acyclic:
                status = "unknown"
            else:
                status = "improper" if level_below(level, sigma) else "proper"
            expected_rc = 2 if status == "unknown" else 0
            expected.update(
                field=spec, properness_level=level, regular=acyclic,
                star_regular=acyclic and not level_below(level, sigma),
                positive_definite_algebra=level == OMEGA, proper_algebra=status)
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}"
        got = json.loads(text)
        for key, value in expected.items():
            if got.get(key) != value:
                return f"{key} differs from the expected value"
        if op.facts["command"] == "decide":
            cert = got.get("improper_certificate")
            if (cert is None) != (expected["proper_algebra"] != "improper"):
                return "improper certificate present without an improper verdict, or missing with one"
            if cert is not None:
                return _improper_problem(op.data, op.facts["field"], cert)
        return None

    def warm_up(self, path):
        g = line(3, "w")
        CliOp(["analyze", "{graph}", "--json"], g).prepare(path)()
        for spec in ("Q", "Q[i]/id", "GF(7)", "GF(5)", "GF(3,2)"):
            CliOp(["decide", "{graph}", "--field", spec, "--json"], g).prepare(path)()


# ---------------------------------------------------------------------------
# arith: library products on graphs a long-lived caller keeps reusing

ARITH_FIELDS = ("Q", "Q[i]/conj", "GF(5)", "GF(3,2)")
ARITH_KINDS = ("mul", "mul3", "star_mul", "add")
ARITH_SMALL = ("rose3", "toeplitz", "clock3_2", "line5", "btree")
ARITH_LARGE = ("clock300_2", "m200_rose2")
ARITH_TERMS = 8        # operands have 1..8 terms, fixed by the slot
ARITH_LARGE_EVERY = 6  # one op in six runs on a graph of a few hundred vertices


def _arith_graphs() -> dict:
    return {
        "rose3": standard_graph("rose", 3),
        "toeplitz": standard_graph("toeplitz"),
        "clock3_2": clock_graph(3, 2),
        "line5": standard_graph("line", 5),
        "btree": binary_in_tree("").graph(),
        "clock300_2": clock_graph(300, 2),
        "m200_rose2": m_n_graph(standard_graph("rose", 2), 200),
    }


class ArithOp:
    __slots__ = ("kind", "graph_name", "spec", "monomials", "graph", "field", "args")

    def signature(self):
        return (self.kind, self.graph_name, self.spec, self.monomials)

    def graph_key(self):
        return self.graph_name

    def known_error(self):
        return None

    def prepare(self, path):
        k = self.field
        self.args = x, y, z = tuple(
            Element.from_terms(self.graph, k, [(k.parse_literal(c), p, q) for c, p, q in terms])
            for terms in self.monomials)
        if self.kind == "mul":
            return lambda: x * y
        if self.kind == "mul3":
            return lambda: (x * y) * z
        if self.kind == "star_mul":
            return lambda: x.star() * x
        return lambda: x + y


class Arith:
    """``x*y``, ``(x*y)*z``, ``x.star()*x`` and ``x+y`` through the library
    API on a fixed set of Graph objects, reused from operation to operation.
    The slot fixes the kind, field, graph and the term counts of the
    operands; every op gets its own seeded operands, built outside any
    timing, so only the graphs and fields repeat."""

    name = "arith"
    cycle = 960
    cycles = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = _arith_graphs()
        self.data = {name: GraphData.of(g, "") for name, g in self.graphs.items()}
        self.fields = {spec: parse_field_spec(spec) for spec in ARITH_FIELDS}

    def op(self, j: int) -> ArithOp:
        rng = random.Random(f"arith:{self.seed}:{j}")
        op = ArithOp()
        op.kind = ARITH_KINDS[j % 4]
        op.spec = ARITH_FIELDS[(j // 4) % 4]
        if j % ARITH_LARGE_EVERY == ARITH_LARGE_EVERY - 1:
            op.graph_name = ARITH_LARGE[(j // ARITH_LARGE_EVERY) % len(ARITH_LARGE)]
        else:
            op.graph_name = ARITH_SMALL[j % len(ARITH_SMALL)]
        op.graph = self.graphs[op.graph_name]
        op.field = self.fields[op.spec]
        counts = (1 + j // 16 % ARITH_TERMS, 1 + j // 128 % ARITH_TERMS, 1 + j % ARITH_TERMS)
        op.monomials = tuple(random_monomials(self.data[op.graph_name], op.spec, rng,
                                              max_terms=n, max_len=4, exact=True)
                             for n in counts)
        op.args = None
        return op

    def check(self, op: ArithOp, result) -> str | None:
        """By phi on acyclic graphs, by associativity and the involution on
        cyclic ones."""
        return arith_problem(op, result)

    def warm_up(self, path):
        """One product per reused graph and field fills the graph's tables,
        as in a long-lived caller."""
        for g in self.graphs.values():
            for k in self.fields.values():
                x = Element.vertex(g, k, g.vertices[0]) + Element.edge(g, k, g.edges[0].id)
                x * x.star()


def arith_problem(op: ArithOp, r) -> str | None:
    x, y, z = op.args
    if not isinstance(r, Element) or r.graph != op.graph or r.field != x.field:
        return "result is not an element of the operands' algebra"
    if op.graph_name in ("line5", "btree"):
        px, py, pz = phi(x), phi(y), phi(z)
        expected = {"mul": lambda: px * py, "mul3": lambda: px * py * pz,
                    "star_mul": lambda: px.star() * px, "add": lambda: px + py}[op.kind]()
        return None if phi(r) == expected else "phi(result) differs from the matrix product"
    # z + 1 keeps associativity and cannot annihilate an error term
    w = z + Element.one(op.graph, x.field)
    if op.kind == "mul":
        ok = r * w == x * (y * w) and r.star() == y.star() * x.star()
    elif op.kind == "mul3":
        ok = r == x * (y * z) and r.star() == z.star() * (y.star() * x.star())
    elif op.kind == "star_mul":
        ok = (r.star() == r and r * w == x.star() * (x * w)
              and w.star() * r == (x * w).star() * x)
    else:
        ok = r - x == y and r == y + x
    return None if ok else "associativity or involution check fails"


WORKLOADS = {w.name: w for w in (Certify, Arith, Decide)}
