"""Shared corpus graphs, field lists, and brute-force oracles.

The oracles here are deliberately independent of the library internals:
paths are enumerated by forward walks from every vertex, not by the
library's backward dynamic programming.
"""

import argparse
import random
import sys
from collections import deque

import pytest

from leavitt import (
    Element,
    FieldValue,
    GaussianRationals,
    Graph,
    Path,
    PrimeField,
    QuadraticExtField,
    Rationals,
    graph_union,
    relabel_graph,
    special_edges,
    standard_graph,
)
from leavitt.graphs import edge_by_id, in_edges, out_edges, path_range
from leavitt.linalg import _identity, _mul


def binary_in_tree() -> Graph:
    # two levels feeding the root sink n1
    vertices = [f"n{i}" for i in range(1, 8)]
    edges = [
        ("c1", "n2", "n1"), ("c2", "n3", "n1"),
        ("c3", "n4", "n2"), ("c4", "n5", "n2"),
        ("c5", "n6", "n3"), ("c6", "n7", "n3"),
    ]
    return Graph.build(vertices, edges)


def ladder(n: int) -> Graph:
    """Vertices v0..vn and edges a_i, b_i from v_i to v_{i+1}: 2^(i+1) - 1
    paths end at v_i."""
    edges = [(f"{c}{i}", f"v{i}", f"v{i + 1}") for i in range(n) for c in "ab"]
    return Graph.build([f"v{i}" for i in range(n + 1)], edges)


def corpus() -> dict:
    graphs = {f"line{n}": standard_graph("line", n) for n in range(1, 6)}
    graphs["union_2_1"] = graph_union(standard_graph("line", 2),
                                      relabel_graph(standard_graph("line", 1), "u"))
    graphs["union_3_2"] = graph_union(standard_graph("line", 3),
                                      relabel_graph(standard_graph("line", 2), "w"))
    graphs["btree"] = binary_in_tree()
    graphs["rose1"] = standard_graph("rose", 1)
    graphs["rose2"] = standard_graph("rose", 2)
    graphs["toeplitz"] = standard_graph("toeplitz")
    return graphs


def acyclic_corpus() -> dict:
    from leavitt import is_acyclic
    return {name: g for name, g in corpus().items() if is_acyclic(g)}


FIVE_FIELDS = (
    Rationals(),
    GaussianRationals(conjugation=False),
    GaussianRationals(conjugation=True),
    PrimeField(3),
    PrimeField(5),
)

ALL_FIELDS = FIVE_FIELDS + (PrimeField(2), QuadraticExtField(2),
                            QuadraticExtField(3), QuadraticExtField(5))


@pytest.fixture
def graphs():
    return corpus()


@pytest.fixture
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# random data


def random_path_to(g, v, rng, max_len=2) -> Path:
    """A bounded random backward walk ending at v."""
    edges = []
    at = v
    for _ in range(rng.randint(0, max_len)):
        ins = in_edges(g, at)
        if not ins:
            break
        e = rng.choice(ins)
        edges.append(e.id)
        at = e.src
    return Path(at, tuple(reversed(edges)))


def random_raw_terms(g, k, rng, max_terms=3, max_len=2):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        v = rng.choice(g.vertices)
        p = random_path_to(g, v, rng, max_len)
        q = random_path_to(g, v, rng, max_len)
        terms.append((k.sample(rng), p, q))
    return terms


def random_element(g, k, rng, max_terms=3, max_len=2) -> Element:
    return Element.from_terms(g, k, random_raw_terms(g, k, rng, max_terms, max_len))


def random_nonzero_element(g, k, rng, max_terms=3, max_len=2) -> Element:
    while True:
        x = random_element(g, k, rng, max_terms, max_len)
        if x:
            return x


# ---------------------------------------------------------------------------
# oracles


def brute_paths(g, max_len=None):
    """Every path of g by forward extension, up to max_len when given."""
    found = [Path(v, ()) for v in g.vertices]
    frontier = list(found)
    while frontier:
        new = []
        for p in frontier:
            if max_len is not None and len(p.edges) >= max_len:
                continue
            for e in out_edges(g, path_range(g, p)):
                new.append(Path(p.base, p.edges + (e.id,)))
        found.extend(new)
        frontier = new
        if max_len is None and len(found) > 100000:
            raise AssertionError("brute_paths needs max_len on cyclic graphs")
    return found


def brute_paths_to(g, v, max_len=None):
    return [p for p in brute_paths(g, max_len) if path_range(g, p) == v]


def paths_built(call):
    """call()'s result and the number of ``Path``s it built, counted with
    ``sys.setprofile`` as calls to ``Path.__new__``'s code object."""
    new = Path.__new__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            calls.append(1)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, len(calls)


def mat_from_rows(field, rows):
    """A dense matrix over ``field`` from rows of ints and FieldValues."""
    return [[field.from_int(x) if isinstance(x, int) else x for x in row] for row in rows]


def zeros(field, m, n):
    """The dense m x n zero matrix over ``field``."""
    return [[field.zero] * n for _ in range(m)]


def identity(field, n):
    """The dense n x n identity matrix over ``field``."""
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def is_zero_matrix(a) -> bool:
    return all(not x for row in a for x in row)


def naive_conj_transpose(a):
    """Entry by entry: the conjugate of a[i][j] at (j, i)."""
    return [[a[i][j].conj() for i in range(len(a))] for j in range(len(a[0]) if a else 0)]


def naive_mat_mul(a, b):
    """Dense triple loop: every scalar product is formed, zero factors too."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0]) if b else 0):
            acc = row[0] * b[0][j]
            for t in range(1, len(b)):
                acc = acc + row[t] * b[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def naive_rank(a):
    """Rank by column-by-column row reduction of a copy, independent of the
    full-pivoting order that ``rank_factorization`` uses."""
    rows = [row[:] for row in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        for r in range(rank + 1, len(rows)):
            c = rows[r][col] * inv
            rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_factor(field, M, m, n):
    """The factorization ``linalg._factor`` computes, with P and Q^-1 kept
    as rows: every row or column swap, pivot scaling and elimination walks
    all rows of P or Q^-1. Gauss-Jordan with full pivoting on the payload
    rows M (consumed: M ends as D); returns P, P^-1, D, Q, Q^-1 as payload
    rows and the rank.

    The pivot is the first nonzero entry of the remaining block in
    row-major order, so the output is deterministic. Rows from k on have no
    entry left of column k, because every earlier pivot column was cleared.
    """
    add, mul, neg, inv, is_zero = (
        field._add, field._mul, field._neg, field._inv, field._is_zero)
    one = field._from_int(1)
    A = [dict(row) for row in M]
    P, Pinv = _identity(field, m), _identity(field, m)
    Q, Qinv = _identity(field, n), _identity(field, n)

    def add_term(row, j, term):
        """row[j] <- row[j] + term, dropping the entry if the sum vanishes."""
        if j in row:
            total = add(row[j], term)
            if is_zero(total):
                del row[j]
            else:
                row[j] = total
        else:
            row[j] = term

    def add_multiple(row, c, entries):
        """row <- row + c * v, in place, for v given by its nonzero entries."""
        for j, y in entries:
            add_term(row, j, mul(c, y))

    def swap_keys(rows, i, j):
        for row in rows:
            x, y = row.pop(i, None), row.pop(j, None)
            if x is not None:
                row[j] = x
            if y is not None:
                row[i] = y

    rank = 0
    for k in range(min(m, n)):
        i = next((r for r in range(k, m) if M[r]), None)
        if i is None:
            break
        j = min(M[i])
        if i != k:
            M[i], M[k] = M[k], M[i]
            swap_keys(P, i, k)       # P <- P * S^-1 with S the row swap
            Pinv[i], Pinv[k] = Pinv[k], Pinv[i]
        if j != k:
            swap_keys(M, j, k)
            Q[j], Q[k] = Q[k], Q[j]
            swap_keys(Qinv, j, k)
        piv = M[k][k]
        if piv != one:
            scale = inv(piv)
            M[k] = {j2: mul(scale, x) for j2, x in M[k].items()}
            for row in P:            # column k of P picks up the pivot
                if k in row:
                    row[k] = mul(row[k], piv)
            Pinv[k] = {j2: mul(scale, x) for j2, x in Pinv[k].items()}
        # The pivot is now one, so eliminating it leaves column k empty in
        # every other row without forming c - c * 1.
        pivot_row = [(j2, x) for j2, x in M[k].items() if j2 != k]
        pinv_row = list(Pinv[k].items())
        for i2 in range(m):
            c = M[i2].get(k) if i2 != k else None
            if c is None:
                continue
            del M[i2][k]
            add_multiple(M[i2], neg(c), pivot_row)
            for row in P:            # P <- P * (I + c E_{i2,k})
                if i2 in row:
                    add_term(row, k, mul(c, row[i2]))
            add_multiple(Pinv[i2], neg(c), pinv_row)
        # Column k of M is now zero off the pivot, so clearing column j2
        # with column k changes only M[k][j2].
        qinv_rows = [row for row in Qinv if k in row]
        for j2, c in pivot_row:
            del M[k][j2]
            add_multiple(Q[k], c, Q[j2].items())
            minus_c = neg(c)
            for row in qinv_rows:    # Qinv <- Qinv * (I - c E_{k,j2})
                add_term(row, j2, mul(minus_c, row[k]))
        rank = k + 1

    if not (_mul(field, P, Pinv) == _identity(field, m)
            and _mul(field, Q, Qinv) == _identity(field, n)
            and _mul(field, _mul(field, P, M), Q) == A):
        raise AssertionError("rank factorization failed self-check")
    return P, Pinv, M, Q, Qinv, rank


def oracle_product_payloads(field, left, right) -> list:
    """(payload, p, q) for every pair of monomials of two monomial ->
    payload maps whose product p1 q1* p2 q2* survives, in the maps' order,
    by trying all |left|*|right| pairs: the middle q1* p2 is nonzero only
    when one path is a prefix of the other."""
    def is_prefix(a, b):
        return a.base == b.base and b.edges[:len(a.edges)] == a.edges

    mul = field._mul
    raw = []
    for (p1, q1), c1 in left.items():
        for (p2, q2), c2 in right.items():
            if is_prefix(q1, p2):
                gamma = p2.edges[len(q1.edges):]
                raw.append((mul(c1, c2), Path(p1.base, p1.edges + gamma), q2))
            elif is_prefix(p2, q1):
                gamma = q1.edges[len(p2.edges):]
                raw.append((mul(c1, c2), p1, Path(q2.base, q2.edges + gamma)))
    return raw


def oracle_product_terms(x, y):
    """``oracle_product_payloads`` of two elements, as (coeff, p, q)."""
    return [(FieldValue(x.field, c), p, q)
            for c, p, q in oracle_product_payloads(x.field, x._terms, y._terms)]


def oracle_normalize_terms(g, field, raw, schedule="lifo") -> dict:
    """Rewrite a raw (payload, p, q) stream into normal-form monomial ->
    payload the plain way: every term goes through one deque worklist, is
    tested for zero when popped, and the sums are filtered at the end."""
    spec, emap = special_edges(g), edge_by_id(g)
    add, neg, is_zero = field._add, field._neg, field._is_zero
    acc: dict = {}
    work = deque(raw)
    pop = work.pop if schedule == "lifo" else work.popleft
    while work:
        c, p, q = pop()
        if is_zero(c):
            continue
        if p.edges and q.edges and p.edges[-1] == q.edges[-1]:
            f = p.edges[-1]
            w = emap[f].src
            if spec[w] == f:
                p0 = Path(p.base, p.edges[:-1])
                q0 = Path(q.base, q.edges[:-1])
                work.append((c, p0, q0))
                minus = neg(c)
                for e in out_edges(g, w):
                    if e.id != f:
                        work.append((minus, Path(p0.base, p0.edges + (e.id,)),
                                     Path(q0.base, q0.edges + (e.id,))))
                continue
        key = (p, q)
        prev = acc.get(key)
        acc[key] = c if prev is None else add(prev, c)
    return {m: c for m, c in acc.items() if not is_zero(c)}


def oracle_mul(x, y) -> Element:
    """x * y through the all-pairs rule, normalized by
    ``oracle_normalize_terms``, not by the library's normalizer."""
    raw = oracle_product_payloads(x.field, x._terms, y._terms)
    return Element(x.graph, x.field, oracle_normalize_terms(x.graph, x.field, raw),
                   _trusted=True)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def search_improper(k, n):
    """The first tuple (1, x_2, ..., x_n) in ``k.elements()`` order whose
    sum of conj(x_i)*x_i vanishes, by exhaustive search; None when there is
    none. Any improper tuple can be permuted and scaled so its first entry
    is 1, so fixing x_1 = 1 loses nothing."""
    pool = list(k.elements())
    one, zero = k.one, k.zero

    def rec(prefix, acc):
        if len(prefix) == n:
            return prefix if acc == zero else None
        for x in pool:
            found = rec(prefix + [x], acc + x.conj() * x)
            if found is not None:
                return found
        return None

    found = rec([one], one.conj() * one)
    return tuple(found) if found is not None else None


def cycle_reached(g) -> set:
    """Vertices that some cycle reaches (the cycle's own vertices included),
    by forward reachability over the edge list: u lies on a cycle when u
    reaches itself by a path of at least one edge."""
    succ = {v: set() for v in g.vertices}
    for e in g.edges:
        succ[e.src].add(e.dst)
    reach = {}
    for u in g.vertices:
        seen, stack = set(), list(succ[u])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(succ[w])
        reach[u] = seen
    out = set()
    for u in g.vertices:
        if u in reach[u]:
            out |= reach[u]
    return out


# ---------------------------------------------------------------------------
# the sink route through dense blocks: the reference for the witness builders


def oracle_regular_witness(g, k, a):
    """b = phi_inv(Q^-1 D P^-1) per dense block of phi(a), A = P D Q."""
    from leavitt.linalg import mat_mul, rank_factorization
    from leavitt.semisimple import MatrixImage, phi, phi_inv

    def block_inverse(block):
        fact = rank_factorization(k, block)
        return mat_mul(fact.q_inv, mat_mul(fact.d, fact.p_inv))

    image = phi(a)
    return phi_inv(MatrixImage(k, image.basis,
                               {v: block_inverse(b) for v, b in image.blocks.items()}))


def oracle_unit_regular_witness(g, k, a):
    """(u, u') = phi_inv(Q^-1 P^-1), phi_inv(P Q) per dense block of phi(a)."""
    from leavitt.linalg import mat_mul, rank_factorization
    from leavitt.semisimple import MatrixImage, phi, phi_inv, sink_basis

    image = phi(a)
    basis = sink_basis(g)
    u_blocks, up_blocks = {}, {}
    for v, block in image.blocks.items():
        fact = rank_factorization(k, block)
        u_blocks[v] = mat_mul(fact.q_inv, fact.p_inv)
        up_blocks[v] = mat_mul(fact.p, fact.q)
    return (phi_inv(MatrixImage(k, basis, u_blocks)),
            phi_inv(MatrixImage(k, basis, up_blocks)))


def oracle_projection_generator(g, k, a):
    """(p, factor) by element products and dense solves: x = a b, t with
    t phi(x* x) = phi(x) per block, p = t x*, and a factor = p per block.
    Raises NotStarRegularError with ``improper_element`` when a solve for t
    is inconsistent."""
    from leavitt import NotStarRegularError, improper_element
    from leavitt.linalg import solve_linear
    from leavitt.semisimple import MatrixImage, phi, phi_inv

    b = oracle_regular_witness(g, k, a)
    x = a * b
    xs = x.star()
    gram = phi(xs * x)
    ximg = phi(x)
    t_blocks = {}
    for v in ximg.blocks:
        t_block = solve_linear(k, gram.blocks[v], ximg.blocks[v], side="left")
        if t_block is None:
            raise NotStarRegularError(improper_element(g, k))
        t_blocks[v] = t_block
    t = phi_inv(MatrixImage(k, ximg.basis, t_blocks))
    p = t * xs
    pimg = phi(p)
    aimg = phi(a)
    r_blocks = {v: solve_linear(k, aimg.blocks[v], pimg.blocks[v], side="right")
                for v in aimg.blocks}
    return p, phi_inv(MatrixImage(k, aimg.basis, r_blocks))


# ---------------------------------------------------------------------------
# the expression parser that multiplies and normalizes as it goes: the
# reference for ``io.parse_element``


class OracleExprParser:
    def __init__(self, text, g, k):
        from leavitt.graphs import vertex_set

        self.text = text
        self.pos = 0
        self.g = g
        self.k = k
        self.vset = vertex_set(g)
        self.emap = edge_by_id(g)

    def fail(self, message):
        from leavitt.io import ParseError
        raise ParseError(f"column {self.pos + 1}: {message}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_term_end(self):
        self.skip_ws()
        return self.peek() in ("", "+", "-")

    def parse(self):
        self.skip_ws()
        if not self.peek():
            self.fail("empty expression")
        total = self.parse_term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if not ch:
                return total
            if ch not in "+-":
                self.fail(f"unexpected character {ch!r}")
            self.pos += 1
            term = self.parse_term()
            total = total + term if ch == "+" else total - term

    def parse_term(self):
        self.skip_ws()
        start = self.pos
        scanned = self.k.scan_literal(self.text, self.pos)
        if scanned is not None:
            coeff, end = scanned
            self.pos = end
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                return self.parse_factors().scale(coeff)
            if self.at_term_end():
                return Element.one(self.g, self.k).scale(coeff)
            self.pos = start
        if self.peek() in ("+", "-"):
            sign = self.peek()
            self.pos += 1
            element = self.parse_factors()
            return -element if sign == "-" else element
        return self.parse_factors()

    def parse_factors(self):
        element = self.parse_factor()
        while True:
            self.skip_ws()
            if self.peek() != ".":
                return element
            self.pos += 1
            element = element * self.parse_factor()

    def parse_factor(self):
        from leavitt.io import _IDENT_CHARS

        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            self.fail("expected an identifier")
        self.skip_ws()
        adjoint = False
        if self.peek() == "*":
            adjoint = True
            self.pos += 1
        return self.resolve(name, adjoint)

    def resolve(self, name, adjoint):
        from leavitt.io import ParseError

        is_vertex = name in self.vset
        is_edge = name in self.emap
        if is_vertex and is_edge:
            raise ParseError(f"ambiguous identifier {name!r} (both a vertex and an edge)")
        if is_vertex:
            return Element.vertex(self.g, self.k, name)
        if is_edge:
            if adjoint:
                return Element.ghost(self.g, self.k, name)
            return Element.edge(self.g, self.k, name)
        raise ParseError(f"unknown identifier {name!r}")


def oracle_parse_element(text, g, k):
    return OracleExprParser(text, g, k).parse()


# ---------------------------------------------------------------------------
# the argparse command line the CLI's table-driven reader replaced, kept as
# the oracle that tests/test_cli_properties.py reads argv with


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2, and one
    # ``error:`` line like every other error
    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit structured JSON instead of text")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", required=True, metavar="SPEC",
                       help="Q, Q[i]/id, Q[i]/conj, GF(p), GF(p,2)")
    exprs = argparse.ArgumentParser(add_help=False)
    exprs.add_argument("-e", "--expr", action="append", metavar="EXPR",
                       help="element expression; mul takes two, left factor "
                            "first, and witness improper none")

    parser = _Parser(prog="leavitt",
                     description="exact computation in path algebras with "
                                 "Cuntz-Krieger relations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, help_text in (
        ("analyze", [common], "structural facts about a graph"),
        ("decide", [common, field], "regularity, *-regularity, and properness verdicts"),
        ("nf", [common, field, exprs], "normal form of an expression"),
        ("star", [common, field, exprs], "adjoint of an expression"),
        ("mul", [common, field, exprs], "product of two expressions"),
        ("phi", [common, field, exprs], "matrix image over the sinks (acyclic graphs)"),
        ("witness", [common, field, exprs], "constructive certificates"),
    ):
        p = sub.add_parser(name, parents=parents, help=help_text)
        if name == "witness":
            p.add_argument("kind", choices=["regular", "projection", "improper", "unit"])
        p.add_argument("graph", help="graph file, or - for stdin")

    p = sub.add_parser("construct", parents=[common],
                       help="build standard and derived graphs")
    p.add_argument("kind", choices=["line", "rose", "toeplitz", "mn", "ef"])
    p.add_argument("params", nargs="*",
                   help="line/rose/toeplitz: [n]; mn: GRAPH N; ef: GRAPH EDGE...")

    return parser


def _bind_expressions(argv: list) -> list:
    """Join -e/--expr to a value starting with '-' (such as -v1) as
    --expr=VALUE, so that argparse does not take the value for an option;
    every other token is left as typed."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in ("-e", "--expr") else None
        if value is None:
            out.append(token)
        elif value.startswith("-"):
            out.append(f"--expr={value}")
        else:
            out += [token, value]
    return out


def oracle_read_args(argv):
    """The argparse namespace for ``argv``, as the CLI read it before the
    table-driven reader; a usage error raises ``SystemExit``."""
    return build_parser().parse_args(_bind_expressions(argv))
