import inspect
import operator

import pytest

from leavitt import (
    AlgebraError,
    Element,
    FieldMismatchError,
    FieldValue,
    GaussianRationals,
    Graph,
    GraphError,
    Path,
    PrimeField,
    Rationals,
    eq,
    linear_combine,
    local_unit,
    normalize,
    parse_field_spec,
    phi,
    special_edges,
    standard_graph,
)
from leavitt import algebra
from leavitt.fields import Field
from leavitt.graphs import clock_graph, out_edges
from leavitt.io import parse_element
from leavitt.omega import OMEGA

from conftest import corpus, oracle_product_terms, random_element, random_raw_terms

Q = Rationals()
LINE2 = standard_graph("line", 2)
LINE3 = standard_graph("line", 3)
ROSE2 = standard_graph("rose", 2)
LOOP = standard_graph("rose", 1)


def vertex(g, k, v):
    return Element.vertex(g, k, v)


def edge(g, k, e):
    return Element.edge(g, k, e)


class TestNormalize:
    def test_special_edge_is_lex_greatest(self):
        assert special_edges(ROSE2) == {"v": "e2"}
        assert special_edges(LINE2) == {"v1": "e1"}

    def test_rose2_ck2_rewrite(self):
        # e2 e2* rewrites to v - e1 e1*
        p = Path("v", ("e2",))
        x = Element.from_terms(ROSE2, Q, [(1, p, p)])
        p1 = Path("v", ("e1",))
        expected = vertex(ROSE2, Q, "v") - Element.from_terms(ROSE2, Q, [(1, p1, p1)])
        assert x == expected
        # and e1 e1* is already normal
        assert dict(Element.from_terms(ROSE2, Q, [(1, p1, p1)]).items()) == {
            (p1, p1): Q.one
        }

    def test_single_loop_ck2(self):
        p = Path("v", ("e1",))
        assert Element.from_terms(LOOP, Q, [(1, p, p)]) == vertex(LOOP, Q, "v")

    def test_idempotent_on_normal_input(self):
        x = edge(LINE2, Q, "e1") + vertex(LINE2, Q, "v2").scale(3)
        again = Element.from_terms(LINE2, Q, [(c, p, q) for (p, q), c in x.items()])
        assert again == x

    def test_rejects_foreign_monomials(self):
        with pytest.raises(AlgebraError):
            Element.from_terms(LINE2, Q, [(1, Path("v", ("zz",)), Path("v", ()))])
        with pytest.raises(AlgebraError):
            # ranges differ
            Element.from_terms(LINE2, Q, [(1, Path("v1", ("e1",)), Path("v1", ()))])


class TestMul:
    def test_distinct_vertices_annihilate(self):
        assert (vertex(LINE2, Q, "v1") * vertex(LINE2, Q, "v2")).is_zero

    def test_ck1(self):
        e1 = edge(LINE2, Q, "e1")
        assert e1.star() * e1 == vertex(LINE2, Q, "v2")

    def test_ck1_delta_case(self):
        e1 = edge(ROSE2, Q, "e1")
        e2 = edge(ROSE2, Q, "e2")
        assert (e1.star() * e2).is_zero

    def test_p1_p2_absorption(self):
        e1 = edge(LINE2, Q, "e1")
        assert vertex(LINE2, Q, "v1") * e1 == e1
        assert e1 * vertex(LINE2, Q, "v2") == e1
        assert e1.star() * vertex(LINE2, Q, "v1") == e1.star()

    def test_associativity_and_distributivity(self, rng):
        for g in (LINE3, ROSE2, standard_graph("toeplitz")):
            for k in (Q, PrimeField(3)):
                for _ in range(60):
                    x = random_element(g, k, rng)
                    y = random_element(g, k, rng)
                    z = random_element(g, k, rng)
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z
                    assert (x + y) * z == x * z + y * z

    def test_vertices_are_orthogonal_idempotents(self):
        for g in corpus().values():
            for v in g.vertices:
                ev = vertex(g, Q, v)
                assert ev * ev == ev
                for w in g.vertices:
                    if w != v:
                        assert (ev * vertex(g, Q, w)).is_zero


class TestStar:
    def test_vertex_self_adjoint(self):
        v = vertex(LINE2, Q, "v1")
        assert v.star() == v

    def test_edge_star_is_ghost(self):
        e1 = edge(LINE2, Q, "e1")
        assert e1.star() == Element.ghost(LINE2, Q, "e1")

    def test_conjugate_linear(self):
        k = GaussianRationals(conjugation=True)
        c = k.parse_literal("1+i")
        x = edge(LINE2, k, "e1").scale(c)
        assert x.star() == Element.ghost(LINE2, k, "e1").scale(k.parse_literal("1-i"))

    def test_laws(self, rng):
        k = GaussianRationals(conjugation=True)
        for g in (LINE3, ROSE2):
            for _ in range(40):
                x = random_element(g, k, rng)
                y = random_element(g, k, rng)
                c = k.sample(rng)
                assert (x + y).star() == x.star() + y.star()
                assert (x * y).star() == y.star() * x.star()
                assert x.star().star() == x
                assert x.scale(c).star() == x.star().scale(c.conj())


class TestOne:
    def test_sum_of_the_vertices(self):
        assert Element.one(LINE2, Q) == vertex(LINE2, Q, "v1") + vertex(LINE2, Q, "v2")

    def test_invalid_graph_refused(self):
        # Graph.build validates lazily; one reads the index, as vertex does
        with pytest.raises(GraphError) as exc:
            Element.one(Graph.build(["a", "a"], []), Q)
        assert str(exc.value) == "duplicate identifier a"


class TestRefusals:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: Element(LINE2, Q, {}), TypeError,
         "use the Element constructors (zero, vertex, from_terms, ...)"),
        (lambda: Element.vertex(LINE2, Q, "e1"), GraphError, "unknown vertex e1"),
        (lambda: Element.edge(LINE2, Q, "v1"), GraphError, "unknown edge v1"),
        (lambda: Element.ghost(LINE2, Q, "zz"), GraphError, "unknown edge zz"),
        (lambda: linear_combine([]), AlgebraError, "linear_combine needs at least one term"),
    ], ids=["Element", "vertex", "edge", "ghost", "linear_combine"])
    def test_one_named_error(self, build, error, message):
        with pytest.raises(error) as caught:
            build()
        assert (type(caught.value), str(caught.value)) == (error, message)


def rose_build():
    return Graph.build(["v"], [("e1", "v", "v"), ("e2", "v", "v")])


OPS = {"*": operator.mul, "+": operator.add, "-": operator.sub}


@pytest.mark.parametrize("op", OPS.values(), ids=OPS)
class TestOperandRule:
    """Operands over equal graph and field objects combine; unequal ones
    are refused with one message, also when an operand is zero."""

    X, Y = "v + 2*e1 + e2.e1*", "e1* + 3*e2.e2* - e1.e2"

    def test_equal_distinct_graphs(self, op):
        g, h = rose_build(), rose_build()
        assert g is not h and g == h
        x, y = parse_element(self.X, g, Q), parse_element(self.Y, g, Q)
        for left, right in ((x, parse_element(self.Y, h, Q)), (parse_element(self.X, h, Q), y)):
            got = op(left, right)
            assert (got, str(got), got.graph) == (op(x, y), str(op(x, y)), left.graph)

    def test_equal_distinct_fields(self, op):
        k, m = Rationals(), Rationals()
        assert k is not m and k == m
        x, y = parse_element(self.X, ROSE2, k), parse_element(self.Y, ROSE2, k)
        for left, right in ((x, parse_element(self.Y, ROSE2, m)),
                            (parse_element(self.X, ROSE2, m), y)):
            got = op(left, right)
            assert (got, str(got), got.field) == (op(x, y), str(op(x, y)), left.field)

    @pytest.mark.parametrize("zero", ["none", "left", "right", "both"])
    def test_refusals(self, op, zero):
        g, k = rose_build(), Rationals()
        cases = [(LINE2, k, AlgebraError, "elements live over different graphs"),
                 (g, PrimeField(5), FieldMismatchError, "elements live over different fields")]
        for other_g, other_k, error, message in cases:
            x, y = parse_element(self.X, g, k), Element.edge(other_g, other_k, "e1")
            if zero in ("left", "both"):
                x = Element.zero(g, k)
            if zero in ("right", "both"):
                y = Element.zero(other_g, other_k)
            for left, right in ((x, y), (y, x)):
                with pytest.raises(error) as caught:
                    op(left, right)
                assert (type(caught.value), str(caught.value)) == (error, message)


class TestLinearCombine:
    def test_cancellation(self):
        x = edge(LINE2, Q, "e1")
        assert linear_combine([(Q.one, x), (-Q.one, x)]).is_zero

    def test_zero_scalar(self):
        assert linear_combine([(Q.zero, edge(LINE2, Q, "e1"))]).is_zero

    def test_two_vertices_stay_unreduced(self):
        got = linear_combine([(Q.one, vertex(LINE2, Q, "v1")),
                              (Q.one, vertex(LINE2, Q, "v2"))])
        assert len(got) == 2

    def test_vertex_independence(self, rng):
        # a combination of distinct vertices is zero only if all coefficients are
        for g in corpus().values():
            for _ in range(20):
                coeffs = {v: Q.sample(rng) for v in g.vertices}
                total = linear_combine(
                    [(c, vertex(g, Q, v)) for v, c in coeffs.items()])
                if any(coeffs.values()):
                    assert not total.is_zero
                    assert len(total) == sum(1 for c in coeffs.values() if c)
                else:
                    assert total.is_zero


class TestEq:
    def test_loop_relation(self):
        e = edge(LOOP, Q, "e1")
        assert eq(e.star() * e, vertex(LOOP, Q, "v"))

    def test_line2_ck2(self):
        e1 = edge(LINE2, Q, "e1")
        assert eq(vertex(LINE2, Q, "v1"), e1 * e1.star())

    def test_edge_not_equal_to_ghost(self):
        e1 = edge(LINE2, Q, "e1")
        assert not eq(e1, e1.star())

    def test_mismatch_raises(self):
        with pytest.raises(AlgebraError):
            eq(vertex(LINE2, Q, "v1"), vertex(LINE3, Q, "v1"))


class TestLocalUnit:
    def test_edge_support(self):
        e1 = edge(LINE2, Q, "e1")
        assert local_unit(e1) == vertex(LINE2, Q, "v1") + vertex(LINE2, Q, "v2")

    def test_vertex(self):
        v1 = vertex(LINE2, Q, "v1")
        assert local_unit(v1) == v1

    def test_zero(self):
        assert local_unit(Element.zero(LINE2, Q)).is_zero

    def test_acts_as_identity(self, rng):
        for g in corpus().values():
            for _ in range(20):
                x = random_element(g, Q, rng)
                u = local_unit(x)
                assert u * x == x and x * u == x


class TestConfluenceSurrogate:
    def test_schedules_agree(self, rng):
        for g in corpus().values():
            for _ in range(1000):
                raw = random_raw_terms(g, Q, rng, max_terms=4, max_len=3)
                lifo = normalize(g, Q, raw, schedule="lifo")
                fifo = normalize(g, Q, raw, schedule="fifo")
                assert lifo == fifo


class TestLaurentModel:
    """Independent model: the one-loop algebra is Laurent polynomials.

    Normal monomials on the loop have p or q trivial, so (e^a, v) is x^a,
    (v, e^b) is x^-b, and (v, v) is 1. Random arithmetic must match a
    direct dict-of-powers Laurent implementation.
    """

    @staticmethod
    def to_laurent(x):
        out = {}
        for (p, q), c in x.items():
            assert not (p.edges and q.edges)
            out[len(p.edges) - len(q.edges)] = c
        return out

    @staticmethod
    def laurent_mul(a, b):
        out = {}
        for da, ca in a.items():
            for db, cb in b.items():
                d = da + db
                out[d] = out.get(d, ca * cb * 0) + ca * cb
        return {d: c for d, c in out.items() if c}

    @staticmethod
    def random_loop_element(rng):
        raw = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(0, 3)
            b = rng.randint(0, 3)
            raw.append((Q.sample(rng), Path("v", ("e1",) * a), Path("v", ("e1",) * b)))
        return Element.from_terms(LOOP, Q, raw)

    def test_random_arithmetic_matches(self, rng):
        for _ in range(300):
            x = self.random_loop_element(rng)
            y = self.random_loop_element(rng)
            lx, ly = self.to_laurent(x), self.to_laurent(y)
            assert self.to_laurent(x * y) == self.laurent_mul(lx, ly)
            total = dict(lx)
            for d, c in ly.items():
                total[d] = total.get(d, c * 0) + c
            assert self.to_laurent(x + y) == {d: c for d, c in total.items() if c}
            assert self.to_laurent(x.star()) == {-d: c for d, c in lx.items()}


class TestToeplitzShiftModel:
    """Independent model: the loop-with-exit algebra acts faithfully on a
    one-sided shift space.

    With S the unilateral shift on basis vectors e_0, e_1, ..., the
    generators act as v2 = 1 - SS*, v1 = SS*, e2 = S v2, e1 = S v1. Finite
    combinations of monomials are determined by their action on enough
    basis vectors, so normalization and products can be checked against
    direct operator arithmetic that never sees the rewriting code.
    """

    GRAPH = standard_graph("toeplitz")
    DEPTH = 10

    @staticmethod
    def _edge_act(eid, a):
        if eid == "e1":
            return a + 1 if a >= 1 else None
        return 1 if a == 0 else None

    @staticmethod
    def _ghost_act(eid, a):
        if eid == "e1":
            return a - 1 if a >= 2 else None
        return 0 if a == 1 else None

    @classmethod
    def _monomial_act(cls, p, q, a):
        for eid in q.edges:  # q* applies the first edge's adjoint first
            a = cls._ghost_act(eid, a)
            if a is None:
                return None
        if not q.edges:
            if (q.base == "v1") != (a >= 1):
                return None
        for eid in reversed(p.edges):
            a = cls._edge_act(eid, a)
            if a is None:
                return None
        if not p.edges:
            if (p.base == "v1") != (a >= 1):
                return None
        return a

    @classmethod
    def _act(cls, terms, a):
        image = {}
        for c, p, q in terms:
            b = cls._monomial_act(p, q, a)
            if b is not None:
                image[b] = image.get(b, c * 0) + c
        return {b: c for b, c in image.items() if c}

    @classmethod
    def _element_action(cls, x):
        terms = [(c, p, q) for (p, q), c in x.items()]
        return [cls._act(terms, a) for a in range(cls.DEPTH)]

    def test_normalize_matches_operator_model(self, rng):
        g = self.GRAPH
        for _ in range(300):
            raw = random_raw_terms(g, Q, rng, max_terms=4, max_len=3)
            x = Element.from_terms(g, Q, raw)
            for a in range(self.DEPTH):
                assert self._act(raw, a) == self._act(
                    [(c, p, q) for (p, q), c in x.items()], a)

    def test_products_match_operator_composition(self, rng):
        g = self.GRAPH
        for _ in range(150):
            x = random_element(g, Q, rng, max_len=3)
            y = random_element(g, Q, rng, max_len=3)
            xy = self._element_action(x * y)
            yact = self._element_action(y)
            xterms = [(c, p, q) for (p, q), c in x.items()]
            for a in range(self.DEPTH):
                composed = {}
                for b, c in yact[a].items():
                    for d, c2 in self._act(xterms, b).items():
                        composed[d] = composed.get(d, c * 0) + c * c2
                composed = {d: c for d, c in composed.items() if c}
                assert composed == xy[a]

    def test_distinct_normal_forms_act_differently(self, rng):
        # faithfulness at bounded degree: structural inequality must be
        # visible in the operator model
        g = self.GRAPH
        seen = {}
        for _ in range(200):
            x = random_element(g, Q, rng, max_terms=2, max_len=2)
            key = tuple(tuple(sorted(level.items())) for level in
                        self._element_action(x))
            if key in seen:
                assert seen[key] == x
            else:
                seen[key] = x


class TestClassicRelations:
    def test_laurent_generator(self):
        e = edge(LOOP, Q, "e1")
        v = vertex(LOOP, Q, "v")
        assert e.star() * e == v and e * e.star() == v

    def test_leavitt_relations(self):
        for n in (2, 3, 4):
            g = standard_graph("rose", n)
            v = vertex(g, Q, "v")
            es = [edge(g, Q, f"e{i}") for i in range(1, n + 1)]
            for i, ei in enumerate(es):
                for j, ej in enumerate(es):
                    expected = v if i == j else Element.zero(g, Q)
                    assert ei.star() * ej == expected
            total = es[0] * es[0].star()
            for ei in es[1:]:
                total = total + ei * ei.star()
            assert total == v

    def test_clock_relations(self):
        g = clock_graph(3, 2)
        for v in g.vertices:
            outs = out_edges(g, v)
            if not outs:
                continue
            total = None
            for e in outs:
                ee = Element.edge(g, Q, e.id) * Element.ghost(g, Q, e.id)
                total = ee if total is None else total + ee
            assert total == vertex(g, Q, v)


class TestScale:
    """Scaling by a value of another field is refused, whether or not the
    element is zero; x * c and c * x go through the same check."""

    GF3 = PrimeField(3)

    def test_nonzero_element(self):
        x = edge(LINE2, Q, "e1")
        c = self.GF3.from_int(2)
        for scaled in (lambda: x.scale(c), lambda: x * c, lambda: c * x):
            with pytest.raises(FieldMismatchError):
                scaled()

    def test_zero_element(self):
        x = Element.zero(LINE2, Q)
        for c in (self.GF3.from_int(2), self.GF3.zero):
            for scaled in (lambda: x.scale(c), lambda: x * c, lambda: c * x):
                with pytest.raises(FieldMismatchError):
                    scaled()

    def test_same_field(self):
        x = edge(LINE2, Q, "e1")
        assert (x * Q.zero).is_zero and (0 * x).is_zero
        assert x.scale(Q.from_int(3)) == 3 * x == x * Q.from_int(3)


class TestWorkGate:
    """Products, stars and sums of operands that share their graph and field
    objects build no FieldValue and compare no fields, and a product
    multiplies coefficients only for the monomial pairs that survive."""

    SPECS = ("Q", "Q[i]/conj", "GF(5)", "GF(3,2)")
    GRAPHS = (standard_graph("line", 5), ROSE2, standard_graph("toeplitz"))

    @staticmethod
    def operand(g, k, rng):
        while True:
            x = Element.from_terms(g, k, random_raw_terms(g, k, rng, max_terms=6, max_len=3))
            if 4 <= len(x) <= 5:
                return x

    @staticmethod
    def counted(monkeypatch, cls, name):
        calls = []
        original = cls.__dict__[name]

        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
        return calls

    def test_shared_operands_are_not_checked_or_reconstructed(self, rng, monkeypatch):
        # operands that share their graph and field objects pass the operand
        # rule by identity, and results are built without ``Element.__init__``
        cases = [(self.operand(g, k, rng), self.operand(g, k, rng), k.from_int(3))
                 for g in self.GRAPHS for k in map(parse_field_spec, self.SPECS)]
        checked = self.counted(monkeypatch, algebra, "_check_operands")
        built = self.counted(monkeypatch, Element, "__init__")
        for x, y, c in cases:
            for op in (lambda: x * y, lambda: x + y, x.star, lambda: x.scale(c)):
                op()
        assert (len(checked), len(built)) == (0, 0)

    def test_a_zero_operand_reads_no_table_and_calls_no_field_method(self, monkeypatch):
        g = Graph.build(["u", "w"], [("e", "u", "w"), ("f", "u", "w"), ("l", "u", "u")])
        k = Rationals()
        calls = [self.counted(monkeypatch, cls, name)
                 for cls in type(k).__mro__[:-1]
                 for name, value in vars(cls).items() if inspect.isfunction(value)]
        assert (Element.zero(g, k) * Element.zero(g, k)).is_zero
        assert "index" not in vars(g)
        assert sum(map(len, calls)) == 0

    def test_no_field_values_and_no_field_comparisons(self, rng, monkeypatch):
        cases = [(self.operand(g, k, rng), self.operand(g, k, rng))
                 for g in self.GRAPHS for k in map(parse_field_spec, self.SPECS)
                 for _ in range(5)]
        built = self.counted(monkeypatch, FieldValue, "__init__")
        compared = self.counted(monkeypatch, Field, "__eq__")
        for x, y in cases:
            for op in (lambda: x * y, x.star, lambda: x + y):
                op()
                assert (len(built), len(compared)) == (0, 0)

    def test_zero_tests_in_a_triple_product(self, monkeypatch):
        """(x x*) x tests a coefficient for zero only where two terms met on
        one monomial: products skip the entry test. The bounds are the
        counts of the one-pass filing; a worklist that tests every popped
        term makes 63 and 93."""
        cases = ((standard_graph("toeplitz"), "v1 + 2*e1 + 3*e1.e1* + e2*", 20),
                 (standard_graph("rose", 3), "v + 2*e1 + 3*e2.e1* + e3.e3*", 29))
        for k in map(parse_field_spec, ("Q", "Q[i]/conj", "GF(5)")):
            xs = [(parse_element(text, g, k), bound) for g, text, bound in cases]
            calls = self.counted(monkeypatch, type(k), "_is_zero")
            for x, bound in xs:
                calls.clear()
                (x * x.star()) * x
                assert len(calls) <= bound

    def test_coefficient_products_bounded_by_surviving_pairs(self, rng, monkeypatch):
        for k in map(parse_field_spec, self.SPECS):
            calls = self.counted(monkeypatch, type(k), "_mul")
            for g in self.GRAPHS:
                for _ in range(10):
                    x, y = self.operand(g, k, rng), self.operand(g, k, rng)
                    kept = len(oracle_product_terms(x, y))
                    calls.clear()
                    x * y
                    assert len(calls) <= kept

    def test_a_single_exit_run_is_one_rewrite(self, monkeypatch):
        # alpha alpha* for the 49-edge path of the 50-line: every edge is the
        # only one leaving its source, so one rewrite strips the whole run
        # (a rewrite per edge makes 49); ``_file`` reads the module global
        g = standard_graph("line", 50)
        alpha = Path("v1", tuple(f"e{i}" for i in range(1, 50)))
        yielded = []
        rewrites = algebra._ck2_rewrites

        def counted(*args):
            for term in rewrites(*args):
                yielded.append(term)
                yield term

        monkeypatch.setattr(algebra, "_ck2_rewrites", counted)
        assert Element.from_terms(g, Q, [(2, alpha, alpha)]) == vertex(g, Q, "v1").scale(2)
        assert len(yielded) == 1


OTHER = object()


@pytest.mark.parametrize("op, refused", [
    (lambda: vertex(LINE2, Q, "v1") + OTHER, True),
    (lambda: vertex(LINE2, Q, "v1") - OTHER, True),
    (lambda: vertex(LINE2, Q, "v1") * OTHER, True),
    (lambda: OTHER * vertex(LINE2, Q, "v1"), True),
    (lambda: vertex(LINE2, Q, "v1") == OTHER, False),
    (lambda: Q.one - OTHER, True),
    (lambda: Q.one / OTHER, True),
    (lambda: LINE2 == OTHER, False),
    (lambda: OMEGA < OTHER, True),
    (lambda: phi(vertex(LINE2, Q, "v1")) == OTHER, False),
    (lambda: phi(vertex(LINE2, Q, "v1")) * OTHER, True),
    (lambda: phi(vertex(LINE2, Q, "v1")) + OTHER, True),
], ids=["Element.__add__", "Element.__sub__", "Element.__mul__", "Element.__rmul__",
        "Element.__eq__", "FieldValue.__sub__", "FieldValue.__truediv__", "Graph.__eq__",
        "Omega.__lt__", "MatrixImage.__eq__", "MatrixImage.__mul__", "MatrixImage.__add__"])
def test_foreign_operand(op, refused):
    # each operator answers NotImplemented for a foreign operand, so Python
    # refuses the operation or, for ==, compares the two as unequal
    if refused:
        with pytest.raises(TypeError):
            op()
    else:
        assert op() is False
