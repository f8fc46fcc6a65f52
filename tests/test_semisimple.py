import pytest

from leavitt import (
    AlgebraError,
    CyclicGraphError,
    Element,
    GaussianRationals,
    Graph,
    Path,
    PrimeField,
    QuadraticExtField,
    Rationals,
    dimension,
    graph_union,
    m_n_graph,
    phi,
    phi_inv,
    relabel_graph,
    sink_basis,
    sink_normal_form,
    standard_graph,
)
from leavitt.fields import FieldMismatchError
from leavitt.linalg import ShapeError, mat_mul
from leavitt.semisimple import MatrixImage

from conftest import (
    acyclic_corpus,
    is_zero_matrix,
    ladder,
    mat_from_rows,
    naive_conj_transpose,
    random_element,
)

Q = Rationals()
LINE2 = standard_graph("line", 2)
LINE3 = standard_graph("line", 3)

PHI_FIELDS = (Q, PrimeField(3), GaussianRationals(conjugation=True))


class TestSinkBasis:
    def test_line2(self):
        basis = sink_basis(LINE2)
        assert basis.sinks == ("v2",)
        assert basis.paths["v2"] == (Path("v2", ()), Path("v1", ("e1",)))

    def test_isolated(self):
        basis = sink_basis(standard_graph("line", 1))
        assert basis.paths["v1"] == (Path("v1", ()),)

    def test_union_sizes(self):
        g = graph_union(LINE2, relabel_graph(standard_graph("line", 1), "u"))
        basis = sink_basis(g)
        assert [basis.size(v) for v in basis.sinks] == [2, 1]

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            sink_basis(standard_graph("rose", 1))
        # the per-sink table refuses too, even for a sink no cycle reaches
        g = graph_union(relabel_graph(standard_graph("rose", 1), "r"), LINE2)
        with pytest.raises(CyclicGraphError):
            g.index.sink_table("v2")


class TestSinkNormalForm:
    def test_line2_vertex_expands(self):
        v1 = Element.vertex(LINE2, Q, "v1")
        nf = sink_normal_form(v1)
        p = Path("v1", ("e1",))
        assert dict(nf.items()) == {(p, p): Q.one}

    def test_sink_vertex_fixed(self):
        v2 = Element.vertex(LINE2, Q, "v2")
        assert dict(sink_normal_form(v2).items()) == dict(v2.items())

    def test_line3_vertex_expands_twice(self):
        v1 = Element.vertex(LINE3, Q, "v1")
        p = Path("v1", ("e1", "e2"))
        assert dict(sink_normal_form(v1).items()) == {(p, p): Q.one}

    def test_renormalizing_recovers_element(self, rng):
        for g in acyclic_corpus().values():
            for _ in range(20):
                x = random_element(g, Q, rng)
                nf = sink_normal_form(x)
                back = Element.from_terms(g, Q, [(c, p, q) for (p, q), c in nf.items()])
                assert back == x


class TestPhi:
    def test_zero(self):
        assert phi(Element.zero(LINE2, Q)).is_zero()

    def test_paths_into_different_sinks_fail_the_self_check(self):
        # only a forged element pairs them; an AssertionError, not a KeyError,
        # is what the CLI prints as one error line
        g = graph_union(LINE2, relabel_graph(standard_graph("line", 1), "u"))
        forged = Element(g, Q, {(Path("v2", ()), Path("uv1", ())): Q._from_int(1)},
                         _trusted=True)
        with pytest.raises(AssertionError, match="phi paired paths into different sinks"):
            phi(forged)

    def test_line2_sink_vertex(self):
        image = phi(Element.vertex(LINE2, Q, "v2"))
        assert image.blocks["v2"] == tuple(map(tuple, mat_from_rows(Q, [[1, 0], [0, 0]])))

    def test_line2_edge_is_matrix_unit_21(self):
        image = phi(Element.edge(LINE2, Q, "e1"))
        assert image.blocks["v2"] == tuple(map(tuple, mat_from_rows(Q, [[0, 0], [1, 0]])))

    def test_identity_maps_to_identity_blocks(self):
        for g in acyclic_corpus().values():
            image = phi(Element.one(g, Q))
            expected = MatrixImage.identity(sink_basis(g), Q)
            assert image == expected

    def test_star_algebra_isomorphism(self, rng):
        for g in acyclic_corpus().values():
            for k in PHI_FIELDS:
                for _ in range(100):
                    x = random_element(g, k, rng)
                    y = random_element(g, k, rng)
                    assert phi(x * y) == phi(x) * phi(y)
                    assert phi(x + y) == phi(x) + phi(y)
                    c = k.sample(rng)
                    assert phi(x.scale(c)) == phi(x).scale(c)
                    assert phi(x.star()) == phi(x).star()
                    assert phi_inv(phi(x)) == x

    def test_phi_of_phi_inv_is_identity(self, rng):
        for g in acyclic_corpus().values():
            basis = sink_basis(g)
            for _ in range(10):
                image = MatrixImage(Q, basis, {
                    v: [[Q.sample(rng) for _ in range(basis.size(v))]
                        for _ in range(basis.size(v))]
                    for v in basis.sinks})
                assert phi(phi_inv(image)) == image

    def test_phi_inv_examples(self):
        basis = sink_basis(LINE2)
        ident = MatrixImage.identity(basis, Q)
        assert phi_inv(ident) == Element.one(LINE2, Q)
        assert phi_inv(MatrixImage.zero(basis, Q)).is_zero
        unit12 = MatrixImage(Q, basis, {"v2": mat_from_rows(Q, [[0, 1], [0, 0]])})
        assert phi_inv(unit12) == Element.ghost(LINE2, Q, "e1")

    def test_block_shape_errors(self):
        # the constructor checks every block: at a sink, and n x n
        basis = sink_basis(LINE2)
        for blocks in ({"v2": mat_from_rows(Q, [[1]])},
                       {"v1": mat_from_rows(Q, [[1]])},
                       {"v2": mat_from_rows(Q, [[1, 0], [0]])}):
            with pytest.raises(ShapeError):
                MatrixImage(Q, basis, blocks)

    def test_missing_sinks_are_zero_blocks(self):
        g = graph_union(LINE2, relabel_graph(standard_graph("line", 1), "u"))
        image = MatrixImage(Q, sink_basis(g), {"uv1": mat_from_rows(Q, [[3]])})
        assert image.blocks["v2"] == tuple(map(tuple, mat_from_rows(Q, [[0, 0], [0, 0]])))
        assert phi_inv(image) == Element.vertex(g, Q, "uv1").scale(3)

    def test_int_entries_are_field_elements(self):
        basis = sink_basis(LINE2)
        x = Element.edge(LINE2, Q, "e1")
        image = MatrixImage(Q, basis, {"v2": [[1, 0], [0, 2]]})
        assert image * phi(x) == phi(x).scale(Q.from_int(2))
        assert image == MatrixImage(Q, basis, {"v2": mat_from_rows(Q, [[1, 0], [0, 2]])})
        for entry in (PrimeField(3).one, 1.0, "1", None):
            with pytest.raises(FieldMismatchError):
                MatrixImage(Q, basis, {"v2": [[entry, 0], [0, 1]]})

    def test_mixed_field_product_raises(self):
        x = Element.vertex(LINE2, Q, "v1")
        y = Element.vertex(LINE2, PrimeField(3), "v1")
        with pytest.raises(FieldMismatchError):
            phi(x) * phi(y)

    def test_images_over_different_graphs_refused(self):
        # v2 is a sink of both graphs, with blocks of sizes 2 and 3
        two_edges = Graph.build(["v1", "v2"], [("e1", "v1", "v2"), ("f1", "v1", "v2")])
        x = phi(Element.vertex(LINE2, Q, "v2"))
        y = phi(Element.vertex(two_edges, Q, "v2"))
        with pytest.raises(AlgebraError):
            x + y
        with pytest.raises(AlgebraError):
            x * y

    def test_sum_and_scale_build_no_dense_view(self):
        # on the 8-rung ladder the block is 511 x 511 with one nonzero
        x = phi(Element.edge(ladder(8), Q, "a7"))
        results = [x + x, x.scale(2), x.scale(Q.from_int(-1)), x.scale(0),
                   x + x.scale(-1)]
        assert results[0] == results[1] and results[3] == results[4]
        assert results[3].is_zero() and not results[2].is_zero()
        for image in (x, *results):
            assert "blocks" not in vars(image)
        assert phi_inv(results[2]) == -Element.edge(ladder(8), Q, "a7")

    def test_scale_refuses_other_scalars(self):
        x = phi(Element.edge(LINE2, Q, "e1"))
        with pytest.raises(FieldMismatchError):
            x.scale(PrimeField(3).one)
        for c in (1.0, "2", None):
            with pytest.raises(TypeError):
                x.scale(c)

    def test_blocks_are_a_read_only_view(self):
        image = phi(Element.edge(LINE2, Q, "e1"))
        with pytest.raises(TypeError):
            image.blocks["v2"] = mat_from_rows(Q, [[1, 0], [0, 1]])
        # the rows are tuples too, so no entry can be changed in place
        with pytest.raises(TypeError):
            image.blocks["v2"][0][0] = Q.one
        with pytest.raises(TypeError):
            image.blocks["v2"][0] = (Q.one, Q.one)
        assert image == phi(Element.edge(LINE2, Q, "e1"))
        assert image.blocks is image.blocks

    def test_repr_shows_the_dense_blocks(self):
        image = phi(Element.edge(LINE2, Q, "e1"))
        assert repr(image) == (
            f"MatrixImage(field={Q!r}, basis={image.basis!r}, "
            f"blocks={{'v2': {tuple(map(tuple, mat_from_rows(Q, [[0, 0], [1, 0]])))!r}}})")

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            phi(Element.vertex(standard_graph("rose", 1), Q, "v"))


class TestDimension:
    def test_lines(self):
        for n in range(1, 7):
            assert dimension(standard_graph("line", n)) == n * n

    def test_isolated(self):
        assert dimension(standard_graph("line", 1)) == 1

    def test_union(self):
        g = graph_union(LINE2, relabel_graph(standard_graph("line", 1), "u"))
        assert dimension(g) == 5

    def test_mn_scaling(self):
        for g in acyclic_corpus().values():
            d = dimension(g)
            for n in (2, 3, 4):
                assert dimension(m_n_graph(g, n)) == n * n * d


class TestColumnConstruction:
    def test_improper_tuple_gives_annihilated_matrix(self):
        fields = [PrimeField(2), PrimeField(3), PrimeField(5),
                  QuadraticExtField(3), GaussianRationals(conjugation=False)]
        for k in fields:
            n = k.properness_level() + 1
            tup = k.improper_tuple(n)
            assert tup is not None
            a = [[k.zero for _ in range(n)] for _ in range(n)]
            for i, x in enumerate(tup):
                a[i][0] = x
            assert not is_zero_matrix(a)
            assert is_zero_matrix(mat_mul(naive_conj_transpose(a), a))
