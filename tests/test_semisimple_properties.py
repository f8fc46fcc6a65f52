"""Property tests of phi on small random acyclic graphs over every field of
conftest: block by block, the images of products, stars and sums are the
ones the dense entry-by-entry loops of conftest give, and so are scalar
multiples; phi_inv reads a dense image back to its element; and the sink
normal form phi reads its entries from ends at the sinks and normalizes back
to its element. On graphs that mix runs of single-exit edges with
branching vertices, phi's rows also equal a one-step expansion written
here, which extends p and q by one edge per step."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from leavitt import (  # noqa: E402
    Element,
    Path,
    Rationals,
    parse_element,
    phi,
    phi_inv,
    sink_basis,
    sink_normal_form,
    sinks,
)
from leavitt.graphs import out_edges, path_range  # noqa: E402
from leavitt.semisimple import MatrixImage, _phi_rows  # noqa: E402

from conftest import ALL_FIELDS, naive_conj_transpose, naive_mat_mul, random_element  # noqa: E402
from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402
from test_witness_properties import FORK, acyclic_graphs, cases  # noqa: E402


@PROPERTY_SETTINGS
@given(acyclic_graphs(), st.sampled_from(ALL_FIELDS), st.integers(0, 2**32 - 1))
def test_phi_matches_the_dense_loops(g, k, seed):
    rng = random.Random(seed)
    x, y = (random_element(g, k, rng, max_terms=4, max_len=3) for _ in range(2))
    px, py = phi(x), phi(y)
    c = k.sample(rng)
    basis = sink_basis(g)
    for v in basis.sinks:
        a, b = px.blocks[v], py.blocks[v]
        assert (px * py).blocks[v] == tuple(map(tuple, naive_mat_mul(a, b)))
        assert (phi(x.star()).blocks[v] == px.star().blocks[v]
                == tuple(map(tuple, naive_conj_transpose(a))))
        assert (px + py).blocks[v] == tuple(tuple(s + t for s, t in zip(ra, rb))
                                            for ra, rb in zip(a, b))
        assert px.scale(c).blocks[v] == tuple(tuple(c * s for s in row) for row in a)
    assert phi_inv(MatrixImage(k, basis, px.blocks)) == x


@PROPERTY_SETTINGS
@given(cases())
@example((FORK, Rationals(), parse_element("w - f.f*", FORK, Rationals())))
def test_sink_normal_form_ends_at_sinks_and_normalizes_back(case):
    # the fork's example reaches s2 and cancels there
    g, k, x = case
    nf = sink_normal_form(x)
    for (p, q), c in nf.items():
        assert path_range(g, p) == path_range(g, q) in sinks(g)
        assert c != k.zero
    assert Element.from_terms(g, k, [(c, p, q) for (p, q), c in nf.items()]) == x


def one_step_phi_rows(x):
    """phi(x) as payload rows, expanding p q* by one edge e leaving r(p)
    per step until p ends at a sink."""
    g, add, is_zero = x.graph, x.field._add, x.field._is_zero
    blocks = {}
    work = [(c, p, q) for (p, q), c in x._terms.items()]
    while work:
        c, p, q = work.pop()
        v = path_range(g, p)
        exits = out_edges(g, v)
        if exits:
            work += [(c, Path(p.base, p.edges + (e.id,)), Path(q.base, q.edges + (e.id,)))
                     for e in exits]
            continue
        paths, at = g.index.sink_table(v)
        row, j = blocks.setdefault(v, [{} for _ in paths])[at[p]], at[q]
        total = add(row[j], c) if j in row else c
        if is_zero(total):
            del row[j]
        else:
            row[j] = total
    return {v: rows for v, rows in blocks.items() if any(rows)}


@PROPERTY_SETTINGS
@given(cases())
def test_phi_rows_agree_with_one_step(case):
    _, _, x = case
    assert _phi_rows(x) == one_step_phi_rows(x)
