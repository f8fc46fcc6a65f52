"""Property tests of the path counts on small random multigraphs, checked
through the forward-walk and reachability oracles of conftest."""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from leavitt import OMEGA, Graph, is_acyclic, mu_table, sigma  # noqa: E402
from leavitt.graphs import path_range  # noqa: E402

from conftest import brute_paths, cycle_reached  # noqa: E402
from test_linalg_properties import PROPERTY_SETTINGS  # noqa: E402


@st.composite
def multigraphs(draw):
    """Up to 5 vertices listed in a shuffled order and up to 7 edges between
    any two of them: loops and parallel edges included."""
    n = draw(st.integers(0, 5))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    ends = st.integers(0, n - 1) if n else st.nothing()
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=7 if n else 0))
    edges = [(f"e{j}", f"v{s}", f"v{d}") for j, (s, d) in enumerate(pairs)]
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
