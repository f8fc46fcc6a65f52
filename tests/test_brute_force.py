"""The paper's theorem against brute force over whole small algebras.

``decide`` certifies only its negative verdicts, with an improper element;
a proper verdict rests on the theorem alone (the graph is acyclic and σ is
at most the field's properness level). Here every acyclic graph with at
most three vertices and three edges, taken up to isomorphism, is checked
over small finite fields by enumerating its whole algebra with ``Element``
arithmetic only, with no ``phi``, σ or properness level:

* the normal-form monomials p q* (one per pair of paths with a common
  range that ``Element.from_terms`` leaves alone) number ``dimension(g)``;
* some nonzero x has x* x = 0 exactly when ``proper_algebra`` says
  improper, and its certificate is one of those x;
* on the smallest algebras every x is regular (x y x = x for some y) and
  unit-regular (x u x = x for some unit u), the paper's corollary of
  Handelman's theorem for acyclic graphs.

A case is a graph and a field K whose algebra has at most ``ELEMENTS_CAP``
elements; regularity is searched where the pairs of elements number at most
``PAIRS_CAP``. Six graphs have dimension 16 or more and so no case.
"""

import functools
from itertools import permutations, product

import pytest

from leavitt import (
    IMPROPER,
    PROPER,
    Element,
    Graph,
    dimension,
    enumerate_paths_to,
    is_acyclic,
    parse_field_spec,
    proper_algebra,
)

FIELDS = ("GF(2)", "GF(3)", "GF(5)", "GF(2,2)", "GF(3,2)")
ELEMENTS_CAP = 20_000
PAIRS_CAP = 10 ** 5


def small_acyclic_graphs():
    """Every acyclic graph with 1 to 3 vertices and at most 3 edges, one
    per isomorphism class: the least edge list over all relabellings."""
    found = set()
    for n in (1, 2, 3):
        arrows = [(i, j) for i in range(n) for j in range(n) if i != j]
        for m in range(4):
            for edges in product(arrows, repeat=m):
                found.add((n, min(tuple(sorted((s[i], s[j]) for i, j in edges))
                                  for s in permutations(range(n)))))
    graphs = [Graph.build([f"v{i}" for i in range(n)],
                          [(f"e{t}", f"v{i}", f"v{j}") for t, (i, j) in enumerate(key)])
              for n, key in sorted(found)]
    return [g for g in graphs if is_acyclic(g)]


GRAPHS = small_acyclic_graphs()
SIZES = {spec: len(parse_field_spec(spec).elements()) for spec in FIELDS}
CASES = [(n, spec) for n, g in enumerate(GRAPHS) for spec in FIELDS
         if SIZES[spec] ** dimension(g) <= ELEMENTS_CAP]
PAIR_CASES = [(n, spec) for n, spec in CASES
              if SIZES[spec] ** (2 * dimension(GRAPHS[n])) <= PAIRS_CAP]


def case_id(case):
    n, spec = case
    g = GRAPHS[n]
    return f"{spec}:{len(g.vertices)}v:" + ",".join(e.src[1:] + e.dst[1:] for e in g.edges)


def span(vectors, scalars, zero):
    """Every sum of multiples of ``vectors``, the first vector's coefficient
    the most significant digit. ``span(basis)`` lists the whole algebra, and
    ``span([f(b) for b in basis])`` lists f(y) for every y in that order
    when f is linear."""
    out = [zero]
    for v in vectors:
        multiples = [v.scale(c) for c in scalars]
        out = [x + y for x in out for y in multiples]
    return out


@functools.lru_cache(maxsize=1)
def algebra(n, spec):
    """The graph, the field, the normal-form monomials p q* with
    r(p) = r(q), and every element of the algebra; only the last case is
    kept, as the largest algebras hold thousands of elements."""
    g, k = GRAPHS[n], parse_field_spec(spec)
    basis = []
    for v in g.vertices:
        paths = enumerate_paths_to(g, v)
        for p, q in product(paths, paths):
            x = Element.from_terms(g, k, [(1, p, q)])
            if x.items() == [((p, q), k.one)]:
                basis.append(x)
    return g, k, basis, span(basis, k.elements(), Element.zero(g, k))


def test_graphs_are_the_isomorphism_classes():
    # 1 on one vertex, 4 on two (0 to 3 parallel edges), 12 on three
    assert [len(g.vertices) for g in GRAPHS].count(3) == 12 and len(GRAPHS) == 17
    left_out = [g for n, g in enumerate(GRAPHS) if all(m != n for m, _ in CASES)]
    assert sorted(map(dimension, left_out)) == [16, 16, 16, 16, 17, 25]


@pytest.mark.parametrize("case", CASES, ids=map(case_id, CASES))
def test_basis_size_is_the_dimension(case):
    g, k, basis, elements = algebra(*case)
    assert len(basis) == dimension(g)
    assert len(set(elements)) == len(k.elements()) ** len(basis)


@pytest.mark.parametrize("case", CASES, ids=map(case_id, CASES))
def test_properness_by_enumeration(case):
    g, k, basis, elements = algebra(*case)
    annihilated = {x for x in elements if x and (x.star() * x).is_zero}
    status, certificate = proper_algebra(g, k)
    assert status == (IMPROPER if annihilated else PROPER)
    assert certificate is None if status == PROPER else certificate in annihilated


@pytest.mark.parametrize("case", PAIR_CASES, ids=map(case_id, PAIR_CASES))
def test_regular_and_unit_regular_by_enumeration(case):
    g, k, basis, elements = algebra(*case)
    scalars, zero, one = k.elements(), Element.zero(g, k), Element.one(g, k)
    # u is a unit when u w = 1 for some w (a one-sided inverse is two-sided
    # in a finite-dimensional algebra)
    units = [i for i, u in enumerate(elements)
             if one in span([u * b for b in basis], scalars, zero)]
    for x in elements:
        # x y x for every y, in the order of ``elements``: by distributivity
        # the sum of the x b x scaled by y's coefficients
        sandwiches = span([x * b * x for b in basis], scalars, zero)
        assert x in sandwiches
        assert any(sandwiches[i] == x for i in units)
