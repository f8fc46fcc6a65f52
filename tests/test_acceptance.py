"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line on success (pytest -v adds its own
verdict per criterion as well). Scales and tolerances are fixed here, not
configurable: everything is exact, so every comparison is equality.
"""

import itertools
import json
import pathlib
import random

from leavitt import (
    Element,
    GaussianRationals,
    NotStarRegularError,
    OMEGA,
    PrimeField,
    Rationals,
    dimension,
    e_f_graph,
    extend_to_unit,
    format_element,
    format_graph,
    full_report,
    improper_element,
    is_acyclic,
    is_star_regular,
    m_n_graph,
    mu,
    mu_table,
    normalize,
    parse_element,
    parse_graph,
    projection_generator,
    proper_algebra,
    regular_witness,
    standard_graph,
    unit_regular_witness,
    verify_improper,
    verify_inner_inverse,
    verify_projection,
    verify_unit_regular,
)
from leavitt.cli import main as cli_main
from leavitt.decide import IMPROPER
from leavitt.graphs import Graph, clock_graph, out_edges, sinks
from leavitt.io import report_to_json

from conftest import (
    FIVE_FIELDS,
    acyclic_corpus,
    brute_paths_to,
    corpus,
    random_element,
    random_nonzero_element,
    random_raw_terms,
    search_improper,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

Q = Rationals()
QI_ID = GaussianRationals(conjugation=False)
QI_CONJ = GaussianRationals(conjugation=True)
GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


# ---------------------------------------------------------------------------


def test_c01_basic_realization_oracles():
    # single loop: the generator is invertible
    loop = standard_graph("rose", 1)
    e = Element.edge(loop, Q, "e1")
    v = Element.vertex(loop, Q, "v")
    assert e.star() * e == v
    assert e * e.star() == v

    # line_n realizes an n x n matrix algebra
    for n in range(1, 7):
        assert dimension(standard_graph("line", n)) == n * n

    # rose_n realizes the classical relations
    for n in range(1, 5):
        g = standard_graph("rose", n)
        vg = Element.vertex(g, Q, "v")
        es = [Element.edge(g, Q, f"e{i}") for i in range(1, n + 1)]
        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                want = vg if i == j else Element.zero(g, Q)
                assert ei.star() * ej == want
        total = None
        for ei in es:
            piece = ei * ei.star()
            total = piece if total is None else total + piece
        assert total == vg

    # a line feeding a rose satisfies the vertex relations everywhere
    g = clock_graph(3, 2)
    for w in g.vertices:
        outs = out_edges(g, w)
        for a in outs:
            for b in outs:
                prod = Element.ghost(g, Q, a.id) * Element.edge(g, Q, b.id)
                want = Element.vertex(g, Q, a.dst) if a.id == b.id \
                    else Element.zero(g, Q)
                assert prod == want
        if outs:
            total = None
            for a in outs:
                piece = Element.edge(g, Q, a.id) * Element.ghost(g, Q, a.id)
                total = piece if total is None else total + piece
            assert total == Element.vertex(g, Q, w)
    report(1, "loop, line, rose, and clock relation oracles, exact equality")


# ---------------------------------------------------------------------------


def _matrix_involution_proper(k, n):
    """Brute force: does A* A = 0 force A = 0 over all n x n matrices?"""
    pool = k.elements()
    zero = k.zero
    for entries in itertools.product(pool, repeat=n * n):
        if not any(entries):
            continue
        a = [entries[i * n:(i + 1) * n] for i in range(n)]
        vanished = True
        for i in range(n):
            for j in range(n):
                acc = zero
                for t in range(n):
                    acc = acc + a[t][i].conj() * a[t][j]
                if acc != zero:
                    vanished = False
                    break
            if not vanished:
                break
        if vanished:
            return False  # a nonzero annihilated matrix
    return True


EXPECTED_FINITE_LEVELS = {2: 1, 3: 2, 5: 1}


def _check_matrix_properness(p, sizes):
    k = PrimeField(p)
    level = EXPECTED_FINITE_LEVELS[p]
    # the level is itself pre-verified by the exhaustive tuple oracle
    assert k.properness_level() == level
    assert k.improper_tuple(level) is None
    witness = k.improper_tuple(level + 1)
    assert witness is not None
    assert (k.improper_tuple(level), witness) == (
        search_improper(k, level), search_improper(k, level + 1))
    total = k.zero
    for x in witness:
        total = total + x.conj() * x
    assert total == k.zero and any(witness)
    for n in sizes:
        assert _matrix_involution_proper(k, n) == (n <= level), (p, n)


def test_c02_matrix_properness_exhaustive():
    _check_matrix_properness(2, (1, 2, 3))
    _check_matrix_properness(3, (1, 2, 3))
    _check_matrix_properness(5, (1, 2))
    report(2, "transpose-involution properness over GF(2), GF(3), GF(5) "
              "matches the field levels, exhaustively")


def test_c02_extended_gf5_3x3():
    assert not _matrix_involution_proper(PrimeField(5), 3)
    report(2, "extended run: GF(5) 3x3 matrices are not proper")


# ---------------------------------------------------------------------------


def test_c03_star_regularity_cross_validation():
    graphs = corpus()
    assert len(graphs) >= 10
    rng = random.Random(33)
    checked_true = checked_false = 0
    for name, g in graphs.items():
        for k in FIVE_FIELDS:
            if is_star_regular(g, k):
                for _ in range(50):
                    a = random_element(g, k, rng)
                    cert = projection_generator(g, k, a)
                    assert verify_projection(a, cert), (name, k.spec_string())
                checked_true += 1
            elif is_acyclic(g):
                a = improper_element(g, k)
                assert a is not None and not a.is_zero
                assert (a.star() * a).is_zero
                checked_false += 1
    assert checked_true and checked_false
    report(3, f"theorem cross-validation on {len(graphs)} graphs x 5 fields "
              f"({checked_true} witnessed positive, {checked_false} negative)")


# ---------------------------------------------------------------------------


def test_c04_constructive_regularity_suite():
    rng = random.Random(44)
    for g in acyclic_corpus().values():
        for k in (Q, GF3):
            for _ in range(50):
                a = random_element(g, k, rng)
                b = regular_witness(g, k, a)
                assert verify_inner_inverse(a, b)
                try:
                    cert = projection_generator(g, k, a)
                except NotStarRegularError as err:
                    assert not is_star_regular(g, k)
                    assert verify_improper(err.certificate)
                else:
                    assert verify_projection(a, cert)
    report(4, "inner inverses and projection certificates re-verified by "
              "element arithmetic over Q and GF(3)")


# ---------------------------------------------------------------------------


def test_c05_local_unit_regularity_suite():
    rng = random.Random(55)
    count = 0
    for g in corpus().values():
        one = Element.one(g, Q)
        for k in FIVE_FIELDS:
            if not is_star_regular(g, k):
                continue
            identity = Element.one(g, k)
            for _ in range(50):
                a = random_element(g, k, rng)
                cert = unit_regular_witness(g, k, a)
                assert verify_unit_regular(a, cert)
                w, w_prime = extend_to_unit(g, cert.u, cert.u_prime, cert.v)
                assert w * w_prime == identity and w_prime * w == identity
                assert a * w * a == a
            count += 1

    # the hand-derived golden case
    line2 = standard_graph("line", 2)
    a = Element.edge(line2, Q, "e1")
    cert = unit_regular_witness(line2, Q, a)
    assert cert.u == a + a.star()
    assert cert.u_prime == a + a.star()
    assert cert.v == Element.one(line2, Q)
    assert a * cert.u * a == a
    assert cert.u * cert.u == Element.one(line2, Q)
    report(5, f"locally unit-regular witnesses on {count} star-regular "
              f"instances, plus the e1 golden case")


# ---------------------------------------------------------------------------


def test_c06_converse_of_handelman_exhibit():
    g = standard_graph("line", 2)
    k = QI_ID
    rng = random.Random(66)
    for _ in range(50):
        a = random_element(g, k, rng)
        cert = unit_regular_witness(g, k, a)
        assert verify_unit_regular(a, cert)

    status, cert = proper_algebra(g, k)
    assert status == IMPROPER
    expected = Element.vertex(g, k, "v2") + Element.edge(g, k, "e1").scale(k.i)
    assert cert == expected
    assert verify_improper(cert)

    r = full_report(g, k)
    assert r.regular is True and r.star_regular is False
    report(6, "unit-regular but not star-regular over Q[i] with the identity "
              "involution; certificate v2 + i*e1")


# ---------------------------------------------------------------------------


def test_c07_confluence_and_associativity():
    rng = random.Random(77)
    graphs = [standard_graph("rose", 2), standard_graph("toeplitz"),
              standard_graph("line", 3)]
    for g in graphs:
        for _ in range(1000):
            raw = random_raw_terms(g, Q, rng, max_terms=4, max_len=3)
            assert normalize(g, Q, raw, schedule="lifo") == \
                normalize(g, Q, raw, schedule="fifo")
        for _ in range(500):
            x = random_element(g, Q, rng)
            y = random_element(g, Q, rng)
            z = random_element(g, Q, rng)
            assert (x * y) * z == x * (y * z)
    report(7, "1000 two-strategy normalizations and 500 associativity "
              "triples per graph, exact equality")


# ---------------------------------------------------------------------------


def test_c08_positive_definite_sampling():
    rng = random.Random(88)
    for g in corpus().values():
        for k in (Q, QI_CONJ):
            for _ in range(500):
                a = random_nonzero_element(g, k, rng)
                assert not (a.star() * a).is_zero
    report(8, "star(a).a stayed nonzero for 500 random nonzero elements per "
              "graph over Q and Q[i]/conj")


# ---------------------------------------------------------------------------


def _length_histogram(paths):
    hist = {}
    for p in paths:
        hist[len(p.edges)] = hist.get(len(p.edges), 0) + 1
    return hist


def test_c09_mn_and_ef_structure():
    for g in acyclic_corpus().values():
        base_mu = mu_table(g)
        base_dim = dimension(g)
        for n in (1, 2, 3, 4):
            gn = m_n_graph(g, n)
            for v in g.vertices:
                assert mu(gn, v) == n * base_mu[v]
            assert dimension(gn) == n * n * base_dim

        edge_ids = [e.id for e in g.edges]
        for size in range(1, min(5, len(edge_ids)) + 1):
            for f in itertools.combinations(edge_ids, size):
                out = e_f_graph(g, f)
                from leavitt import validate
                assert validate(out) == []
                assert is_acyclic(out)
                # vertex-type vertices are exactly the sinks coming from g,
                # and path counts by length match the F-restricted original
                sub = Graph(g.vertices,
                            tuple(e for e in g.edges if e.id in f))
                for w in out.vertices:
                    if not w.startswith("vertex:"):
                        continue
                    assert w in sinks(out)
                    original = w[len("vertex:"):]
                    expect = _length_histogram(brute_paths_to(sub, original))
                    got = _length_histogram(brute_paths_to(out, w))
                    assert got == expect, (f, w)
    report(9, "mu and dimension scaling for n <= 4; E_F valid, acyclic, and "
              "path-length bijection for |F| <= 5")


# ---------------------------------------------------------------------------


def test_c10_cli_round_trips_and_goldens(tmp_path, capsys):
    rng = random.Random(1010)
    # graph and element print/parse identity
    for name, g in corpus().items():
        assert parse_graph(format_graph(g)) == g
        for _ in range(200):
            x = random_element(g, Q, rng)
            assert parse_element(format_element(x), g, Q) == x

    # golden decide reports for line_2 across the five field specs
    line2 = tmp_path / "line2.txt"
    line2.write_text(format_graph(standard_graph("line", 2)))
    slugs = {"Q": "Q", "Qi_id": "Q[i]/id", "Qi_conj": "Q[i]/conj",
             "GF3": "GF(3)", "GF5": "GF(5)"}
    for slug, spec in slugs.items():
        code = cli_main(["decide", str(line2), "--field", spec])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"decide_line2_{slug}.txt").read_text()
        code = cli_main(["decide", str(line2), "--field", spec, "--json"])
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads(
            (GOLDEN / f"decide_line2_{slug}.json").read_text())
        # text and structured outputs agree field for field
        r = full_report(standard_graph("line", 2),
                        __import__("leavitt").parse_field_spec(spec))
        assert json.loads(out) == report_to_json(r)

    # exit code 2 exactly for the cyclic unknown-properness case
    for name, g in corpus().items():
        path = tmp_path / f"{name}.txt"
        path.write_text(format_graph(g))
        for k in FIVE_FIELDS:
            code = cli_main(["decide", str(path), "--field", k.spec_string()])
            capsys.readouterr()
            expect = 2 if (not is_acyclic(g)
                           and k.properness_level() is not OMEGA) else 0
            assert code == expect
    report(10, "parse/print identities, golden decide reports, and the "
               "exit-code-2 contract")
