"""Self-tests of the benchmark itself, run after each untraced measurement.

They make the numbers trustworthy rather than measure anything: inputs
depend on the seed alone, operations that must not share a graph do not,
and the checker counts a corrupted result as a failure, so a zero failure
count means something.
"""

from __future__ import annotations

import json
import os

from leavitt.algebra import Element, format_element
from leavitt.fields import parse_field_spec
from leavitt.io import parse_element


def run(workloads, name: str, seed: int, tmp: str) -> dict:
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(seed), cls(seed), cls(seed + 1)
    span = range(2 * cls.cycle if name != "arith" else cls.cycle)
    signatures = [first.op(i).signature() for i in span]
    results = {
        "same_seed_same_inputs": signatures == [again.op(i).signature() for i in span],
        "other_seed_other_inputs": signatures != [other.op(i).signature() for i in span],
    }
    if name != "arith":
        keys = [first.op(i).graph_key() for i in span]
        results["no_shared_graphs"] = len(set(keys)) == len(keys)
    corrupt = {"certify": _certify_corruption, "decide": _decide_corruption,
               "arith": _arith_corruption}[name]
    results["checker_rejects_corruption"] = corrupt(workloads, first, os.path.join(tmp, "self.txt"))
    return results


def _certify_corruption(workloads, certify, path) -> bool:
    """A real regular witness passes; the same output with the inner
    inverse scaled by 2, or marked unverified, fails."""
    data = workloads.line(3, "s")
    op = workloads.CliOp(["witness", "regular", "{graph}", "--field", "Q",
                          "--expr=2*se1 + 1*se2.se2* + 3*sv1", "--json"],
                         data, kind="regular", field="Q", expr="2*se1 + 1*se2.se2* + 3*sv1")
    rc, text = op.prepare(path)()
    good = json.loads(text)
    g, k = data.graph(), parse_field_spec("Q")
    doubled = format_element(parse_element(good["inverse"], g, k).scale(2))
    scaled = json.loads(text)
    scaled["inverse"] = doubled
    scaled["claims"][0]["factors"][1] = doubled
    unverified = dict(good, verified=False)
    return (certify.check(op, (rc, text)) is None
            and certify.check(op, (rc, json.dumps(scaled))) is not None
            and certify.check(op, (rc, json.dumps(unverified))) is not None)


def _decide_corruption(workloads, decide, path) -> bool:
    """A real improper verdict passes; a wrong sigma, a wrong exit code or
    a certificate with an extra term fails."""
    data = workloads.line(5, "s")
    op = workloads.CliOp(["decide", "{graph}", "--field", "GF(5)", "--json"], data,
                         command="decide", field="GF(5)")
    rc, text = op.prepare(path)()
    good = json.loads(text)
    bad_sigma = dict(good, sigma=good["sigma"] + 1)
    bad_cert = dict(good, improper_certificate=good["improper_certificate"] + " + 1*sv1")
    return (decide.check(op, (rc, text)) is None
            and decide.check(op, (rc, json.dumps(bad_sigma))) is not None
            and decide.check(op, (2, text)) is not None
            and decide.check(op, (rc, json.dumps(bad_cert))) is not None)


def _arith_corruption(workloads, arith, path) -> bool:
    """Every op kind on a cyclic and an acyclic graph: the true result
    passes, the result plus a vertex fails."""
    covered = set()
    for op in map(arith.op, range(arith.cycle)):
        cyclic = op.graph_name not in ("line5", "btree")
        if (op.kind, cyclic) in covered:
            continue
        covered.add((op.kind, cyclic))
        result = op.prepare(path)()
        vertex = Element.vertex(op.graph, result.field, op.graph.vertices[0])
        if (workloads.arith_problem(op, result) is not None
                or workloads.arith_problem(op, result + vertex) is None):
            return False
    return len(covered) == 2 * len(workloads.ARITH_KINDS)
