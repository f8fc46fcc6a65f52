"""The benchmark's own output checks, self-tests and tracer, run on the
library as it stands, so a change that makes a workload's outputs wrong
fails here first. The files under ``benchmarks/`` are only imported."""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED)
    graph_file = str(tmp_path / "graph.txt")
    problems = []
    for i in range(workload.cycle):
        op = workload.op(i)
        problem = workload.check(op, op.prepare(graph_file)())
        if problem is not None:
            problems.append(f"op {i}: {problem}")
    assert problems == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_selftest(name, tmp_path):
    results = selftest.run(workloads, name, SEED, str(tmp_path))
    assert results and all(results.values()), results


def test_tracer_uninstall_restores(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = workloads.Arith(SEED).op(0)
        call = op.prepare(str(tmp_path / "graph.txt"))
        tracer.active = True
        call()
        tracer.active = False
    finally:
        restored = tracer.uninstall()
    assert restored
