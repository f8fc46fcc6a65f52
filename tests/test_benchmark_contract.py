"""The benchmark's own output checks, self-tests and tracer, run on the
library as it stands, so a change that makes a workload's outputs wrong
fails here first. The files under ``benchmarks/`` are only imported."""

import itertools
import os
import pathlib
import subprocess
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


def test_output_digest_smoke(capsys):
    # tests/output_digest.py, run on two ops: the certify cycle's first op
    # with and without --json; its full run also digests the arith results
    import output_digest

    two = list(itertools.islice(output_digest.runs((SEED,)), 2))
    assert [argv[-1] == "--json" for argv, _ in two] == [True, False]
    n, hexdigest = output_digest.digest(two)
    assert n == 2 and len(hexdigest) == 64
    assert output_digest.digest(two) == (n, hexdigest)
    assert output_digest.digest(two[:1])[1] != hexdigest
    assert output_digest.main(["--seeds", str(SEED)]) == 0
    count, printed = capsys.readouterr().out.split()
    assert int(count) == (2 * (workloads.Certify.cycle + workloads.Decide.cycle)
                          + len(list(output_digest.branching_runs())) + workloads.Arith.cycle)
    assert len(printed) == 64


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_output_digest_pinned(hash_seed):
    # the whole line at the default seeds, in a fresh process per hash seed:
    # pinned as ``PINNED`` where the arith results were added, and equal at
    # that change's parent, so every output byte of its runs is unchanged
    import leavitt
    import output_digest

    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(pathlib.Path(leavitt.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, output_digest.__file__], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == output_digest.PINNED + "\n"
