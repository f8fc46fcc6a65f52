"""One sha256 over the outputs of the benchmark's ``certify`` and ``decide`` ops.

Runs every op of one ``Certify`` cycle and one ``Decide`` cycle of
``benchmarks/workloads.py`` at each seed, as generated (with ``--json``) and
once more without ``--json``, through ``leavitt.cli.main`` in process. It
prints the number of runs and one sha256 over each run's exit code and
stdout, in order. Two versions of the library that write the same bytes for
every op print the same line, so a change meant to keep every output can be
checked against its parent:

    PYTHONPATH=src python tests/output_digest.py
    PYTHONPATH=/path/to/parent/src python tests/output_digest.py

Standard library only; the workload generator is imported, not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402

SEEDS = (1, 2, 3, 7)


def runs(seeds=SEEDS):
    """Each op as (argv, graph data), with and without ``--json``, in the
    order they are digested."""
    for seed in seeds:
        for workload in (workloads.Certify(seed), workloads.Decide(seed)):
            for i in range(workload.cycle):
                op = workload.op(i)
                yield op.argv, op.data
                yield [a for a in op.argv if a != "--json"], op.data


def digest(runs) -> tuple[int, str]:
    """(number of runs, sha256 over each run's exit code and stdout). An
    exception that escapes ``main`` is digested by its type name in place
    of the exit code."""
    h = hashlib.sha256()
    n = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "graph.txt")
        for argv, data in runs:
            call = workloads.CliOp(argv, data).prepare(path)
            try:
                code, out = call()
            except Exception as exc:  # a defect is part of the output
                code, out = type(exc).__name__, ""
            h.update(f"{code}\n{len(out)}\n".encode())
            h.update(out.encode())
            n += 1
    return n, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    n, hexdigest = digest(runs(args.seeds))
    print(n, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
