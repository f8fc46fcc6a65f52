"""One sha256 over the outputs of the benchmark's ``certify``, ``decide`` and
``arith`` ops and of element commands on branching graphs.

Runs every op of one ``Certify`` cycle and one ``Decide`` cycle of
``benchmarks/workloads.py`` at each seed, as generated (with ``--json``) and
once more without ``--json``, then ``nf``, ``phi`` and ``witness
regular|projection|unit|improper`` on the branching acyclic graphs of
``branching_graphs`` (each has vertices of out-degree 2, which no
workload graph has), each with and without ``--json``, all through
``leavitt.cli.main`` in process. Then it runs every op of one ``Arith``
cycle at each seed through the library and takes ``format_element`` of
each result. It prints the number of runs and one sha256 over each run's
exit code and stdout, then each result's text, in order. Two versions of the
library that write the same bytes for every op print the same line, so a
change meant to keep every output can be checked against its parent:

    PYTHONPATH=src python tests/output_digest.py
    PYTHONPATH=/path/to/parent/src python tests/output_digest.py

``PINNED`` is the line at the default seeds, which Tier-1 compares with
the printed one; a change to the workload generator or to the runs here
updates that constant.

Standard library only; the workload generator is imported, not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import random
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402
from leavitt.algebra import format_element  # noqa: E402
from leavitt.graphs import Graph, m_n_graph  # noqa: E402

SEEDS = (1, 2, 3, 7)
PINNED = "4312 e133f2da828adc44e47982f00f36f484492b63b2cb1db6ed5d33853c2ad24dba"
COMMANDS = (("nf",), ("phi",), ("witness", "regular"), ("witness", "projection"),
            ("witness", "unit"), ("witness", "improper"))
FIELDS = ("Q", "GF(3)")


def runs(seeds=SEEDS):
    """Each op as (argv, graph data), with and without ``--json``, in the
    order they are digested: the workloads' ops at each seed, then the
    branching runs."""
    for seed in seeds:
        for workload in (workloads.Certify(seed), workloads.Decide(seed)):
            for i in range(workload.cycle):
                op = workload.op(i)
                yield op.argv, op.data
                yield [a for a in op.argv if a != "--json"], op.data
    yield from branching_runs()


def branching_graphs() -> dict:
    """A 4-rung ladder (two parallel edges per rung), a depth-3 binary
    out-tree and M_3 of a DAG with an out-degree-2 vertex, by name."""
    ladder = workloads.GraphData(
        [f"v{i}" for i in range(5)],
        [(f"{c}{i}", f"v{i}", f"v{i + 1}") for i in range(4) for c in "ab"])
    tree = workloads.GraphData([f"t{i}" for i in range(1, 16)],
                               [(f"d{j}", f"t{j // 2}", f"t{j}") for j in range(2, 16)])
    fork = Graph.build(["u", "w", "s"], [("f", "u", "w"), ("g", "u", "s"), ("h", "w", "s")])
    return {"ladder": ladder, "tree": tree, "m3": workloads.GraphData.of(m_n_graph(fork, 3), "")}


def branching_runs():
    """Each command of ``COMMANDS`` on each branching graph over each field
    of ``FIELDS``, with one seeded expression per graph and field, with and
    without ``--json``."""
    for name, data in branching_graphs().items():
        for spec in FIELDS:
            rng = random.Random(f"digest:{name}:{spec}")
            expr = workloads.random_expr(data, spec, rng, max_terms=4, max_len=3)
            for command in COMMANDS:
                argv = [*command, "{graph}", "--field", spec]
                if command[-1] != "improper":
                    argv.append(f"--expr={expr}")
                yield argv + ["--json"], data
                yield argv, data


def arith_results(seeds=SEEDS):
    """``format_element`` of the result of each op of one ``Arith`` cycle
    at each seed, in order."""
    for seed in seeds:
        workload = workloads.Arith(seed)
        for i in range(workload.cycle):
            yield format_element(workload.op(i).prepare(None)())


def digest(runs, results=()) -> tuple[int, str]:
    """(number of runs and results, sha256 over each run's exit code and
    stdout, then over each result text and a newline). An exception that
    escapes ``main`` is digested by its type name in place of the exit
    code."""
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
    for text in results:
        h.update(f"{text}\n".encode())
        n += 1
    return n, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    n, hexdigest = digest(runs(args.seeds), arith_results(args.seeds))
    print(n, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
