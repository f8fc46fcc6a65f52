"""Scaling gates: a command's work grows in step with its input.

Work is counted as ``sys.settrace`` line events inside ``leavitt`` files,
which is deterministic for a given Python. Each gate runs one command on a
family whose size doubles per step and checks the per-doubling ratio of the
work above a fixed start-up cost, measured on the family's smallest member.
Linear work gives a ratio a little over 2 that falls towards 2; a mixture
with a growing superlinear share gives ratios that rise.
"""

import os
import sys

import pytest

import leavitt
from leavitt.cli import main
from leavitt.graphs import Graph
from leavitt.io import format_graph

PACKAGE = os.path.dirname(leavitt.__file__) + os.sep

# Linear work reads 2.01 then 2.005 on the 800, 1600 and 3200-edge DAGs
# below; an m log m term would read log2(2m) / log2(m) * 2 >= 2.2 there.
RATIO_BOUND = 2.1


def layered_dag(width: int, layers: int = 5, degree: int = 2) -> Graph:
    """``layers`` layers of ``width`` vertices; vertex j of each layer but
    the last has edges to vertices j .. j + degree - 1 (mod width) of the
    next: (layers - 1) * width * degree edges, path counts up to
    degree ** (layers - 1)."""
    vertices = [f"v{i}_{j}" for i in range(layers) for j in range(width)]
    edges = [(f"e{i}_{j}_{k}", f"v{i}_{j}", f"v{i + 1}_{(j + k) % width}")
             for i in range(layers - 1) for j in range(width) for k in range(degree)]
    return Graph.build(vertices, edges)


def line_events(argv) -> int:
    """Line events inside ``leavitt`` files while ``cli.main(argv)`` runs,
    which must exit 0."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        count += event == "line"
        return trace

    sys.settrace(trace)
    try:
        code = main(argv)
    finally:
        sys.settrace(None)
    assert code == 0, argv
    return count


@pytest.fixture(scope="module")
def dag_files(tmp_path_factory):
    """The layered DAG of width 1 (the start-up cost) and of widths 100,
    200 and 400 (800, 1,600 and 3,200 edges)."""
    folder = tmp_path_factory.mktemp("layered")
    files = []
    for width in (1, 100, 200, 400):
        path = folder / f"dag{width}.txt"
        path.write_text(format_graph(layered_dag(width)))
        files.append(str(path))
    return files


@pytest.mark.parametrize("command", [["decide", "--field", "GF(3)", "--json"],
                                     ["analyze", "--json"]], ids=["decide", "analyze"])
def test_work_grows_linearly_with_the_graph(capsys, dag_files, command):
    # over GF(3), sigma = 31 exceeds the properness level, so decide also
    # builds its improper certificate on every graph of the family
    base, *sized = (line_events([command[0], f, *command[1:]]) for f in dag_files)
    capsys.readouterr()
    work = [events - base for events in sized]
    ratios = [b / a for a, b in zip(work, work[1:])]
    assert all(r <= RATIO_BOUND for r in ratios), (work, ratios)
    assert ratios[1] <= ratios[0], (work, ratios)
