"""One measuring process: set up, run one workload closed-loop, check.

Started by run.py, never by hand. Prints one JSON object as its last line.
The untraced process never imports tracing.py, so no wrapper is ever
installed where end-to-end numbers are taken.

    worker.py --workload NAME --seed N --workdir DIR
              [--setup-only] [--trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The machine is shared and its speed drifts by tens of percent within a
# minute. A fixed pure-Python loop, timed between operations, samples the
# current speed; every time is scaled by REFERENCE_S / (the loop's time
# around it), i.e. reported at the speed where the loop takes REFERENCE_S.
REFERENCE_S = 0.004
REFERENCE_EVERY_S = 0.025  # CPU time (operations and checks) between two samples
REFERENCE_WINDOW = 5       # samples each side in the smoothing median


def reference() -> float:
    """CPU time of a fixed loop of the kinds of work the library does:
    Fraction arithmetic, tuple-keyed dicts and frozensets. The garbage
    collector is off inside the loop, so a collection of the program's
    heap is never charged to it."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    table = {}
    x = Fraction(1)
    for i in range(300):
        x = x * Fraction(3, 7) + Fraction(i % 5, 3)
        key = ((i % 7, i % 3), (i % 11,))
        table[key] = table.get(key, 0) + x
    sets = [frozenset(range(j, 4000 + j, 2)) for j in range(8)]
    len(frozenset.union(*sets))
    elapsed = time.thread_time() - start
    if collecting:
        gc.enable()
    return elapsed


def speed_factors(samples) -> list:
    """REFERENCE_S over a running median of the reference samples; entry k
    scales the operations between samples k and k + 1."""
    w = REFERENCE_WINDOW
    return [REFERENCE_S / statistics.median(samples[max(0, k - w):k + w + 2])
            for k in range(len(samples))]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("worker: refusing to run under python -O: the library's certificate "
              "checks are asserts", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.thread_time()
    import leavitt.cli  # noqa: F401  (the import is part of set-up)
    import_s = time.thread_time() - started
    if not os.path.abspath(leavitt.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"worker: imported leavitt from {leavitt.__file__}, not from this checkout",
              file=sys.stderr)
        return 1

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tmp = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    try:
        graph_file = os.path.join(tmp, "graph.txt")
        started = time.thread_time()
        workload.warm_up(graph_file)
        setup_raw_s = import_s + time.thread_time() - started
        setup_s = setup_raw_s * speed_factors([reference() for _ in range(5)])[0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        result = measure(workload, graph_file, workload.cycle * workload.cycles, tracer)
        result["setup_s"] = setup_s
        result["setup_raw_s"] = setup_raw_s
        if tracer is not None:
            result["selftest"] = {"trace_uninstall_restores": tracer.uninstall()}
            tracer.write(args.trace)
            result["layers"] = tracer.layer_metrics()
        else:
            import selftest
            result["selftest"] = selftest.run(workloads, args.workload, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, graph_file, ops, tracer) -> dict:
    """Closed loop, one client, ``ops`` operations: generate op i
    (untimed), time the call, check the output (untimed). A wrong output,
    or an exception other than the op's known defect, counts in ``wrong``
    as well as in the failures.

    Latency is CPU time of this thread, since time spent descheduled on a
    shared machine says nothing about the program, scaled by the speed
    factor of the reference samples around it. Raw CPU and wall time are
    kept alongside."""
    raw, segment, problems, errors = [], [], [], {}
    samples = [reference()]
    seen_graphs = set()
    reused = ok = wrong = 0
    wall = 0.0
    last_sample = time.thread_time()
    for i in range(ops):
        op = workload.op(i)
        key = op.graph_key()
        reused += key in seen_graphs
        seen_graphs.add(key)
        call = op.prepare(graph_file)
        if tracer is not None:
            tracer.active = True
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            output = call()
        except Exception as exc:  # an escaping exception is a measured failure
            output, error = None, exc
        else:
            error = None
        latency = time.thread_time() - cpu_start
        wall += time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error is not None:
            kind = type(error).__name__
            problem = f"{kind} escaped"
            errors[kind] = errors.get(kind, 0) + 1
            if kind != op.known_error():  # not a known defect: a wrong run
                wrong += 1
        else:
            try:
                problem = workload.check(op, output)
            except Exception as exc:  # unreadable output is a wrong output
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                wrong += 1
        ok += problem is None
        if problem is not None and len(problems) < 5:
            problems.append(f"op {i}: {problem}")
        raw.append((latency, problem is None))
        segment.append(len(samples) - 1)
        if time.thread_time() - last_sample >= REFERENCE_EVERY_S:
            samples.append(reference())
            last_sample = time.thread_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples.append(reference())
    factors = speed_factors(samples)
    scaled = [latency * factors[k] for (latency, _), k in zip(raw, segment)]
    busy = sum(scaled)
    # a failed op counts as beyond any latency limit
    ordered = sorted(s if good else float("inf") for s, (_, good) in zip(scaled, raw))
    i = len(raw)
    return {
        "attempted": i,
        "ok": ok,
        "wrong": wrong,
        "errors": errors,
        "problems": problems,
        "busy_s": busy,
        "busy_raw_s": sum(latency for latency, _ in raw),
        "wall_s": wall,
        "speed_factor_median": statistics.median(factors),
        "ops_per_s": ok / busy if busy else 0.0,
        "p50_ms": percentile(ordered, 50) * 1000,
        "p90_ms": percentile(ordered, 90) * 1000,
        "peak_rss_mb": peak_rss_mb,
        "graph_reuse_share": reused / i if i else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
