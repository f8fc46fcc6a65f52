"""The leavitt benchmark: end-to-end rows per workload, or a traced run.

    python3 benchmarks/run.py [--workload certify|arith|decide] [--seed N]
                              [--seconds S] [--trace 0|1] [--out FILE]

Without --workload every workload runs and one row per workload is
printed. A run is a fixed number of whole operation cycles per workload
(``cycles`` in workloads.py), so every run of a seed does the same work on
any commit; --seconds is accepted as the benchmark's nominal run length and
only recorded in the results file. The last line of standard output is
always one JSON object; --out also writes the results, stamped with the
machine and commit.

Every measurement runs in a fresh worker process (worker.py). An untraced
run starts SETUP_PROBES processes that only set up, for the median set-up
time, then one that sets up, runs the workload closed-loop with one client
and checks every output. A traced run (--trace 1) runs the same operations
with wrappers installed, then replays them in a process that never
installed one, for ``trace.overhead_ratio``. Refuses ``python -O``: the
library's certificate checks are asserts, and without them the numbers
would measure a different program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("certify", "arith", "decide")
SETUP_PROBES = 4
RUN_LIMIT_S = 170          # one workload, set-up probes and checks included

END_TO_END = (("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("ok_ratio", "1"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def worker(args, deadline) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + [str(a) for a in args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish in time: {' '.join(cmd[2:])}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def measure(name, seed, deadline) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    base = ["--workload", name, "--seed", seed, "--workdir", os.path.join(ROOT, ".bench_work")]
    probes = [worker(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    main = worker(base, deadline)
    setups = [p["setup_s"] for p in probes + [main]]
    setups_raw = [p["setup_raw_s"] for p in probes + [main]]
    attempted, ok = main["attempted"], main["ok"]
    values = {
        "ops_per_s": main["ops_per_s"],
        "p50_ms": main["p50_ms"],
        "p90_ms": main["p90_ms"],
        "ok_ratio": ok / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    # wrong counts wrong outputs and exceptions other than a known defect
    return {
        "correct": main["wrong"] == 0 and all(main["selftest"].values()),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END},
        "raw": {"cpu_s": main["busy_raw_s"], "wall_s": main["wall_s"],
                "speed_factor": main["speed_factor_median"],
                "setup_cpu_s": statistics.median(setups_raw)},
        "errors": main["errors"],
        "problems": main["problems"],
        "selftest": main["selftest"],
    }


def trace(name, seed, deadline) -> dict:
    """Per-layer metrics of one workload from a traced run of a fixed
    number of operations, and the wall-time overhead against an untraced
    replay."""
    workdir = os.path.join(ROOT, ".bench_work")
    base = ["--workload", name, "--seed", seed, "--workdir", workdir]
    traced = worker(base + ["--trace", os.path.join(workdir, f"spans-{name}.jsonl")], deadline)
    plain = worker(base, deadline)
    metrics = {m: {"value": v, "unit": u} for m, (v, u) in traced["layers"].items()}
    metrics["bench.graph_reuse_share"] = {"value": traced["graph_reuse_share"], "unit": "1"}
    metrics["trace.overhead_ratio"] = {"value": traced["wall_s"] / plain["wall_s"], "unit": "1"}
    return {
        "correct": traced["wrong"] == plain["wrong"] == 0 and all(traced["selftest"].values()),
        "attempted": traced["attempted"],
        "failed": traced["attempted"] - traced["ok"],
        "metrics": metrics,
        "errors": traced["errors"],
        "problems": traced["problems"],
        "selftest": traced["selftest"],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed, seconds, trace_on) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace_on,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def print_rows(results: dict) -> None:
    """One column per workload; fail_ratio is failed / attempted."""
    first = next(iter(results.values()))["metrics"]
    width = max(len(n) for n in first) + 2
    print("metric".ljust(width) + "unit".ljust(8) + "".join(w.rjust(14) for w in results))
    for name, m in first.items():
        cells = "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values())
        print(name.ljust(width) + m["unit"].ljust(8) + cells)
    cells = "".join(f"{r['failed'] / r['attempted']:14.6g}" for r in results.values())
    print("fail_ratio".ljust(width) + "1".ljust(8) + cells)
    for name, r in results.items():
        for problem in r["problems"]:
            print(f"{name}: {problem}")
        if not all(r["selftest"].values()):
            print(f"{name}: self-test failed: {r['selftest']}")


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("run.py: refusing to run under python -O: the certificate asserts would "
              "vanish and the numbers would measure a different program", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="nominal run length, recorded only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the stamped results here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "leavitt", "__init__.py")):
        print(f"run.py: no leavitt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    run_one = trace if args.trace else measure
    try:
        results = {n: run_one(n, args.seed, deadline) for n in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print_rows(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"stamp": stamp(args.seed, args.seconds, args.trace),
                       "workloads": results}, handle, indent=2)
            handle.write("\n")
    if args.workload:
        r = results[args.workload]
        summary = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
