"""Benchmark entry point: time to a checked steady state.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` for each in
turn. Each workload runs in a fresh process of
its own (``worker.py``) with BLAS pinned to BLAS_THREADS threads. The
output is a table of the metrics with their units, a context line, and as
the last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``. Run from the root of a source checkout;
it exits with a non-zero code, printing no result, where the package
source is missing or a worker fails (a worker's own exit code is passed
through: 3 for a stale oracle reference).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(name, args):
    """(exit code, result object) of one worker process; the result is
    None unless the code is 0."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    if done.returncode != 0:
        print(f"error: {name} worker exited with code {done.returncode}", file=sys.stderr)
        return done.returncode, None
    return 0, json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "steadystate", "__init__.py")):
        print(f"error: no package source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, result = run_worker(name, args)
        if result is None:
            return code
        results[name] = result

    context = {"git": git_revision(), "blas_threads": BLAS_THREADS}
    for name, result in results.items():
        context.update(result.pop("context"))
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:28s} {m['value']!s:>24s} {m['unit']}")
    print(json.dumps({"context": context}))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
