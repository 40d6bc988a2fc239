"""One run of one workload, in a process of its own.

``run.py`` starts this file with the BLAS thread count pinned and the
package's ``src`` on the path; it prints one JSON object as its last line.
The run sets the workload up, then repeats the timed flow until
``--seconds`` have passed, checking every answer and setting the workload
up again after each repeat. With ``--trace 1`` it then runs the flow twice
more, the tracer installed around the solve, once for span times and once
for memory peaks, and reports the per-layer metrics; spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# setup_s is the median of setups made in slices of at least
# SETUP_SLICE_SECONDS, one before the timed loop (SETUP_REPEATS setups at
# least) and one after each timed repeat: the host's speed drifts over tens
# of seconds, so slices spread over the run vary less between runs than
# one block at its start
SETUP_REPEATS = 5
SETUP_SLICE_SECONDS = 0.1

if __name__ == "__main__":
    sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from perfbench import refs, workloads  # noqa: E402
from perfbench.tracer import MiB, MissingHook, Tracer, package_hooks  # noqa: E402

# Layer busy times that partition a traced solve: every hooked span is
# either one of these or nested inside one (fit_harmonics inside qp).
PARTITION = (
    "spectral.busy_s",
    "kernel.weights_s",
    "kernel.propagate_s",
    "composition.busy_s",
    "gss.qp_s",
    "gss.evaluate_s",
    "gss.pade_fit_s",
    "gss.pade_eval_s",
    "serialize.save_expansion_s",
    "serialize.save_pade_s",
    "serialize.load_expansion_s",
    "serialize.load_pade_s",
    "gss.self_s",
)
# tracemalloc peaks are read in these spans only (see tracer.py)
MEMORY_SPANS = ("kernel.propagate", "composition.assemble_phi")


def metric_units():
    """(end_to_end, per_layer) as {name: unit}, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_context(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "run_seed": seed,
        "forcing_seed": workloads.FORCING_SEED,
    }


class Outcome:
    """Attempted and failed operations, and the checked metrics of each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records = []

    def attempt(self, fn, *args):
        """Run one operation; returns its value, or None when it raised or
        failed a check. Raises only MissingHook, a defect of the benchmark
        rather than a failed operation."""
        self.attempted += 1
        try:
            value, problems = fn(*args)
        except MissingHook:
            raise
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        if problems:
            self.failed += 1
            print("check failed: " + "; ".join(problems), file=sys.stderr)
            return None
        return value

    def median(self, key, default=0.0):
        values = [r[key] for r in self.records if key in r]
        return statistics.median(values) if values else default


def _probe_s(probe):
    start = time.perf_counter()
    probe.run()
    return time.perf_counter() - start


def timed_flow(workload, inputs, spec, ref, workdir, tracer=None):
    """One solve, timed, then its check; a tracer, where given, records
    spans of the solve only. Untraced, a workload's probe is timed right
    before and after the solve."""
    probe = workload.probe if tracer is None else None
    before = _probe_s(probe) if probe else None
    if tracer is not None:
        tracer.install(package_hooks())
    try:
        start = time.perf_counter()
        answer = workload.solve(inputs, spec, workdir)
        solve_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    record = {"solve_s": solve_s}
    if probe:
        probe_s = (before + _probe_s(probe)) / 2.0
        record.update(probe_s=probe_s, scaled_solve_s=solve_s * probe.ref_s / probe_s)
    checked, problems = workload.check(inputs, answer, spec, ref)
    return ({**record, **checked}, answer), problems


def traced_passes(outcome, workload, inputs, spec, ref, workdir):
    """One flow traced for time, then one for the memory of MEMORY_SPANS;
    returns the first pass's (record, answer) and its spans, with the
    second pass's peaks copied onto them."""
    tracers = (Tracer(), Tracer(memory_spans=MEMORY_SPANS))
    results = [
        outcome.attempt(timed_flow, workload, inputs, spec, ref, workdir, tracer)
        for tracer in tracers
    ]
    spans, memory = tracers[0].spans, tracers[1].spans
    if [s.name for s in spans] != [s.name for s in memory]:
        raise RuntimeError("the two traced passes called different layers")
    for span, measured in zip(spans, memory):
        span.peak_mb = measured.peak_mb
    return results[0], spans


def _total(spans, name):
    return sum(s.duration for s in spans if s.name == name)


def _info(spans, name, key):
    return [s.info[key] for s in spans if s.name == name and key in s.info]


def layer_metrics(spans, outcome, traced_solve_s, threads2_speedup):
    """Every per-layer metric; a layer that did not run reads 0."""
    m = {}
    m["spectral.busy_s"] = _total(spans, "spectral.decompose") + _total(spans, "spectral.select_modes")
    m["spectral.calls"] = sum(1 for s in spans if s.name == "spectral.decompose")

    m["kernel.weights_s"] = _total(spans, "kernel.weights")
    m["kernel.modes"] = max(_info(spans, "kernel.weights", "modes"), default=0)
    branches = [b for bs in _info(spans, "kernel.weights", "branches") for b in bs]
    for branch in ("underdamped", "critical", "overdamped"):
        m[f"kernel.branch_{branch}"] = branches.count(branch)
    m["kernel.propagate_s"] = _total(spans, "kernel.propagate")
    samples = sum(_info(spans, "kernel.propagate", "mode_samples"))
    m["kernel.mode_samples_per_s"] = samples / m["kernel.propagate_s"] if samples else 0.0
    m["kernel.propagate_peak_mb"] = max(
        (s.peak_mb for s in spans if s.name == "kernel.propagate"), default=0.0
    )

    m["composition.busy_s"] = _total(spans, "composition.assemble_phi")
    caches = _info(spans, "gss.compute", "cache")
    for key in ("hits", "misses", "entries"):
        m[f"composition.cache_{key}"] = sum(c[key] for c in caches)
    m["composition.peak_mb"] = max(
        (s.peak_mb for s in spans if s.name == "composition.assemble_phi"), default=0.0
    )

    children = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    m["gss.self_s"] = sum(s.duration - children.get(s.id, 0.0) for s in spans if s.name == "gss.compute")
    m["gss.tensor_mb"] = max(_info(spans, "gss.compute", "tensor_bytes"), default=0) / MiB
    m["gss.qp_s"] = _total(spans, "gss.qp_propagate")
    m["gss.qp_fit_s"] = _total(spans, "gss.fit_harmonics")
    m["gss.qp_harmonics"] = max(_info(spans, "gss.fit_harmonics", "harmonics"), default=0)
    m["gss.evaluate_s"] = _total(spans, "gss.evaluate")
    m["gss.pade_fit_s"] = _total(spans, "gss.pade_fit")
    m["gss.pade_eval_s"] = _total(spans, "gss.pade_eval")
    m["gss.pade_ill_conditioned"] = sum(_info(spans, "gss.pade_fit", "ill_conditioned"))
    m["gss.pade_nmte"] = outcome.median("pade_nmte")

    for kind in ("save_expansion", "save_pade", "load_expansion", "load_pade"):
        m[f"serialize.{kind}_s"] = _total(spans, f"serialize.{kind}")
    saved = _info(spans, "serialize.save_expansion", "bytes") + _info(spans, "serialize.save_pade", "bytes")
    values = _info(spans, "serialize.save_expansion", "values") + _info(spans, "serialize.save_pade", "values")
    m["serialize.bytes_written"] = sum(saved)
    m["serialize.files"] = sum(
        _info(spans, "serialize.save_expansion", "files") + _info(spans, "serialize.save_pade", "files")
    )
    m["serialize.bytes_per_value"] = sum(saved) / sum(values) if values else 0.0

    oracle_s = outcome.median("oracle_s")
    m["oracle.busy_s"] = oracle_s
    m["oracle.steps"] = outcome.median("oracle_steps", 0)
    m["oracle.ratio"] = oracle_s / outcome.median("compute_s") if oracle_s else 0.0

    solve_s = outcome.median("solve_s")
    m["bench.solve_wall_s"] = solve_s
    m["bench.probe_s"] = outcome.median("probe_s")
    points = outcome.median("sweep_points", 0)
    m["bench.sweep_points"] = points
    m["bench.sweep_flagged"] = outcome.median("sweep_flagged", 0)
    m["bench.sweep_point_s"] = solve_s / points if points else 0.0
    m["bench.threads2_speedup"] = threads2_speedup

    m["trace.overhead"] = traced_solve_s / solve_s - 1.0
    m["trace.coverage"] = sum(m[name] for name in PARTITION) / traced_solve_s
    return m


def thread_sweeps(inputs, spec, traced):
    """Untraced sweeps at threads 1 and 2: the speedup, and whether both
    equal the traced threads=1 sweep bit for bit."""
    timings = {}
    problems = []
    for threads in (1, 2):
        start = time.perf_counter()
        result = workloads.sweep(inputs, spec, threads)
        timings[threads] = time.perf_counter() - start
        if not (np.array_equal(result.amplitude, traced.amplitude, equal_nan=True)
                and result.flags == traced.flags):
            problems.append(f"threads={threads} sweep differs from the traced threads=1 sweep")
    return timings[1] / timings[2], problems


def set_up(workload, spec, seed, times, repeats=1):
    """One slice of setups, each appended to ``times``; returns the last
    inputs. A workload's probe, timed right before and after the slice,
    scales its times as it scales the solve."""
    probe = workload.probe
    before = _probe_s(probe) if probe else None
    spent = []
    while len(spent) < repeats or sum(spent) < SETUP_SLICE_SECONDS:
        start = time.perf_counter()
        inputs = workload.setup(spec, seed)
        spent.append(time.perf_counter() - start)
    if probe:
        scale = probe.ref_s / ((before + _probe_s(probe)) / 2.0)
        spent = [t * scale for t in spent]
    times.extend(spent)
    return inputs


def run(name, size, seed, seconds, trace, refs_dir=refs.REFS_DIR, out_dir=OUT_DIR):
    """One run at size 'full' or 'tiny' (the benchmark's tests); returns
    the result object run.py prints."""
    end_to_end, per_layer = metric_units()
    workload = workloads.WORKLOADS[name]
    spec = workload.spec(size)

    setup_times = []
    inputs = set_up(workload, spec, seed, setup_times, SETUP_REPEATS)
    ref = refs.load(name, size, spec, inputs, refs_dir)

    outcome = Outcome()
    if workload.live_oracle is not None:
        value = outcome.attempt(workload.live_oracle, inputs, spec, ref)
        if value is not None:
            outcome.records.append(value[0])
            ref = {**ref, **value[1]}
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        start = time.perf_counter()
        while True:
            value = outcome.attempt(timed_flow, workload, inputs, spec, ref, workdir)
            if value is None:
                break
            outcome.records.append(value[0])
            del value
            set_up(workload, spec, seed, setup_times)
            if time.perf_counter() - start >= seconds:
                break

        if not trace:
            values = {
                "setup_s": statistics.median(setup_times),
                "solve_s": outcome.median(
                    "scaled_solve_s" if workload.probe else "solve_s", None
                ),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "oracle_err": outcome.median("oracle_err", None),
            }
            units = end_to_end
        else:
            traced, spans = traced_passes(outcome, workload, inputs, spec, ref, workdir)
            speedup = 0.0
            if traced is not None and name == "frc-chain":
                speedup = outcome.attempt(thread_sweeps, inputs, spec, traced[1]["sweep"]) or 0.0
            traced_solve_s = traced[0]["solve_s"] if traced else float("nan")
            values = layer_metrics(spans, outcome, traced_solve_s, speedup)
            units = per_layer
            with open(os.path.join(out_dir, f"trace-{name}-{seed}.json"), "w") as fh:
                json.dump(
                    {"workload": name, "seed": seed, "context": run_context(seed),
                     "spans": [dataclasses.asdict(s) for s in spans]},
                    fh,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
        "context": run_context(seed),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="one benchmark run in this process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, "full", args.seed, args.seconds, args.trace)
    except refs.StaleReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
