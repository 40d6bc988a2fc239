"""Fast tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import refs, worker, workloads  # noqa: E402
from perfbench.tracer import MissingHook  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("refs")
    for name in NAMES:
        refs.build(name, "tiny", str(directory))
    return str(directory)


def _run(name, trace, tiny_refs, out_dir):
    return worker.run(name, "tiny", seed=3, seconds=0.05, trace=trace,
                      refs_dir=tiny_refs, out_dir=str(out_dir))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")
    assert NAMES == list(workloads.WORKLOADS)
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_runs_and_reports_every_metric(name, tiny_refs, tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(name, trace, tiny_refs, tmp_path)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    e2e = _run(name, 0, tiny_refs, tmp_path)["metrics"]
    assert all(e2e[m]["value"] > 0 for m in e2e)


@pytest.mark.parametrize("name", NAMES)
def test_traced_spans_nest_and_account_for_the_solve(name, tiny_refs, tmp_path):
    metrics = _run(name, 1, tiny_refs, tmp_path)["metrics"]
    with open(tmp_path / f"trace-{name}-3.json") as fh:
        spans = {s["id"]: s for s in json.load(fh)["spans"]}
    assert spans
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    # the layer busy times plus gss.self_s over the traced solve_s
    assert abs(metrics["trace.coverage"]["value"] - 1.0) <= 0.1


def test_spans_cover_the_solve_not_its_check(tiny_refs, tmp_path):
    # check_dashpot evaluates both containers again at the 16 amplitudes;
    # only the solve's 16 + 1 calls of each may be traced
    _run("dashpot-roundtrip", 1, tiny_refs, tmp_path)
    with open(tmp_path / "trace-dashpot-roundtrip-3.json") as fh:
        names = [s["name"] for s in json.load(fh)["spans"]]
    assert names.count("gss.pade_eval") == 17
    assert names.count("gss.evaluate") == 17


def test_layers_read_where_they_run(tiny_refs, tmp_path):
    frc = _run("frc-chain", 1, tiny_refs, tmp_path)["metrics"]
    assert frc["spectral.calls"]["value"] == 3  # once per sweep point
    assert frc["gss.qp_harmonics"]["value"] > 0 and frc["kernel.propagate_s"]["value"] == 0
    assert frc["bench.threads2_speedup"]["value"] > 0 and frc["bench.probe_s"]["value"] > 0
    duffing = _run("duffing-critical", 1, tiny_refs, tmp_path)["metrics"]
    assert duffing["kernel.branch_critical"]["value"] == 1
    assert duffing["kernel.propagate_peak_mb"]["value"] > 0
    dashpot = _run("dashpot-roundtrip", 1, tiny_refs, tmp_path)["metrics"]
    assert dashpot["serialize.files"]["value"] > 0 and dashpot["oracle.steps"]["value"] > 0
    assert 0 < dashpot["gss.pade_nmte"]["value"] <= workloads.PADE_NMTE_LIMIT


def test_probe_scales_the_solve_to_its_reference_speed(tiny_refs, tmp_path):
    # a probe that runs at half its reference speed halves the solve time
    workload = dataclasses.replace(
        workloads.WORKLOADS["duffing-critical"],
        probe=workloads.Probe(lambda: time.sleep(0.02), ref_s=0.01),
    )
    spec = workload.spec("tiny")
    inputs = workload.setup(spec, 3)
    ref = refs.load(workload.name, "tiny", spec, inputs, tiny_refs)
    (record, _), problems = worker.timed_flow(workload, inputs, spec, ref, str(tmp_path))
    assert not problems
    assert 0.02 <= record["probe_s"] < 0.1
    assert record["scaled_solve_s"] == pytest.approx(record["solve_s"] * 0.01 / record["probe_s"])


def test_failed_check_is_counted_not_raised(tiny_refs, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "NMTE_LIMIT", 0.0)
    result = _run("chain-noise", 0, tiny_refs, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_stale_reference_fails(tiny_refs, tmp_path):
    workload = workloads.WORKLOADS["chain-noise"]
    spec = workload.spec("tiny")
    inputs = workload.setup(spec, seed=0)
    refs.load("chain-noise", "tiny", spec, inputs, tiny_refs)
    with pytest.raises(refs.StaleReference):
        refs.load("chain-noise", "tiny", dict(spec, order=5), inputs, tiny_refs)
    inputs["forcing"] = inputs["forcing"].scaled(1.001)
    with pytest.raises(refs.StaleReference):
        refs.load("chain-noise", "tiny", spec, inputs, tiny_refs)
    with pytest.raises(refs.StaleReference):
        refs.load("chain-noise", "tiny", spec, inputs, str(tmp_path))


def test_missing_hook_fails_the_traced_run(tiny_refs, tmp_path, monkeypatch):
    # chain-noise never calls fit_harmonics, so only the tracer misses it
    from steadystate import gss

    monkeypatch.delattr(gss, "fit_harmonics")
    with pytest.raises(MissingHook, match="steadystate.gss.fit_harmonics"):
        _run("chain-noise", 1, tiny_refs, tmp_path)


def test_committed_references_match_the_full_inputs():
    for name in NAMES:
        workload = workloads.WORKLOADS[name]
        spec = workload.spec("full")
        refs.load(name, "full", spec, workload.setup(spec, seed=0))
        assert os.path.getsize(refs.reference_path(refs.REFS_DIR, name, "full")) < 1 << 20


def _command(cwd, name="frc-chain"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )


def _checkout(tmp_path, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_command_line_end_to_end():
    # one full-size frc-chain repeat (a few seconds) against its stored reference
    done = _command(ROOT)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_stale_reference_exits_with_code_3(tmp_path):
    _checkout(tmp_path)
    os.remove(tmp_path / "perfbench" / "refs" / "frc-chain.full.npz")
    done = _command(tmp_path)
    assert done.returncode == 3
    assert done.stdout.strip() == ""
    assert "python3 perfbench/refs.py --workload frc-chain" in done.stderr


def test_exits_nonzero_without_the_package_source(tmp_path):
    _checkout(tmp_path, with_src=False)
    done = _command(tmp_path, "chain-noise")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
