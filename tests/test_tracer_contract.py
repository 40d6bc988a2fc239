"""The names and signatures the benchmark's tracer (perfbench/tracer.py)
wraps and the fields its info functions read. A refactor that renames
one of them breaks the traced benchmark run; this check fails first, in
the main suite."""

import inspect
import pathlib
import sys

import numpy as np
import pytest

from steadystate import build_duffing, compute_taylor_gss, gss, load_forcing, serialize

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from perfbench.tracer import Tracer, package_hooks  # noqa: E402


def _parameters(module, name):
    return inspect.signature(getattr(module, name)).parameters


def test_every_hooked_name_exists():
    missing = [f"{m.__name__}.{name}" for m, name, _, _ in package_hooks()
               if not hasattr(m, name)]
    assert not missing


def test_info_functions_find_their_arguments():
    hooked = {name: module for module, name, _, _ in package_hooks()}
    assert "weights" in _parameters(hooked["propagate_order"], "propagate_order")
    for name, argument in (("save_expansion", "expansion"), ("save_pade", "pade")):
        assert {argument, "directory"} <= set(_parameters(hooked[name], name)), name


def test_cache_stats_keys():
    t = 0.05 * np.arange(200)
    forcing = load_forcing(0.1 * np.sin(1.3 * t), dt=0.05)
    expansion = compute_taylor_gss(build_duffing(kappa3=0.5), forcing, order=3)
    assert set(expansion.cache_stats) == {"hits", "misses", "entries"}


@pytest.mark.parametrize("zeta,branch", [(0.05, "underdamped"), (1.0, "critical")])
def test_info_functions_read_their_fields(tmp_path, zeta, branch):
    # one traced compute -> save -> load -> pade -> save -> load ->
    # evaluate, as the benchmark runs it: every span with an info
    # function records what it reads from the weights and the results
    t = 0.05 * np.arange(200)
    forcing = load_forcing(0.1 * np.sin(1.3 * t), dt=0.05)
    exp_dir, pade_dir = str(tmp_path / "expansion"), str(tmp_path / "pade")
    tracer = Tracer()
    tracer.install(package_hooks())
    try:
        expansion = gss.compute_taylor_gss(build_duffing(zeta=zeta, kappa3=0.5), forcing, 5)
        serialize.save_expansion(expansion, exp_dir)
        loaded = serialize.load_expansion(exp_dir)
        pade = gss.pade_resum(loaded, 2, 2)
        serialize.save_pade(pade, pade_dir)
        loaded_pade = serialize.load_pade(pade_dir)
        gss.evaluate_at_amplitude(loaded, 0.1)
        gss.evaluate_pade(loaded_pade, 0.1)
    finally:
        tracer.remove()
    info = {}
    for span in tracer.spans:
        info.setdefault(span.name, []).append(span.info)
    assert info["kernel.weights"] == [{"modes": 1, "branches": [branch]}]
    assert {i["mode_samples"] for i in info["kernel.propagate"]} == {200}
    (computed,) = info["gss.compute"]
    assert set(computed["cache"]) == {"hits", "misses", "entries"}
    assert computed["tensor_bytes"] == 2 * 5 * 200 * 8
    assert info["gss.pade_fit"] == [{"ill_conditioned": len(pade.ill_conditioned)}]
    for name, values in (("serialize.save_expansion", 2 * 5 * 200),
                         ("serialize.save_pade", pade.num.size + pade.den.size)):
        (saved,) = info[name]
        assert saved["bytes"] > 0 and saved["files"] > 0 and saved["values"] == values
    for name in ("serialize.load_expansion", "serialize.load_pade", "gss.evaluate",
                 "gss.pade_eval"):
        assert len(info[name]) == 1, name
