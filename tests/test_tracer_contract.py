"""The names and signatures the benchmark's tracer (perfbench/tracer.py)
wraps and reads. A refactor that renames one of them breaks the traced
benchmark run; this check fails first, in the main suite."""

import inspect
import pathlib
import sys

import numpy as np

from steadystate import build_duffing, compute_taylor_gss, load_forcing

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from perfbench.tracer import package_hooks  # noqa: E402


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
