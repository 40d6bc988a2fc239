#!/usr/bin/env python3
"""SHA-256 fingerprints of the benchmark's outputs, and how far they moved.

Runs the full-size inputs of the workloads in perfbench/workloads.py on
the checkout the script sits in and prints one line per output: the
coefficient tensors of chain-noise, duffing-critical and dashpot-roundtrip
(compute_taylor_gss at the workload's order), the dashpot-roundtrip
Pade den and num (pade_resum at the workload's [L/M]) and its trajectory
at the forcing sup (evaluate_at_amplitude), and the frc-chain amplitudes
(the one-thread sweep), each with its shape and the SHA-256 of its bytes.
Two outputs come from no workload: qp-duffing is the 'qp' backend's
tensor (compute_taylor_gss) of the acceptance criterion 8(a) Duffing
oscillator under its two-tone forcing at dt 0.02, order 5; reduced is
the reduced_gss tensor, order 5, of the trivial reduction of the 4-mass
S1 chain (R its first-order field and W the identity lift, built as in
the test suite, the tangent matrices the identity) on an S1 record over
three cascade blocks long, the one output whose kernel filters take a
complex modal input; picard-chain and picard-dashpot are the picard_gss
trajectories on the tiny inputs of chain-noise (structural path) and of
dashpot-roundtrip (general path, its conjugate pairs folded), and
picard-long the picard_gss trajectory on the tiny chain-noise system
over duration 12 (12,101 samples, two cascade blocks) at 0.3x its
forcing, the one output that walks Picard's sweeps over time blocks.
Each noise workload also gives its forcing record (chain-noise-forcing,
duffing-forcing, dashpot-forcing): forcing.samples, flattened, followed
by forcing.max_magnitude, so one digest covers both; a run that asks
only for records builds them and solves nothing.
A tensor is hashed order by order, every order 1..order_max stacked on
axis 1 (state, order, time), so an order the tensor does not store
counts as its zeros and the digest does not depend on which orders are
stored; a tensor that stores every order hashes as its data array.
--save writes the outputs to an .npz; --against reads one saved from
another checkout and adds to each line the largest absolute difference
over the saved output's largest magnitude (or says the output is not
in the file). --only NAME[,NAME...] computes, prints, saves and compares
only the named outputs, running only the workloads they come from.

    python3 scripts/fingerprint.py --save before.npz
    python3 scripts/fingerprint.py --against before.npz
    python3 scripts/fingerprint.py --only frc-chain --against before.npz

The chain-noise tensor alone is about 310 MiB, so a run holds a few times
that; --against compares in slices of the time axis to stay near it.
BLAS runs on one thread, as in perfbench/run.py: a multi-threaded BLAS
splits the matrix products differently and changes their rounding.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before NumPy loads its BLAS

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from steadystate import (  # noqa: E402
    build_duffing,
    decompose_structural,
    generate_forcing,
    gss,
    oracle,
    reduced_model,
)
from tests.conftest import first_order_field, identity_lift  # noqa: E402

# the forcing record of each noise workload, the first of its outputs
FORCING = {
    "chain-noise": "chain-noise-forcing",
    "duffing-critical": "duffing-forcing",
    "dashpot-roundtrip": "dashpot-forcing",
}
# the outputs of each workload (and of qp-duffing, reduced and picard,
# which are none), in the order they are printed
OUTPUTS = {
    "chain-noise": ("chain-noise-forcing", "chain-noise"),
    "duffing-critical": ("duffing-forcing", "duffing-critical"),
    "dashpot-roundtrip": (
        "dashpot-forcing", "dashpot-roundtrip", "dashpot-pade-den", "dashpot-pade-num",
        "dashpot-evaluate",
    ),
    "frc-chain": ("frc-chain",),
    "qp-duffing": ("qp-duffing",),
    "reduced": ("reduced",),
    "picard": ("picard-chain", "picard-dashpot", "picard-long"),
}
ALL = [name for made in OUTPUTS.values() for name in made]
SLICE = 8192


def _workload_outputs(name, names):
    """(name, array) of the outputs of one workload, one at a time; the
    solve runs only if names holds one of its outputs besides the
    forcing record."""
    work = workloads.WORKLOADS[name]
    spec = work.spec("full")
    inputs = work.setup(spec, 0)
    if name in FORCING:
        forcing = inputs["forcing"]
        yield FORCING[name], np.append(forcing.samples, forcing.max_magnitude)
    if names.isdisjoint(set(OUTPUTS[name]) - {FORCING.get(name)}):
        return
    if name == "frc-chain":
        yield name, np.asarray(workloads.sweep(inputs, spec, 1).amplitude)
        return
    expansion = workloads.quiet(
        gss.compute_taylor_gss, inputs["system"], inputs["forcing"], spec["order"]
    )
    yield name, _stacked(expansion.tensor)
    if name == "dashpot-roundtrip":
        pade = gss.pade_resum(expansion, *spec["pade"])
        yield "dashpot-pade-den", pade.den
        yield "dashpot-pade-num", pade.num
        delta = inputs["forcing"].max_magnitude
        yield "dashpot-evaluate", gss.evaluate_at_amplitude(expansion, delta)


def _stacked(tensor):
    """Every order 1..order_max of a tensor on axis 1 (state, order, time)."""
    orders = range(1, tensor.order_max + 1)
    return np.stack([tensor.order_slice(nu) for nu in orders], axis=1)


def _qp_outputs(name, names):
    """(name, array) of the 'qp' tensor of criterion 8(a)'s Duffing."""
    system = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
    forcing = generate_forcing(
        "two_tone", n=1, duration=60.0, dt=0.02, delta=0.4, pad=150, w1=1.3, w2=0.45
    )
    expansion = workloads.quiet(
        gss.compute_taylor_gss, system, forcing, 5, backend="qp", base_frequencies=(1.3, 0.45)
    )
    yield name, _stacked(expansion.tensor)


def _reduced_outputs(name, names):
    """(name, array) of the reduced_gss tensor of the 4-mass S1 chain's
    trivial reduction."""
    system = workloads._s1_chain(4)
    dim = system.state_dim
    forcing = workloads._s1_forcing(dict(n=4, duration=25.0, pad=1000))
    eye = np.eye(dim)
    model = reduced_model(first_order_field(system), identity_lift(dim), eye, eye)
    expansion = workloads.quiet(
        gss.reduced_gss, model, decompose_structural(system), forcing, 5
    )
    yield name, _stacked(expansion.tensor)


def _picard_outputs(source, names):
    """(name, array) of the picard_gss trajectories on the tiny inputs
    of chain-noise and dashpot-roundtrip, and on the tiny chain-noise
    system over a two-block record at 0.3x its forcing."""
    for name, workload, duration, scale in (
        ("picard-chain", "chain-noise", None, 1.0),
        ("picard-dashpot", "dashpot-roundtrip", None, 1.0),
        ("picard-long", "chain-noise", 12.0, 0.3),
    ):
        if name in names:
            work = workloads.WORKLOADS[workload]
            spec = work.spec("tiny")
            if duration is not None:
                spec = dict(spec, duration=duration)
            inputs = work.setup(spec, 0)
            forcing = inputs["forcing"] if scale == 1.0 else inputs["forcing"].scaled(scale)
            result = workloads.quiet(oracle.picard_gss, inputs["system"], forcing)
            yield name, result.trajectory


def outputs(names=None):
    """(name, array) of the fingerprinted outputs in names (default:
    all), computed one at a time; a workload runs only if it makes one
    of them."""
    names = set(names or ALL)
    for source, made in OUTPUTS.items():
        if not names.isdisjoint(made):
            run = {
                "qp-duffing": _qp_outputs, "reduced": _reduced_outputs,
                "picard": _picard_outputs,
            }.get(source, _workload_outputs)
            yield from ((n, a) for n, a in run(source, names) if n in names)


def relative_difference(a, b):
    """max |a - b| / max |b| over the last axis in slices; inf on a shape
    mismatch."""
    if a.shape != b.shape:
        return np.inf
    diff = scale = 0.0
    for s in range(0, a.shape[-1], SLICE):
        x, y = a[..., s : s + SLICE], b[..., s : s + SLICE]
        diff = max(diff, float(np.abs(x - y).max()))
        scale = max(scale, float(np.abs(y).max()))
    return diff / scale if scale > 0.0 else diff


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="NPZ", help="write the outputs to this .npz")
    parser.add_argument("--against", metavar="NPZ", help="compare with outputs saved here")
    parser.add_argument(
        "--only", metavar="NAME[,NAME...]", help="fingerprint only these outputs"
    )
    args = parser.parse_args(argv)
    names = args.only.split(",") if args.only else None
    unknown = sorted(set(names or ()) - set(ALL))
    if unknown:
        parser.error(f"unknown outputs {unknown}; choose from {ALL}")
    saved = np.load(args.against) if args.against else None
    kept = {}
    for name, array in outputs(names):
        digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        line = f"{name:19s} {digest}  shape {array.shape}"
        if saved is not None and name not in saved:
            line += "  not in the saved file"
        elif saved is not None:
            line += f"  max rel diff {relative_difference(array, saved[name]):.3g}"
        print(line, flush=True)
        if args.save:
            kept[name] = array
    if args.save:
        np.savez(args.save, **kept)


if __name__ == "__main__":
    main()
