"""Stored newmark_full references for the benchmark workloads.

Each reference is one ``.npz`` file: the decimated oracle trajectory (or,
for ``frc-chain``, the per-point steady amplitudes), the SHA-256 of the
workload parameters that built it, and a probe of the inputs (system
matrices, decimated forcing, frequency grid). Loading checks both, so a
reference built from other inputs fails instead of passing silently. The
probe is compared within 1e-9 rather than bit for bit, because the forcing
generator's reductions may round differently on another CPU.

Regenerate every reference (about 5 minutes on one core):

    python3 perfbench/refs.py

or one of them with ``--workload NAME``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, os.path.dirname(HERE))

from perfbench.workloads import FORCING_SEED, WORKLOADS  # noqa: E402


class StaleReference(RuntimeError):
    """The stored reference is missing or was built from other inputs."""


def reference_path(refs_dir, name, size):
    return os.path.join(refs_dir, f"{name}.{size}.npz")


def spec_sha256(name, size, spec):
    text = json.dumps(
        {"workload": name, "size": size, "spec": spec, "forcing_seed": FORCING_SEED},
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()


def input_probe(inputs, spec):
    """The inputs a reference depends on, flattened (the run seed's
    evaluation amplitudes excluded)."""
    system = inputs["system"]
    parts = [system.M.ravel(), system.C.ravel(), system.K.ravel()]
    if "forcing" in inputs:
        forcing = inputs["forcing"]
        parts.append(forcing.samples[forcing.pad_length :: spec["decimate"]].ravel())
    if "omega" in inputs:
        parts.append(inputs["omega"])
    return np.concatenate(parts)


def build(name, size="full", refs_dir=REFS_DIR):
    """Run the oracle for one workload and store its reference; returns
    the oracle's wall time in seconds."""
    workload = WORKLOADS[name]
    spec = workload.spec(size)
    inputs = workload.setup(spec, seed=0)
    start = time.perf_counter()
    arrays = workload.reference(inputs, spec)
    oracle_s = time.perf_counter() - start
    os.makedirs(refs_dir, exist_ok=True)
    path = reference_path(refs_dir, name, size)
    partial = path + ".partial.npz"
    np.savez(
        partial,
        spec_sha256=np.array(spec_sha256(name, size, spec)),
        probe=input_probe(inputs, spec),
        **arrays,
    )
    os.replace(partial, path)
    return oracle_s


def load(name, size, spec, inputs, refs_dir=REFS_DIR):
    """The stored reference arrays, after checking they match the inputs."""
    path = reference_path(refs_dir, name, size)
    regen = f"regenerate with: python3 perfbench/refs.py --workload {name}"
    if not os.path.isfile(path):
        raise StaleReference(f"no reference {path}; {regen}")
    with np.load(path, allow_pickle=False) as data:
        stored = {key: data[key] for key in data.files}
    if str(stored.pop("spec_sha256")) != spec_sha256(name, size, spec):
        raise StaleReference(f"{path} was built from other workload parameters; {regen}")
    probe = input_probe(inputs, spec)
    expected = stored.pop("probe")
    scale = np.abs(expected).max()
    if probe.shape != expected.shape or not np.allclose(probe, expected, rtol=1e-9, atol=1e-12 * scale):
        raise StaleReference(f"{path} was built from other inputs; {regen}")
    return stored


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        oracle_s = build(name)
        path = reference_path(REFS_DIR, name, "full")
        print(f"{name}: oracle {oracle_s:.1f} s, {os.path.getsize(path)} bytes -> {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
