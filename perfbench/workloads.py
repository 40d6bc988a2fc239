"""The benchmark's four workloads: inputs, the timed flow, and the checks.

Each workload has a full size (the one the benchmark measures) and a tiny
size (the same flow on a few masses and a short record, used by the
benchmark's own tests). Every call into the package goes through a module
attribute (``gss.compute_taylor_gss``, ``serialize.save_expansion``, ...)
looked up at call time, so that the tracer in ``tracer.py`` sees it.

The forcing realizations are pinned to ``FORCING_SEED``, the criterion-4
realization. Across realizations the order-10 NMTE of the chain moves
threefold (0.0045 at seed 42, 0.0093 / 0.0103 / 0.0144 at seeds 1 / 2 / 3),
so an accuracy metric over a changing realization could not be held to a
bound, and each new realization would need a fresh ``newmark_full``
reference (about 60 s for the chain). The run seed draws the 16 evaluation
amplitudes of ``dashpot-roundtrip``.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from steadystate import bench, gss, oracle, serialize
from steadystate.model import build_system

FORCING_SEED = 42

NMTE_LIMIT = 0.03  # criterion 4
PADE_NMTE_LIMIT = 0.05  # criterion 7
FRC_LIMIT = 0.02  # criterion 8
ORACLE_AGREEMENT = 1e-8  # in-run oracle against its stored reference
FRC_DELTA = 4.0
FRC_DOF = 4


def _s1_chain(n, c=0.1):
    return bench.build_oscillator_chain(n, m=0.1, k_lin=100.0, c=c, kappa3=2500.0)


def _s1_forcing(spec):
    n = spec["n"]
    return bench.generate_forcing(
        "filtered_gaussian",
        n=n,
        duration=spec["duration"],
        dt=0.001,
        delta=2.8,
        seed=FORCING_SEED,
        f_cut=7.5,
        pad=spec["pad"],
        dofs=(0, n - 1),
    )


def quiet(fn, *args, **kwargs):
    """Call fn with the package's UserWarnings (divergence hints) muted,
    as the acceptance tests do."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fn(*args, **kwargs)


def nmte_decimated(traj, ref, pad, step):
    """NMTE of a full trajectory against a reference stored every step-th
    sample from the end of the pad: the mean error over the stored samples
    over the sup norm of the full reference, which a decimated record
    would underestimate."""
    diff = np.linalg.norm(traj[:, pad::step] - ref["traj"], axis=0)
    return float(diff.mean() / ref["scale"])


# ----------------------------------------------------------------- speed probes

# The reference machine runs code in fast and slow phases (under a second
# to half a minute, independently per vCPU, with CPU time equal to wall
# time). A loop of small NumPy calls takes up to 1.9x longer in a slow
# phase, vectorized NumPy about 1.2x. A workload with a probe times it
# right before and after each solve and each setup slice (worker.py), and
# scales those times by ref_s / mean(probe times): its solve_s and setup_s
# are the times at the probe's fast-phase speed on the reference machine,
# ref_s. A probe is fixed work of the kind the workload's solve is made of.


@dataclass(frozen=True)
class Probe:
    run: Callable
    ref_s: float


# a damped 2x2 step and a unit-variance drive, the shapes of the
# near-critical kernel loop
_PROBE_E = np.array([[0.999, 0.001], [-0.001, 0.998]])
_PROBE_Q = np.array([[1e-6, 2e-6], [1e-3, 1e-3]])
_PROBE_U = np.random.default_rng(0).standard_normal(5000)


def _recursion():
    """5,000 steps of a 2x2 recursion, a few small-array NumPy calls per
    step, like the near-critical loop in kernel._oscillator_trajectories."""
    state = np.zeros(2)
    for k in range(1, len(_PROBE_U)):
        state = _PROBE_E @ state + _PROBE_Q[:, 0] * _PROBE_U[k - 1] + _PROBE_Q[:, 1] * _PROBE_U[k]
    return state


_PROBE_V = np.random.default_rng(0).standard_normal(200_000)


def _vector():
    """25 vectorized passes over 200,000 floats (1.6 MB)."""
    for _ in range(25):
        out = np.sin(_PROBE_V) * _PROBE_V
    return out


RECURSION_PROBE = Probe(_recursion, ref_s=0.02)
VECTOR_PROBE = Probe(_vector, ref_s=0.085)


# ---------------------------------------------------------------- trajectories


def setup_chain_noise(spec, seed):
    return {"system": _s1_chain(spec["n"]), "forcing": _s1_forcing(spec)}


def setup_duffing_critical(spec, seed):
    forcing = bench.generate_forcing(
        "filtered_gaussian",
        n=1,
        duration=spec["duration"],
        dt=0.001,
        delta=0.5,
        seed=FORCING_SEED,
        f_cut=2.0,
        pad=spec["pad"],
    )
    return {"system": bench.build_duffing(zeta=1.0, kappa3=1.0), "forcing": forcing}


def solve_trajectory(inputs, spec, workdir):
    forcing = inputs["forcing"]
    expansion = quiet(gss.compute_taylor_gss, inputs["system"], forcing, spec["order"])
    return {"traj": gss.evaluate_at_amplitude(expansion, forcing.max_magnitude)}


def check_trajectory(inputs, answer, spec, ref):
    forcing = inputs["forcing"]
    traj = answer["traj"]
    problems = []
    if not np.all(np.isfinite(traj)):
        problems.append("trajectory is not finite")
    err = nmte_decimated(traj, ref, forcing.pad_length, spec["decimate"])
    if not err <= NMTE_LIMIT:
        problems.append(f"nmte {err:.4g} above {NMTE_LIMIT}")
    return {"oracle_err": err}, problems


def reference_trajectory(inputs, spec):
    forcing = inputs["forcing"]
    full = oracle.newmark_full(inputs["system"], forcing, newton_tol=spec["newton_tol"])
    pad = forcing.pad_length
    return {
        "traj": full[:, pad :: spec["decimate"]],
        "scale": np.linalg.norm(full[:, pad:], axis=0).max(),
    }


# ------------------------------------------------------------------- frc-chain


def setup_frc_chain(spec, seed):
    return {
        "system": _s1_chain(spec["n"], c=3.0),
        "omega": np.linspace(7.0, 16.3, spec["points"]),
    }


def sweep(inputs, spec, threads):
    return quiet(
        bench.frc_sweep,
        inputs["system"],
        inputs["omega"],
        delta=FRC_DELTA,
        order=spec["order"],
        harmonic_budget=5,
        threads=threads,
        dofs=(FRC_DOF,),
    )


def solve_frc(inputs, spec, workdir):
    return {"sweep": sweep(inputs, spec, 1)}


def frc_rel_err(amplitude, ref_amplitude):
    """Largest relative amplitude error over coordinates above 1% of the
    point's largest reference amplitude, as in criterion 8."""
    worst = 0.0
    for amp, amp_ref in zip(amplitude, ref_amplitude):
        mask = amp_ref > 0.01 * amp_ref.max()
        worst = max(worst, float((np.abs(amp - amp_ref)[mask] / amp_ref[mask]).max()))
    return worst


def check_frc(inputs, answer, spec, ref):
    result = answer["sweep"]
    problems = []
    flagged = [f for f in result.flags if f is not None]
    if flagged:
        problems.append(f"{len(flagged)} NearResonance flags: {flagged[0]}")
    err = frc_rel_err(result.amplitude, ref["amplitude"])
    if not err <= FRC_LIMIT:
        problems.append(f"frc_rel_err {err:.4g} above {FRC_LIMIT}")
    metrics = {"oracle_err": err, "sweep_points": len(result.omega), "sweep_flagged": len(flagged)}
    return metrics, problems


def reference_frc(inputs, spec):
    """Newmark steady amplitudes per point after settle_time, as in
    criterion 8."""
    system = inputs["system"]
    spp = 256
    out = []
    for w in inputs["omega"]:
        period = 2.0 * np.pi / w
        dt = period / spp
        T = (int(np.ceil(spec["settle_time"] / period)) + 2) * spp + 1
        samples = np.zeros((T, system.n))
        samples[:, FRC_DOF] = FRC_DELTA * np.sin(w * dt * np.arange(T))
        ref = oracle.newmark_full(system, bench.load_forcing(samples, dt=dt))
        out.append(np.abs(ref[:, -spp:]).max(axis=1))
    return {"amplitude": np.array(out)}


# ---------------------------------------------------------- dashpot-roundtrip


def setup_dashpot_roundtrip(spec, seed):
    chain = _s1_chain(spec["n"])
    C = chain.C.copy()
    C[0, 0] += 0.5
    terms = [
        (exponents, dof, float(c))
        for exponents, coeff in chain.nonlinearity.terms
        for dof, c in enumerate(np.asarray(coeff))
        if c != 0.0
    ]
    system = build_system(chain.M, C, chain.K, terms=terms)
    amplitudes = np.sort(np.random.default_rng(seed).uniform(0.5, 3.5, 16))
    return {"system": system, "forcing": _s1_forcing(spec), "amplitudes": amplitudes}


def solve_dashpot(inputs, spec, workdir):
    """compute -> archive -> load -> pade -> archive -> load -> evaluate."""
    forcing = inputs["forcing"]
    L, M = spec["pade"]
    start = time.perf_counter()
    expansion = quiet(gss.compute_taylor_gss, inputs["system"], forcing, spec["order"])
    traj = gss.evaluate_at_amplitude(expansion, forcing.max_magnitude)
    compute_s = time.perf_counter() - start
    exp_dir = os.path.join(workdir, "expansion")
    pade_dir = os.path.join(workdir, "pade")
    serialize.save_expansion(expansion, exp_dir)
    loaded = serialize.load_expansion(exp_dir)
    pade = gss.pade_resum(loaded, L, M)
    serialize.save_pade(pade, pade_dir)
    loaded_pade = serialize.load_pade(pade_dir)
    taylor = [gss.evaluate_at_amplitude(loaded, a) for a in inputs["amplitudes"]]
    rational = [gss.evaluate_pade(loaded_pade, a) for a in inputs["amplitudes"]]
    return {
        "traj": traj,
        "pade_traj": gss.evaluate_pade(loaded_pade, forcing.max_magnitude),
        "expansion": expansion,
        "pade": pade,
        "taylor": taylor,
        "rational": rational,
        "compute_s": compute_s,
    }


def live_oracle_dashpot(inputs, spec, ref):
    """One timed newmark_full run on the record, once per run; it must
    match the stored reference, and the answers are checked against it."""
    forcing = inputs["forcing"]
    start = time.perf_counter()
    reference = oracle.newmark_full(inputs["system"], forcing, newton_tol=spec["newton_tol"])
    oracle_s = time.perf_counter() - start
    stored = ref["traj"]
    drift = np.abs(reference[:, forcing.pad_length :: spec["decimate"]] - stored).max()
    drift /= np.abs(stored).max()
    problems = []
    if not drift <= ORACLE_AGREEMENT:
        problems.append(f"newmark_full moved {drift:.3g} from its stored reference")
    record = {"oracle_s": oracle_s, "oracle_steps": forcing.length - 1}
    return (record, {"oracle": reference}), problems


def check_dashpot(inputs, answer, spec, ref):
    """The round trip bit for bit, then both answers against the run's
    newmark_full trajectory."""
    pad = inputs["forcing"].pad_length
    problems = []
    for a, taylor, rational in zip(inputs["amplitudes"], answer["taylor"], answer["rational"]):
        if not np.array_equal(taylor, gss.evaluate_at_amplitude(answer["expansion"], a)):
            problems.append(f"reloaded expansion differs at amplitude {a:.4g}")
        if not np.array_equal(rational, gss.evaluate_pade(answer["pade"], a)):
            problems.append(f"reloaded Pade fit differs at amplitude {a:.4g}")
    err = bench.nmte(answer["traj"], ref["oracle"], skip=pad)
    pade_err = bench.nmte(answer["pade_traj"], ref["oracle"], skip=pad)
    if not err <= NMTE_LIMIT:
        problems.append(f"nmte {err:.4g} above {NMTE_LIMIT}")
    if not pade_err <= PADE_NMTE_LIMIT:
        problems.append(f"pade_nmte {pade_err:.4g} above {PADE_NMTE_LIMIT}")
    metrics = {"oracle_err": err, "pade_nmte": pade_err, "compute_s": answer["compute_s"]}
    return metrics, problems


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """sizes maps 'full' and 'tiny' to the parameters of one size. setup
    takes (spec, seed), solve (inputs, spec, workdir), check (inputs,
    answer, spec, ref), reference (inputs, spec); live_oracle, where set,
    runs once per run as (inputs, spec, ref) before the timed loop; probe,
    where set, scales the workload's solve_s and setup_s (see "speed
    probes")."""

    name: str
    sizes: dict
    setup: Callable
    solve: Callable
    check: Callable
    reference: Callable
    live_oracle: Callable | None = None
    probe: Probe | None = None

    def spec(self, size):
        return dict(self.sizes[size])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-noise",
            {
                "full": dict(n=20, duration=100.0, pad=1000, order=10, decimate=100, newton_tol=1e-10),
                "tiny": dict(n=4, duration=1.0, pad=100, order=4, decimate=10, newton_tol=1e-10),
            },
            setup_chain_noise,
            solve_trajectory,
            check_trajectory,
            reference_trajectory,
            probe=VECTOR_PROBE,
        ),
        Workload(
            "duffing-critical",
            {
                # newton_tol 1e-8: at dt = 1e-3 the default 1e-10 x 0.5 lies below
                # the residual's rounding floor (c0 eps |x| ~ 2e-10), and Newton
                # stalls on the 100 s record (step 21,191). Duration 20, not 100:
                # each solve must be short next to the host's phases for the
                # probe to scale it.
                "full": dict(duration=20.0, pad=1000, order=5, decimate=10, newton_tol=1e-8),
                "tiny": dict(duration=2.0, pad=100, order=3, decimate=10, newton_tol=1e-8),
            },
            setup_duffing_critical,
            solve_trajectory,
            check_trajectory,
            reference_trajectory,
            probe=RECURSION_PROBE,
        ),
        Workload(
            "frc-chain",
            {
                "full": dict(n=20, points=24, order=5, settle_time=30.0),
                "tiny": dict(n=6, points=3, order=3, settle_time=5.0),
            },
            setup_frc_chain,
            solve_frc,
            check_frc,
            reference_frc,
            probe=VECTOR_PROBE,
        ),
        Workload(
            "dashpot-roundtrip",
            {
                "full": dict(n=20, duration=10.0, pad=1000, order=10, pade=[5, 5], decimate=10, newton_tol=1e-10),
                "tiny": dict(n=4, duration=0.5, pad=100, order=4, pade=[2, 2], decimate=10, newton_tol=1e-10),
            },
            setup_dashpot_roundtrip,
            solve_dashpot,
            check_dashpot,
            reference_trajectory,
            live_oracle_dashpot,
        ),
    )
}
