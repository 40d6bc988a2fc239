"""Benchmark systems, forcing generators, and response metrics.

The builders return ready MechanicalSystem objects used across the test
suite and the example scripts; the forcing generators produce seeded,
reproducible ForcingSignal grids. Amplitude semantics of `delta` per
kind: chirp, two_tone and rossler scale each target dof's waveform to
peak amplitude delta; filtered_gaussian rescales so the sup over time
of the row 2-norm equals delta exactly. Only filtered_gaussian needs an
FFT, so it alone imports scipy.fft, on its first record: importing the
package, sweeps and solves on given records load no FFT stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySignal, InvalidCutoff, InvalidParameters
from .gss import _FRC_SAMPLES_PER_PERIOD, _check_resonance_tol, _qp_sweep

# Not called here since the sweep is one batched solve (_qp_sweep), but kept
# importable: perfbench's tracer wraps the first two on this module (see
# tests/test_tracer_contract.py), and its frc-chain reference calls load_forcing.
from .gss import compute_taylor_gss, evaluate_at_amplitude  # noqa: F401
from .model import (
    ForcingSignal,
    MechanicalSystem,
    _check_dt,
    _check_int,
    _forcing_signal,
    build_system,
)
from .model import load_forcing  # noqa: F401

__all__ = [
    "build_oscillator_chain",
    "build_duffing",
    "build_gyroscopic_2dof",
    "generate_forcing",
    "nmte",
    "FrcResult",
    "frc_sweep",
]


def build_duffing(
    omega: float = 1.0, zeta: float = 0.05, kappa3: float = 1.0, m: float = 1.0
) -> MechanicalSystem:
    """Single dof with cubic stiffening: x'' + 2 zeta w x' + w^2 x + k3 x^3."""
    M = np.array([[m]])
    K = np.array([[m * omega * omega]])
    C = np.array([[2.0 * zeta * omega * m]])
    terms = [((3, 0), 0, m * kappa3)] if kappa3 != 0.0 else []
    return build_system(M, C, K, terms=terms)


def build_oscillator_chain(
    n: int,
    m: float = 1.0,
    k_lin: float = 1.0,
    c: float = 0.05,
    kappa3: float = 0.5,
) -> MechanicalSystem:
    """Grounded chain of n masses with cubic coupling springs.

    Linear part: K = k_lin * tridiag(-1, 2, -1) (both ends grounded),
    C = (c / k_lin) K, so the damping is stiffness-proportional with
    zeta_j = (c / k_lin) omega_j / 2. Each linear spring carries a cubic
    correction kappa3 * (stretch)^3: relative stretches between
    neighbors and the two ground attachments. The field is written on
    the n + 1 stretches as its forms, one cube each; its terms are the
    58 monomials of the same force at n = 20.
    """
    if n < 1:
        raise InvalidParameters(f"chain needs n >= 1, got {n}")
    M = m * np.eye(n)
    K = k_lin * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    C = (c / k_lin) * K

    if kappa3 == 0.0:
        return build_system(M, C, K)
    # one form per spring, its stretch: the ground springs at both ends
    # and one between each pair of neighbors
    springs = [(0, None)] + [(i, i + 1) for i in range(n - 1)] + [(n - 1, None)]
    forms = np.zeros((len(springs), 2 * n))
    terms = []
    for s, (i, j) in enumerate(springs):
        # kappa3 (x_i - x_j)^3 pulling dof i (+) and dof j (-)
        force = np.zeros(n)
        forms[s, i] = force[i] = 1.0
        if j is not None:
            forms[s, j] = force[j] = -1.0
        exponents = [0] * len(springs)
        exponents[s] = 3
        terms.append((exponents, kappa3 * force))
    return build_system(M, C, K, terms=terms, forms=forms)


def build_gyroscopic_2dof(
    k1: float = 1.0,
    k2: float = 2.25,
    c: float = 0.1,
    g: float = 0.4,
    kappa3: float = 0.0,
) -> MechanicalSystem:
    """Two dofs with circulatory coupling: C = [[c, g], [-g, c]].

    The skew part makes the damping non-Rayleigh, which exercises the
    general (non-structural) decomposition. Optional cubic on dof 0.
    """
    M = np.eye(2)
    K = np.array([[k1, 0.0], [0.0, k2]])
    C = np.array([[c, g], [-g, c]])
    terms = [((3, 0, 0, 0), 0, kappa3)] if kappa3 != 0.0 else []
    return build_system(M, C, K, terms=terms)


def _rossler_series(duration, dt, seed, components, skip_time=100.0):
    """Sampled Rossler components after discarding the transient window.

    Classical RK4 on Python floats, one scalar per coordinate, in the
    operation order of the vector form: k2 = f(s + (dt/2) k1), and so on,
    then s + (dt/6) (k1 + 2 k2 + 2 k3 + k4).
    """
    a, b, c = 0.2, 0.2, 5.7
    rng = np.random.default_rng(seed)
    x, y, z = (np.array([1.0, 1.0, 1.0]) + 0.01 * rng.standard_normal(3)).tolist()
    half, sixth = 0.5 * dt, dt / 6.0

    def deriv(x, y, z):
        return -y - z, x + a * y, b + z * (x - c)

    n_skip = int(round(skip_time / dt))
    n_keep = int(round(duration / dt)) + 1
    kept = []
    for k in range(n_skip + n_keep):
        if k >= n_skip:
            kept.append((x, y, z))
        k1x, k1y, k1z = deriv(x, y, z)
        k2x, k2y, k2z = deriv(x + half * k1x, y + half * k1y, z + half * k1z)
        k3x, k3y, k3z = deriv(x + half * k2x, y + half * k2y, z + half * k2z)
        k4x, k4y, k4z = deriv(x + dt * k3x, y + dt * k3y, z + dt * k3z)
        x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)
        z = z + sixth * (k1z + 2 * k2z + 2 * k3z + k4z)
    return np.ascontiguousarray(np.array(kept)[:, components])


def _target_dofs(dofs, n):
    """The forced dofs as a list of ints, every dof for None; raises
    InvalidParameters unless they are one or more distinct integers in
    0..n-1."""
    targets = list(range(n) if dofs is None else dofs)
    if not targets:
        raise InvalidParameters("dofs must name at least one dof, got none")
    for d in targets:
        _check_int(d, f"each of dofs {targets!r}", 0, n - 1)
    if len(set(targets)) < len(targets):
        raise InvalidParameters(f"dofs must be distinct, got {targets!r}")
    return [int(d) for d in targets]


def _waveform_params(params, **defaults):
    """Pop each named waveform parameter from params, its default when
    absent; InvalidParameters names the first one that is not finite."""
    values = []
    for name, default in defaults.items():
        value = params.pop(name, default)
        if not np.isfinite(value):
            raise InvalidParameters(f"{name} must be finite, got {value!r}")
        values.append(value)
    return values


def generate_forcing(
    kind: str,
    n: int,
    duration: float,
    dt: float,
    delta: float,
    seed: int | None = None,
    pad: int = 0,
    dofs=None,
    **params,
) -> ForcingSignal:
    """Reproducible forcing grids on a uniform grid of step dt.

    kind: 'chirp', 'filtered_gaussian', 'rossler', or 'two_tone'. dofs
    selects the target indices (default: all), one or more distinct
    integers in 0..n-1; other columns are zero. delta must be finite.
    seed, a non-negative integer or None, seeds the random kinds.
    duration is the unpadded signal length in time units; pad leading
    zero rows are prepended by the signal container; a grid of over
    2^31 samples raises InvalidParameters, one of fewer than 2 samples
    (duration / dt rounds to 0) EmptySignal.

    chirp:             sin(2 pi (rate t^2 / 2 + f0 t)); params f0, rate
    filtered_gaussian: white noise low-passed at f_cut (Hz), exact sup
                       row-norm delta; raises InvalidCutoff unless
                       0 < f_cut < Nyquist
    rossler:           chaotic components (cycling x, y, z per dof),
                       100 time units of transient discarded, each
                       column peak-normalized to delta
    two_tone:          delta (sin w1 t + sin w2 t) / 2; params w1, w2

    A waveform parameter that is not finite raises InvalidParameters,
    naming it, before any sample is made; so does a record whose sup row
    norm overflows float64 (see load_forcing).

    The record is built once: the forced columns as one (T, k) block,
    whose row norms give the filtered_gaussian scale and max_magnitude,
    written straight into the padded read-only samples. The transforms
    are scipy.fft's, imported by the first filtered_gaussian record
    (no other kind loads it). It keeps the plan of a length between
    calls, so the cost follows the FFT length T (a prime factor above 5
    takes the slower chirp-z path). On 1, 2 or all n forced dofs in
    order a row norm is bit-equal to np.linalg.norm(samples, axis=1); on
    3 to n-1 its sum of squares is added in another order, so
    max_magnitude (and the filtered_gaussian scale) can differ from it
    in the last bit.
    """
    if n < 1 or not 0 < duration < np.inf:
        raise InvalidParameters(f"need n >= 1 and a finite duration > 0, got {n}, {duration}")
    _check_dt(dt)
    if not np.isfinite(delta):
        raise InvalidParameters(f"delta must be finite, got {delta!r}")
    targets = _target_dofs(dofs, n)
    if seed is not None:
        _check_int(seed, "seed", 0)
    _check_int(pad, "pad", 0)
    pad = int(pad)
    if not duration / dt < 2**31:  # 16 GiB a column, refused before allocating
        raise InvalidParameters(f"duration / dt = {duration / dt:.3g} asks for over 2^31 samples")
    T = int(round(duration / dt)) + 1
    if T < 2:
        raise EmptySignal(f"duration {duration} at dt {dt} gives {T} sample; need at least 2")
    k = len(targets)

    if kind in ("chirp", "two_tone"):
        t = dt * np.arange(T)
        if kind == "chirp":
            f0, rate = _waveform_params(params, f0=0.1, rate=0.05)
            wave = delta * np.sin(2.0 * np.pi * (0.5 * rate * t * t + f0 * t))
        else:
            w1, w2 = _waveform_params(params, w1=1.0, w2=np.sqrt(2.0))
            wave = 0.5 * delta * (np.sin(w1 * t) + np.sin(w2 * t))
        forced = np.repeat(wave[:, None], k, axis=1)
    elif kind == "filtered_gaussian":
        f_cut = params.pop("f_cut", None)
        if f_cut is None:
            raise InvalidParameters("filtered_gaussian needs f_cut")
        nyquist = 0.5 / dt
        if not 0.0 < f_cut < nyquist:
            raise InvalidCutoff(f"f_cut {f_cut} outside (0, {nyquist})")
        import scipy.fft  # only this kind needs it: kept out of `import steadystate`

        rng = np.random.default_rng(seed)
        spec = scipy.fft.rfft(rng.standard_normal((T, k)), axis=0)
        spec[np.fft.rfftfreq(T, d=dt) > f_cut] = 0.0
        forced = scipy.fft.irfft(spec, n=T, axis=0)
        sup = np.linalg.norm(forced, axis=1).max()
        if sup == 0.0:
            raise InvalidCutoff("filter removed the whole signal")
        forced *= delta / sup
    elif kind == "rossler":
        forced = _rossler_series(duration, dt, seed, [d % 3 for d in range(k)])
        for col in forced.T:
            peak = np.abs(col).max()
            # a delta near the float64 limit overflows: refused below
            with np.errstate(over="ignore"):
                col[:] = delta * col / peak if peak > 0 else 0.0
    else:
        raise InvalidParameters(f"unknown forcing kind {kind!r}")
    if params:
        raise InvalidParameters(f"unused parameters for {kind}: {sorted(params)}")
    if not np.all(np.isfinite(forced)):
        raise InvalidParameters("forcing samples contain non-finite entries")
    samples = np.zeros((pad + T, n))
    samples[pad:, targets] = forced
    # the record starts at t = 0 (0.0 - 0 * dt is +0.0)
    return _forcing_signal(samples, dt, 0.0 - pad * float(dt), pad, forced)


def nmte(pred: np.ndarray, ref: np.ndarray, skip: int = 0) -> float:
    """Normalized mean trajectory error over samples from index `skip` on.

    mean_t |pred - ref|_2 / max_t |ref|_2, both trajectories (dim, T).
    skip must be an integer in 0..T-1 (InvalidParameters otherwise), so
    at least one sample is measured.
    """
    pred = np.asarray(pred)
    ref = np.asarray(ref)
    if pred.shape != ref.shape or pred.ndim != 2:
        raise InvalidParameters(f"need two (dim, T) trajectories, got {pred.shape} vs {ref.shape}")
    _check_int(skip, "skip", 0, pred.shape[1] - 1)
    diff = np.linalg.norm(pred[:, skip:] - ref[:, skip:], axis=0)
    scale = np.linalg.norm(ref[:, skip:], axis=0).max()
    if scale == 0.0:
        return 0.0 if diff.max() == 0.0 else float("inf")
    return float(diff.mean() / scale)


@dataclass(frozen=True)
class FrcResult:
    """Forced-response sweep: per grid frequency, the steady amplitude of
    every state coordinate (max |coordinate| over one forcing period),
    with flags[i] carrying the message of a skipped point, its resonance
    or its series' divergence at delta (amplitudes NaN there)."""

    omega: np.ndarray
    amplitude: np.ndarray  # (len(omega), state_dim)
    flags: tuple
    delta: float
    order: int


def frc_sweep(
    system: MechanicalSystem,
    omega_grid,
    delta: float,
    order: int = 5,
    harmonic_budget: int = 5,
    threads: int = 1,
    resonance_tol: float | None = None,
    dofs=None,
) -> FrcResult:
    """Steady amplitude versus forcing frequency, delta sin(omega t) on
    each forced dof.

    Each grid point is solved by the closed-form quasiperiodic backend at
    the given order from the forcing's harmonics, +-delta / 2i at k =
    +-1, with no period sampled or fit, and its amplitude read on one
    period of 256 samples, endpoint excluded: the orbit is exactly
    periodic, so no transient precedes it. The sweep is one batched solve
    (gss._qp_sweep). Points that trip the resonance guard are flagged,
    with the message a 'qp' compute_taylor_gss of the point's sampled
    period would raise, and reported as NaN rather than aborting the
    sweep. So are points whose series looks divergent at the sweep's sup
    row norm |delta| sqrt(len(dofs)): compute_taylor_gss's divergence
    verdict on each point's orders, order nu's norm the bound max over
    coordinates of sum_k |c_k| of its harmonic coefficients; one
    DivergenceWarning counts them. A budget below the order warns once
    (HarmonicTruncationWarning). dofs selects the forced dofs (default:
    all), integers in 0..n-1. threads, an integer >= 1, has no effect.

    Raises InvalidParameters before any point is solved unless
    omega_grid is a scalar or a 1-D grid of finite frequencies > 0,
    delta is finite and its sup row norm |delta| sqrt(len(dofs)) does
    not overflow float64, order is an integer >= 1, resonance_tol is
    None or finite and > 0 (a NaN or negative tolerance would switch the
    guard off), the dofs and threads are valid and harmonic_budget is an
    integer from 1 to 127: the forcing sits at the harmonics k = +-1,
    outside a budget-0 ball, and 2 budget + 1 harmonics from 128 on
    would not all be told apart on 256 samples.
    """
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if omega_grid.ndim != 1 or not np.all(np.isfinite(omega_grid) & (omega_grid > 0)):
        raise InvalidParameters(
            f"omega_grid must be a 1-D grid of finite frequencies > 0, got {omega_grid.tolist()}"
        )
    if not np.isfinite(delta):
        raise InvalidParameters(f"delta must be finite, got {delta!r}")
    _check_int(order, "order", 1)
    _check_resonance_tol(resonance_tol)
    dofs = _target_dofs(dofs, system.n)
    _check_int(threads, "threads", 1)
    # delta sin(omega t) is the harmonics k = +-1: a budget of 0 drops it
    _check_int(harmonic_budget, "harmonic_budget", 1)
    # on the period's samples, harmonics k and k +- 256 are one column of the phase matrix
    harmonics = 2 * harmonic_budget + 1
    if harmonics > _FRC_SAMPLES_PER_PERIOD:
        raise InvalidParameters(
            f"harmonic_budget {harmonic_budget} asks for {harmonics} harmonics on the "
            f"{_FRC_SAMPLES_PER_PERIOD} samples of a sweep point's period, where harmonics "
            f"k and k +- {_FRC_SAMPLES_PER_PERIOD} would share one column of the phase matrix"
        )

    amplitude, flags = _qp_sweep(system, delta, dofs, order, omega_grid, harmonic_budget,
                                 resonance_tol)
    return FrcResult(
        omega=omega_grid,
        amplitude=amplitude,
        flags=tuple(flags),
        delta=delta,
        order=order,
    )
