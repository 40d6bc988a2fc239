"""Benchmark systems, forcing generators, and response metrics.

The builders return ready MechanicalSystem objects used across the test
suite and the example scripts; the forcing generators produce seeded,
reproducible ForcingSignal grids. Amplitude semantics of `delta` per
kind: chirp, two_tone and rossler scale each target dof's waveform to
peak amplitude delta; filtered_gaussian rescales so the sup over time
of the row 2-norm equals delta exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCutoff, InvalidParameters, NearResonance
from .gss import compute_taylor_gss, evaluate_at_amplitude
from .model import (
    ForcingSignal, MechanicalSystem, _check_dt, _check_int, build_system, load_forcing,
)

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
    """Sampled Rossler components after discarding the transient window."""
    a, b, c = 0.2, 0.2, 5.7
    rng = np.random.default_rng(seed)
    state = np.array([1.0, 1.0, 1.0]) + 0.01 * rng.standard_normal(3)

    def deriv(s):
        return np.array([-s[1] - s[2], s[0] + a * s[1], b + s[2] * (s[0] - c)])

    n_skip = int(round(skip_time / dt))
    n_keep = int(round(duration / dt)) + 1
    out = np.empty((n_keep, len(components)))
    for k in range(n_skip + n_keep):
        if k >= n_skip:
            out[k - n_skip] = state[components]
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * dt * k1)
        k3 = deriv(state + 0.5 * dt * k2)
        k4 = deriv(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def _target_dofs(dofs, n):
    """The forced dofs as a list of ints, every dof for None; raises
    InvalidParameters unless each one is an integer in 0..n-1."""
    targets = list(range(n) if dofs is None else dofs)
    for d in targets:
        _check_int(d, f"each of dofs {targets!r}", 0, n - 1)
    return [int(d) for d in targets]


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
    selects the target indices (default: all), integers in 0..n-1;
    other columns are zero.
    seed, a non-negative integer or None, seeds the random kinds.
    duration is the unpadded signal length in time units; pad leading
    zero rows are prepended by the signal container; a grid of over
    2^31 samples raises InvalidParameters.

    chirp:             sin(2 pi (rate t^2 / 2 + f0 t)); params f0, rate
    filtered_gaussian: white noise low-passed at f_cut (Hz), exact sup
                       row-norm delta; raises InvalidCutoff unless
                       0 < f_cut < Nyquist
    rossler:           chaotic components (cycling x, y, z per dof),
                       100 time units of transient discarded, each
                       column peak-normalized to delta
    two_tone:          delta (sin w1 t + sin w2 t) / 2; params w1, w2
    """
    if n < 1 or not 0 < duration < np.inf:
        raise InvalidParameters(f"need n >= 1 and a finite duration > 0, got {n}, {duration}")
    _check_dt(dt)
    targets = _target_dofs(dofs, n)
    if seed is not None:
        _check_int(seed, "seed", 0)
    if not duration / dt < 2**31:  # 16 GiB a column, refused before allocating
        raise InvalidParameters(f"duration / dt = {duration / dt:.3g} asks for over 2^31 samples")
    T = int(round(duration / dt)) + 1
    t = dt * np.arange(T)
    samples = np.zeros((T, n))

    if kind == "chirp":
        f0 = params.pop("f0", 0.1)
        rate = params.pop("rate", 0.05)
        wave = delta * np.sin(2.0 * np.pi * (0.5 * rate * t * t + f0 * t))
        for d in targets:
            samples[:, d] = wave
    elif kind == "two_tone":
        w1 = params.pop("w1", 1.0)
        w2 = params.pop("w2", np.sqrt(2.0))
        wave = 0.5 * delta * (np.sin(w1 * t) + np.sin(w2 * t))
        for d in targets:
            samples[:, d] = wave
    elif kind == "filtered_gaussian":
        f_cut = params.pop("f_cut", None)
        if f_cut is None:
            raise InvalidParameters("filtered_gaussian needs f_cut")
        nyquist = 0.5 / dt
        if not 0.0 < f_cut < nyquist:
            raise InvalidCutoff(f"f_cut {f_cut} outside (0, {nyquist})")
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((T, len(targets)))
        freqs = np.fft.rfftfreq(T, d=dt)
        spec = np.fft.rfft(noise, axis=0)
        spec[freqs > f_cut] = 0.0
        smooth = np.fft.irfft(spec, n=T, axis=0)
        block = np.zeros((T, n))
        block[:, targets] = smooth
        sup = np.linalg.norm(block, axis=1).max()
        if sup == 0.0:
            raise InvalidCutoff("filter removed the whole signal")
        samples = block * (delta / sup)
    elif kind == "rossler":
        comps = [d % 3 for d in range(len(targets))]
        raw = _rossler_series(duration, dt, seed, comps)
        for j, d in enumerate(targets):
            col = raw[:, j]
            peak = np.abs(col).max()
            samples[:, d] = delta * col / peak if peak > 0 else 0.0
    else:
        raise InvalidParameters(f"unknown forcing kind {kind!r}")
    if params:
        raise InvalidParameters(f"unused parameters for {kind}: {sorted(params)}")
    return load_forcing(samples, dt=dt, pad_length=pad)


def nmte(pred: np.ndarray, ref: np.ndarray, skip: int = 0) -> float:
    """Normalized mean trajectory error over samples from index `skip` on.

    mean_t |pred - ref|_2 / max_t |ref|_2, both trajectories (dim, T).
    """
    pred = np.asarray(pred)
    ref = np.asarray(ref)
    if pred.shape != ref.shape:
        raise InvalidParameters(f"shape mismatch {pred.shape} vs {ref.shape}")
    diff = np.linalg.norm(pred[:, skip:] - ref[:, skip:], axis=0)
    scale = np.linalg.norm(ref[:, skip:], axis=0).max()
    if scale == 0.0:
        return 0.0 if diff.max() == 0.0 else float("inf")
    return float(diff.mean() / scale)


@dataclass(frozen=True)
class FrcResult:
    """Forced-response sweep: per grid frequency, the steady amplitude of
    every state coordinate (max |coordinate| over one forcing period),
    with flags[i] carrying the resonance message for skipped points
    (amplitudes NaN there)."""

    omega: np.ndarray
    amplitude: np.ndarray  # (len(omega), state_dim)
    flags: tuple
    delta: float
    order: int


_FRC_SAMPLES_PER_PERIOD = 256


def _frc_point(system, omega, delta, order, harmonic_budget, resonance_tol, dofs):
    """The steady amplitudes at one frequency, solved on one forcing
    period of _FRC_SAMPLES_PER_PERIOD samples, endpoint excluded. The
    'qp' orbit is exactly periodic, so no transient period precedes it,
    and on this grid the harmonic fit is the exact discrete Fourier
    transform. Each of the forced dofs is driven by delta sin(omega t), so
    the expansion is evaluated at the forcing's sup row norm."""
    dt = 2.0 * np.pi / omega / _FRC_SAMPLES_PER_PERIOD
    t = dt * np.arange(_FRC_SAMPLES_PER_PERIOD)
    samples = np.zeros((_FRC_SAMPLES_PER_PERIOD, system.n))
    for d in dofs:
        samples[:, d] = delta * np.sin(omega * t)
    forcing = load_forcing(samples, dt=dt)
    expansion = compute_taylor_gss(
        system,
        forcing,
        order,
        backend="qp",
        base_frequencies=(omega,),
        harmonic_budget=harmonic_budget,
        resonance_tol=resonance_tol,
        check_divergence=False,
    )
    return np.abs(evaluate_at_amplitude(expansion, forcing.max_magnitude)).max(axis=1)


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

    Each grid point gets its own grid, one forcing period of 256
    samples, and a closed-form quasiperiodic solve at the given order;
    points that trip the resonance guard are flagged and reported as NaN
    rather than aborting the sweep. dofs selects the forced dofs
    (default: all), integers in 0..n-1. threads, an integer >= 1, has no
    effect: the points are solved one after another.

    Raises InvalidParameters before any point is solved unless every
    frequency is finite and > 0, delta is finite, the dofs and threads
    are valid and harmonic_budget is an integer >= 0 below 128: 2 budget
    + 1 harmonics from 128 on would not all be told apart on 256 samples.
    """
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if not np.all(np.isfinite(omega_grid) & (omega_grid > 0)):
        raise InvalidParameters(
            f"omega_grid must hold finite frequencies > 0, got {omega_grid.tolist()}"
        )
    if not np.isfinite(delta):
        raise InvalidParameters(f"delta must be finite, got {delta!r}")
    dofs = _target_dofs(dofs, system.n)
    _check_int(threads, "threads", 1)
    _check_int(harmonic_budget, "harmonic_budget", 0)
    # on the period's samples, harmonics k and k +- 256 are one column of the fit
    harmonics = 2 * harmonic_budget + 1
    if harmonics > _FRC_SAMPLES_PER_PERIOD:
        raise InvalidParameters(
            f"harmonic_budget {harmonic_budget} asks for {harmonics} harmonics on the "
            f"{_FRC_SAMPLES_PER_PERIOD} samples of a sweep point's period, where harmonics "
            f"k and k +- {_FRC_SAMPLES_PER_PERIOD} would share one column of the fit"
        )

    amplitude = np.full((len(omega_grid), system.state_dim), np.nan)
    flags = [None] * len(omega_grid)
    for i, omega in enumerate(omega_grid):
        try:
            amplitude[i] = _frc_point(
                system, omega, delta, order, harmonic_budget, resonance_tol, dofs
            )
        except NearResonance as exc:
            flags[i] = str(exc)
    return FrcResult(
        omega=omega_grid,
        amplitude=amplitude,
        flags=tuple(flags),
        delta=delta,
        order=order,
    )
