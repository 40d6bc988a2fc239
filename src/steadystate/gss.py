"""Generalized steady states: Taylor expansion in the forcing amplitude.

The bounded particular solution of

    B z' = A z + F(z) + G(t),       G(t) = (g(t), 0),

is expanded as z(t; delta) = sum_nu z_nu(t) delta^nu, with coefficients
computed for the unit-sup normalization of the forcing: the stored
order-nu grid is the response coefficient when the physical forcing is
delta times the normalized signal. All orders share one linear flow;
they differ only in the inhomogeneity assembled from lower orders, which
every cascade composes straight into the retained units' modal inputs
(composition.assemble_phi with the basis SpectralData.force_rows).

Two propagation backends share the assembly:

  'kernel'   exponential one-step convolution per retained mode, in
             time blocks (_cascade, shared with reduced_gss: it keeps
             blocks, carries and norms, each solver one step per order)
  'qp'       closed-form bounded orbit for quasiperiodic forcing, with no
             time axis (_harmonic_cascade): the forcing's harmonics of
             the given base frequencies are fit once from a record, or
             written in closed form for a sweep; higher orders compose
             harmonic coefficients by lattice convolution (harmonic
             balance) and each harmonic is mapped through 1/(i<k,Omega>
             - lambda). Exact when the harmonic budget is at least the
             order and the forcing sits on sum |k_i| <= 1; a lower budget
             drops harmonics and warns (HarmonicTruncationWarning). A
             frequency sweep (bench.frc_sweep, _qp_sweep) runs the cascade
             with the points that keep the same modes side by side

Divergent-looking expansions are flagged with DivergenceWarning, never
silently truncated. Amplitude evaluation past the radius of convergence
is the job of the rational resummation below (pade_resum).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .composition import (
    CoefficientTensor,
    CompositionCache,
    assemble_phi,
    compose_field,
)
from .errors import (
    DenominatorNearZero,
    DimensionMismatch,
    DivergenceWarning,
    HarmonicFitIllConditioned,
    HarmonicTruncationWarning,
    InvalidParameters,
    NearResonance,
    UnstableLinearPart,
)
from .kernel import (
    _CHUNK,
    Carry,
    _enforce_real,
    _modal_response,
    build_kernel_weights,
    propagate_order,
)
from .model import ForcingSignal, MechanicalSystem, ReducedModel, _check_int
from .spectral import (
    _STABILITY_TOL,
    SpectralData,
    decompose_general,
    decompose_structural,
    select_modes,
    with_retained,
)

__all__ = [
    "GssExpansion",
    "compute_taylor_gss",
    "evaluate_at_amplitude",
    "evaluate_at_amplitudes",
    "PadeGss",
    "pade_resum",
    "evaluate_pade",
    "evaluate_pade_at_amplitudes",
    "reduced_gss",
    "fit_harmonics",
]

_BACKENDS = ("kernel", "qp")
# samples per time block of the cascade: every order is composed and
# propagated one block at a time, so composition products and per-order
# temporaries stay block-length and in cache; the kernel's own block, so
# that propagate_order runs each cascade block in one piece
_BLOCK = _CHUNK


@dataclass(frozen=True)
class GssExpansion:
    """One computed amplitude expansion.

    tensor holds the per-order coefficient grids for the unit-sup
    normalized forcing; delta_ref is the reference amplitude (the
    forcing's own sup norm unless overridden), which also scales the
    rational resummation below. cache_stats records product reuse in the
    composition stage, counted in rows of products: hits and misses
    summed over the time blocks of the run, entries the rows of one
    block's product store.
    """

    system: MechanicalSystem
    spectral: SpectralData
    tensor: CoefficientTensor
    order: int
    backend: str
    delta_ref: float
    forcing_sup: float
    eps_trunc: float
    cache_stats: dict

    @property
    def state_dim(self):
        return self.tensor.state_dim

    @property
    def length(self):
        return self.tensor.length


@functools.lru_cache(maxsize=None)
def _harmonic_ball(dims: int, budget: int):
    """Integer vectors with sum(|k_i|) <= budget, deterministic order;
    built once per (dims, budget)."""
    rng = range(-budget, budget + 1)
    out = [k for k in itertools.product(rng, repeat=dims) if sum(abs(x) for x in k) <= budget]
    return tuple(sorted(out))


# pair products per chunk of rows in a lattice product: 128 KiB of complex
_LATTICE_TERMS = 8192


@functools.lru_cache(maxsize=None)
def _lattice_product(dims: int, budget: int):
    """The product of two Fourier series on _harmonic_ball(dims, budget).

    Returns product(a, b) for coefficient arrays of one shape whose last
    axis holds P >= 1 sets of the ball's K coefficients side by side:
    in each set, out[..., l] sums a[..., i] b[..., j] over the index
    pairs with k_i + k_j = k_l, and sums that leave the ball are dropped
    (a truncated lattice convolution). Each row of K is summed as on its
    own, so a batch of rows (see composition._product) or of sets (a
    sweep's points, _qp_sweep) keeps every row's bits. The rows run in
    chunks of at most _LATTICE_TERMS pair products, so a large batch's
    temporaries stay in cache instead of paging through fresh memory.
    Built once per (dims, budget).
    """
    ks = _harmonic_ball(dims, budget)
    index = {k: l for l, k in enumerate(ks)}
    triples = []
    for i, ki in enumerate(ks):
        for j, kj in enumerate(ks):
            l = index.get(tuple(x + y for x, y in zip(ki, kj)))
            if l is not None:
                triples.append((l, i, j))
    out, left, right = np.array(sorted(triples)).T
    starts = np.flatnonzero(np.diff(out, prepend=-1))
    chunk = max(1, _LATTICE_TERMS // len(left))

    def product(a, b):
        rows_a, rows_b = a.reshape(-1, len(ks)), b.reshape(-1, len(ks))
        rows = np.empty(rows_a.shape, dtype=np.result_type(a, b))
        for s in range(0, len(rows), chunk):
            block = slice(s, s + chunk)
            rows[block] = np.add.reduceat(
                rows_a[block, left] * rows_b[block, right], starts, axis=-1
            )
        return rows.reshape(a.shape)

    return product


def _ball_frequencies(base_frequencies, budget):
    """The frequencies kappa = <k, Omega> of _harmonic_ball(len(Omega),
    budget), in its order, read-only: a 'qp' solve checks, guards and
    fits the same ball, and builds it once (_ball_frequencies_of)."""
    Omega = np.atleast_1d(np.asarray(base_frequencies, dtype=float))
    return _ball_frequencies_of(tuple(Omega.tolist()), budget)


@functools.lru_cache(maxsize=8)
def _ball_frequencies_of(Omega: tuple, budget: int) -> np.ndarray:
    kappas = np.array(_harmonic_ball(len(Omega), budget), dtype=float) @ np.array(Omega)
    kappas.flags.writeable = False
    return kappas


_FIT_CONDITION_LIMIT = 1e10


def fit_harmonics(
    rows: np.ndarray, times: np.ndarray, base_frequencies, budget: int = 5, phases=None
):
    """Least-squares harmonic coefficients of sampled rows.

    rows: (m, T) real or complex samples; returns (kappas, coeffs) with
    coeffs of shape (m, K) such that rows ~ coeffs @ exp(i kappa t), over
    the index ball sum |k_i| <= budget of the base frequencies (kappas
    read-only, see _ball_frequencies). A 'qp' compute_taylor_gss calls
    it once, on the order-1 forcing rows of its record; higher orders are
    composed from these coefficients, never fit. phases, the
    (K, T) matrix exp(i kappa t) on times, is used as the design matrix
    when the caller already holds it.

    Warns HarmonicFitIllConditioned when the (T, K) design matrix's
    condition number, the ratio of its extreme singular values, passes
    1e10, or when T < K: harmonics it cannot tell apart then share the
    signal arbitrarily. On whole periods of one base frequency, sampled
    without the endpoint and with T >= K, the fit is the discrete
    Fourier transform and the condition number is 1. Arguments that a
    'qp' solve refuses raise InvalidParameters (_qp_base_frequencies).
    """
    kappas = _ball_frequencies(_qp_base_frequencies(base_frequencies, budget), budget)
    A = np.exp(1j * np.outer(times, kappas)) if phases is None else phases.T  # (T, K)
    coeffs, _, _, svals = np.linalg.lstsq(A, np.asarray(rows).T, rcond=None)
    cond = svals[0] / svals[-1] if A.shape[0] >= A.shape[1] and svals[-1] > 0.0 else np.inf
    if not cond <= _FIT_CONDITION_LIMIT:
        warnings.warn(
            f"harmonic fit of {A.shape[1]} harmonics on {A.shape[0]} samples has condition "
            f"number {cond:.3g}, above {_FIT_CONDITION_LIMIT:.0e}: harmonics it cannot tell "
            "apart share the signal arbitrarily; fit a longer record or a smaller budget",
            HarmonicFitIllConditioned,
        )
    return kappas, coeffs.T


def _qp_base_frequencies(base_frequencies, budget):
    """The 'qp' arguments checked: returns the base frequencies as a float
    array, or raises InvalidParameters unless they are non-empty, finite
    and > 0, no two harmonics of the ball share a frequency, and the
    budget is an int >= 0."""
    if base_frequencies is None:
        raise InvalidParameters("qp backend needs base_frequencies")
    _check_int(budget, "harmonic_budget", 0)
    Omega = np.atleast_1d(np.asarray(base_frequencies, dtype=float))
    if Omega.ndim != 1 or Omega.size == 0 or not np.all(np.isfinite(Omega) & (Omega > 0)):
        raise InvalidParameters(
            f"base_frequencies must be finite and > 0, at least one, got {base_frequencies!r}"
        )
    # two indices at one frequency would split a harmonic between them, and
    # the convolution would then carry it past the budget
    kappas = np.sort(_ball_frequencies(Omega, budget))
    if np.any(np.diff(kappas) <= 1e-9 * kappas[-1]):
        raise InvalidParameters(
            f"base_frequencies {Omega.tolist()} put two harmonics of the budget-{budget} "
            "ball at one frequency; pass rationally independent frequencies"
        )
    return Omega


def _warn_truncation(budget, order):
    """HarmonicTruncationWarning when a 'qp' budget is below the order."""
    if budget < order:
        warnings.warn(
            f"harmonic_budget {budget} is below order {order}: orders above "
            "it drop the harmonics outside sum |k_i| <= budget",
            HarmonicTruncationWarning,
        )


def _modal_transfer(spectral, kappas):
    """The retained modes' transfer at each harmonic: (denominators,
    velocity) as (m, K) arrays. A modal input u maps to u / denominators,
    with denominators i kappa - lambda on the general path (velocity
    None), and omega^2 - kappa^2 + 2i zeta omega kappa on the structural
    one, where that is the oscillator's position and velocity = i kappa /
    omega times it is its velocity over omega."""
    retained = list(spectral.retained)
    if spectral.kind == "general":
        return 1j * kappas - spectral.eigenvalues[retained, None], None
    w, z = spectral.omega[retained, None], spectral.zeta[retained, None]
    return w * w - kappas * kappas + 2j * z * w * kappas, 1j * kappas / w


def _qp_propagate(spectral, inputs, denominators, velocity):
    """Exact bounded orbit of one order, solved harmonic by harmonic: the
    (state_dim, P K) coefficients of the response to inputs, the modal
    inputs (SpectralData.project, unfolded) of the harmonic coefficients
    of Phi_nu at P K frequencies kappa, as _harmonic_cascade composes
    them. The modal transfer at each kappa (_modal_transfer: 1/(i kappa
    - lambda), or (1, i kappa/omega) / (omega^2 - kappa^2 + 2i zeta
    omega kappa) for an oscillator) maps them to modal coordinates, and
    the kernel's reconstruct to the state.

    With forcing on sum |k_i| <= 1, order nu only reaches sum |k_i| <= nu,
    so the orbit is exact while the budget is at least the order.
    """
    r = inputs / denominators  # (m, P K)
    X = r if velocity is None else np.stack([r, velocity * r])
    return spectral.reconstruct(X)


def _harmonic_cascade(system, spectral, g1, order, Omega, budget, kappas):
    """The one 'qp' order cascade: orders 1..order of the bounded orbit
    on the ball of Omega and budget (K harmonics) of g1, (n, K), the
    normalized forcing's harmonic coefficients in the ball's order, at
    P >= 1 points that share them, point p meeting the retained modes
    at kappas[p K : p K + K]: one point is compute_taylor_gss, several
    the batched sweep (_qp_sweep). Each live order (cache.reaches) goes
    to _qp_propagate as modal inputs, solved at the modal transfer of
    kappas: order 1 is g1 through SpectralData.force_rows, projected
    once and repeated per point, and each order from 2 on is composed by
    lattice convolution straight into them (assemble_phi with that
    basis, _lattice_product).

    Returns (coeffs, cache): coeffs, (state_dim, order, P K), every order
    filled, point p's harmonics at p K .. p K + K - 1 in the ball's order,
    zeros at orders that are not live; the composition cache.
    """
    fld = system.nonlinearity
    cache = CompositionCache(max_degree=max(fld.max_degree, 2), degrees=fld.degrees)
    basis = spectral.force_rows()
    inputs = np.tile(basis @ g1, len(kappas) // g1.shape[1])
    # harmonics, not samples: the tensor's dt and t0 describe no grid
    coeffs = CoefficientTensor(
        np.zeros((spectral.state_dim, order, len(kappas)), dtype=complex),
        1.0, 0.0, 0, _filled=set(range(1, order + 1)),
    )
    product = _lattice_product(len(Omega), budget)
    transfer = _modal_transfer(spectral, kappas)
    for nu in range(1, order + 1):
        if cache.reaches(1, nu):
            if nu > 1:
                inputs = assemble_phi(system, coeffs, nu, cache=cache, product=product,
                                      basis=basis)
            coeffs.insert_slice(nu, _qp_propagate(spectral, inputs, *transfer))
    return coeffs, cache


def _check_resonance_tol(tol):
    """InvalidParameters unless a 'qp' resonance tolerance is None or a
    finite real > 0: a NaN or negative one trips on no harmonic."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if tol is not None and not (real and math.isfinite(tol) and tol > 0):
        raise InvalidParameters(f"resonance_tol must be None or a finite value > 0, got {tol!r}")


def _qp_guard(spectral, kappas, ball, resonance_tol):
    """Per point, NearResonance or None: kappas, (P, K), holds the
    frequencies of the multi-indices in ball at P points that keep the
    same modes. A point trips when some i kappa lies within the tolerance
    of a retained mode's roots: its eigenvalue on the general path, its
    oscillator roots on the structural path. The tolerance defaults to
    1e-6 x the mode's scale, |lambda| or omega. One (modes, P, K, roots)
    distance array measures every mode at every point; a point's first
    offending mode names its nearest harmonic's frequency, k and distance."""
    retained = list(spectral.retained)
    roots = spectral._roots[retained]
    if spectral.kind == "general":
        lams = spectral.eigenvalues[retained]
        scales = np.abs(lams)
    else:
        w, z = spectral.omega[retained], spectral.zeta[retained]
        scales = w
    tol = resonance_tol if resonance_tol is not None else 1e-6 * scales
    dist = np.abs(1j * kappas[None, :, :, None] - roots[:, None, None, :]).min(axis=3)
    nearest = dist.argmin(axis=2)
    gaps = np.take_along_axis(dist, nearest[..., None], axis=2)[..., 0]
    trips = gaps < np.reshape(tol, (-1, 1))
    found = [None] * len(kappas)
    for p in np.flatnonzero(trips.any(axis=0)):
        m = trips[:, p].argmax()
        j, gap = nearest[m, p], float(gaps[m, p])
        if spectral.kind == "general":
            what = f"eigenvalue {lams[m]:.6g}"
        else:
            what = f"oscillator roots (omega={w[m]:.6g}, zeta={z[m]:.6g})"
        found[p] = NearResonance(
            f"harmonic frequency {kappas[p, j]:.6g} within {gap:.3e} of {what}",
            k=ball[j],
            distance=gap,
        )
    return found


def _decompose(system: MechanicalSystem) -> SpectralData:
    if system.damping_class.kind == "structural":
        return decompose_structural(system)
    return decompose_general(system)


def _sup_square(z):
    """The largest squared column 2-norm of z: its root is np.linalg.norm(z, axis=0).max()."""
    return np.einsum("ij,ij->j", z, z).max()


def _cascade(dim, forcing, order, stored, solve):
    """The order cascade of the time-domain solvers (compute_taylor_gss's
    'kernel' backend and reduced_gss): fills a tensor of orders 1..order
    on the forcing's grid that keeps a slot for each order in stored
    (ascending, order 1 first), time blocks of _BLOCK samples outer, and
    returns it with norms: norms[nu - 1] is order nu's largest state
    2-norm on the grid (0.0 without a slot), taken from each block once
    the order is final in the tensor's window (_sup_square).

    Per block it normalizes the forcing to the signal's unit sup once
    and walks the orders up: a stored order nu gets the grid that
    solve(window, nu, normalized, carry) returns (window, the tensor's
    view of the block, holds the lower orders; solve may fill
    window.slot(nu) in place and return it), the others exact zeros.
    The order's Carry hands the filter state on from block to block.
    Order 1 is a block's first call, where a solver clears its per-block
    caches. Composition is pointwise and the filters causal, so the
    result equals one block's up to the rounding of the modal products.
    """
    tensor = CoefficientTensor.empty(
        dim, order, forcing.length, forcing.dt, t0=forcing.t0, pad_length=forcing.pad_length,
        stored=stored,
    )
    sup = forcing.max_magnitude
    carries = [Carry() for _ in range(order)]
    squares = np.zeros(order)
    T = forcing.length
    for block in (slice(s, min(s + _BLOCK, T)) for s in range(0, T, _BLOCK)):
        samples = forcing.samples[block]
        normalized = samples / sup if sup > 0.0 else np.zeros_like(samples)
        window = tensor.window(block)
        for nu, carry in enumerate(carries, start=1):
            if nu in tensor.stored:
                window.insert_slice(nu, solve(window, nu, normalized, carry))
                squares[nu - 1] = np.maximum(squares[nu - 1], _sup_square(window.slot(nu)))
            else:
                window.insert_zeros(nu)
    tensor._filled.update(range(1, order + 1))
    return tensor, np.sqrt(squares)


def _divergence(norms, delta):
    """The divergence verdict of both backends, for each column p of norms
    (orders x points, norms[nu - 1, p] order nu's sup norm at point p):
    the message of a point whose top order pair's larger term, norms[nu -
    1, p] |delta|^nu, passes 10x the mid pair's, None at the others."""
    order, points = norms.shape
    verdicts = [None] * points
    if order < 2 or delta == 0.0:
        return verdicts
    # adjacent-order pairs: an odd (or even) series is zero at every
    # other order; the terms are compared as logarithms, so no power
    # of delta overflows and its sign does not matter; a zero norm is a
    # term of -inf
    half = (order + 1) // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(norms) + np.arange(1.0, order + 1)[:, None] * math.log(abs(delta))
        l_half = terms[half - 1 : half + 1].max(axis=0)
        gap = terms[order - 2 :].max(axis=0) - l_half
    for p in np.flatnonzero((l_half > -np.inf) & (gap > math.log(10.0))):
        ratio = f"{math.exp(gap[p]):.1f}" if gap[p] < 700.0 else f"1e{gap[p] / math.log(10.0):.0f}"
        verdicts[p] = (
            f"top-order term is {ratio}x the mid-order term "
            f"at delta={delta:.3g}; the series looks divergent there "
            "(consider rational resummation)"
        )
    return verdicts


def _warn_divergence(norms, order, delta):
    """DivergenceWarning when the one-point verdict (_divergence) fails on
    norms, norms[nu - 1] order nu's sup norm on the grid, nu = 1..order."""
    (verdict,) = _divergence(np.reshape(norms, (order, 1)), delta)
    if verdict is not None:
        warnings.warn(verdict, DivergenceWarning)


def compute_taylor_gss(
    system: MechanicalSystem,
    forcing: ForcingSignal,
    order: int,
    backend: str = "kernel",
    eps_trunc: float = 1e-3,
    delta: float | None = None,
    base_frequencies=None,
    harmonic_budget: int = 5,
    resonance_tol: float | None = None,
    check_divergence: bool = True,
) -> GssExpansion:
    """Amplitude expansion of the steady response to a sampled forcing.

    'kernel' runs the blocked cascade (_cascade) that reduced_gss shares
    with one step per order: assemble_phi composes the order on the
    tensor's view of the block straight into the retained units' modal
    inputs (its basis SpectralData.force_rows, real rows when the
    retained set folds), and propagate_order filters them into the
    order's slot; the step clears the cache at order 1, so cache_stats
    are summed over the blocks; 'qp' fits the record's order-1
    harmonics once, runs the sweep's harmonic cascade
    (_harmonic_cascade, on modal inputs too) and puts each order on the
    grid. Only the live orders run
    (see the composition module): the odd ones for a cubic field, all of
    them with a quadratic term; the others are exact zeros that take no
    slot in the tensor, and each live order keeps the bits of the full
    recursion.

    Parameters
    ----------
    system, forcing : model objects
        forcing.samples (pad included) sets the grid; coefficients are
        computed for the unit-sup normalization of the signal.
    order : int
        Highest expansion order N.
    backend : {'kernel', 'qp'}
        Per-order linear solver; see the module docstring. 'qp' needs
        base_frequencies.
    eps_trunc : float
        Mode retention threshold: modes whose one-step decay factor
        exp(dt Re lambda) is below eps_trunc are dropped, on both
        backends.
    delta : float, optional
        Reference amplitude for divergence checks and resummation
        scaling; defaults to the forcing sup norm. Must be finite.
    resonance_tol : float, optional
        'qp': raise NearResonance, before any fit, when some harmonic
        i kappa lies within this distance of a retained mode's root;
        defaults to 1e-6 x the mode's |lambda| or omega. Must be finite
        and > 0 (InvalidParameters otherwise).
    check_divergence : bool
        Warn (DivergenceWarning) when the top order pair's larger term,
        the order's sup norm on the grid x |delta|^nu, passes 10x the
        mid pair's (_warn_divergence).
    """
    _check_int(order, "order", 1)
    if backend not in _BACKENDS:
        raise InvalidParameters(f"backend {backend!r} not one of {_BACKENDS}")
    if backend == "qp":
        Omega = _qp_base_frequencies(base_frequencies, harmonic_budget)
        _check_resonance_tol(resonance_tol)
        _warn_truncation(harmonic_budget, order)
    if forcing.n != system.n:
        raise DimensionMismatch(
            f"forcing has {forcing.n} columns, system has {system.n} dofs"
        )
    if delta is not None and not np.isfinite(delta):
        raise InvalidParameters(f"delta must be finite, got {delta!r}")

    spectral = _decompose(system)
    retained = select_modes(spectral, forcing.dt, eps=eps_trunc)
    spectral = with_retained(spectral, retained)

    sup = forcing.max_magnitude
    delta_ref = float(delta) if delta is not None else (sup if sup > 0.0 else 1.0)

    if backend == "qp":
        # a harmonic at a root has no bounded orbit: refuse before any fit
        kappas = _ball_frequencies(Omega, harmonic_budget)
        ball = _harmonic_ball(len(Omega), harmonic_budget)
        (resonance,) = _qp_guard(spectral, kappas[None], ball, resonance_tol)
        if resonance is not None:
            raise resonance
        # the normalized forced columns, fit from the end of the pad on (a
        # zero pad would bias the fit) and made conjugate-symmetric, c_k <-
        # (c_k + conj c_{-k}) / 2, as good a least-squares fit of a real forcing
        normalized = forcing.samples / sup if sup > 0.0 else np.zeros_like(forcing.samples)
        times, w = forcing.times(), forcing.pad_length
        phases = np.exp(1j * np.outer(kappas, times))
        forced = np.flatnonzero(normalized.any(axis=0))
        _, fit = fit_harmonics(normalized[w:, forced].T, times[w:], Omega, harmonic_budget,
                               phases=phases[:, w:])
        # the ball is symmetric and sorted, so harmonic -k sits at K-1-i
        g1 = np.zeros((system.n, len(kappas)), dtype=complex)
        g1[forced] = 0.5 * (fit + fit[:, ::-1].conj())
        coeffs, cache = _harmonic_cascade(system, spectral, g1, order, Omega, harmonic_budget,
                                          kappas)
        live = [nu for nu in range(1, order + 1) if cache.reaches(1, nu)]
        tensor = CoefficientTensor.empty(
            system.state_dim, order, forcing.length, forcing.dt, t0=forcing.t0,
            pad_length=forcing.pad_length, stored=live,
        )
        norms = np.zeros(order)
        for nu in live:
            grid = _enforce_real(coeffs.order_slice(nu) @ phases, "qp modal assembly")
            tensor.insert_slice(nu, grid)
            norms[nu - 1] = np.sqrt(_sup_square(tensor.slot(nu)))
        tensor._filled.update(range(1, order + 1))
    else:
        fld = system.nonlinearity
        cache = CompositionCache(max_degree=max(fld.max_degree, 2), degrees=fld.degrees)
        weights = build_kernel_weights(spectral, forcing.dt)
        live = [nu for nu in range(1, order + 1) if cache.reaches(1, nu)]
        # the forcing is real: a retained set that folds takes real rows
        basis = spectral.force_rows(real=True)

        def solve(window, nu, normalized, carry):
            if nu == 1:  # a new block: the products are block-length
                cache.clear()
            inputs = assemble_phi(
                system, window, nu, forcing_grid=normalized, cache=cache, basis=basis
            )
            return propagate_order(spectral, weights, inputs, carry, out=window.slot(nu))

        tensor, norms = _cascade(system.state_dim, forcing, order, live, solve)

    if check_divergence:
        _warn_divergence(norms, order, delta_ref)

    return GssExpansion(
        system=system,
        spectral=spectral,
        tensor=tensor,
        order=order,
        backend=backend,
        delta_ref=delta_ref,
        forcing_sup=sup,
        eps_trunc=eps_trunc,
        cache_stats=cache.stats(),
    )


def _amplitudes(deltas):
    """The amplitudes as a 1-D float array; InvalidParameters unless every
    one is finite."""
    values = np.atleast_1d(np.asarray(deltas, dtype=float))
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise InvalidParameters(f"amplitudes must be finite scalars, got {deltas!r}")
    return values


def _powers(values, orders, deltas):
    """The (A x K) power matrix values[a]**orders[k], checked before any
    contraction: InvalidParameters, naming the amplitude deltas[a] and
    the order, when a power overflows (a power that underflows to 0 is
    the term's own limit and passes)."""
    orders = np.asarray(orders, dtype=float)
    with np.errstate(over="ignore"):
        powers = values[:, None] ** orders
    if not np.isfinite(powers).all():
        a, k = np.argwhere(~np.isfinite(powers))[0]
        raise InvalidParameters(
            f"delta={deltas[a]:.6g} overflows at order {orders[k]:.0f}: its power is not a "
            "finite float"
        )
    return powers


def _power_sum(powers, data):
    """sum_k powers[a, k] * data[:, k, :] for every a, shape (dim, A, T):
    one contraction of an (A x K) matrix with the K slots of data, the
    one routine that sums stored slots: the power matrix of amplitudes
    (_powers), or pade_resum's numerator weights.

    np.einsum, not matmul: its unoptimized loop adds the slots in order,
    one product at a time, in every output element, so the bits depend
    neither on the BLAS threads nor on whether data is a memory map, and a
    slot of zeros leaves the sum unchanged.
    """
    return np.einsum("ak,jkt->jat", powers, data)


def evaluate_at_amplitudes(
    expansion: GssExpansion, deltas, max_order: int | None = None
) -> np.ndarray:
    """Partial sums sum_nu z_nu delta^nu at several amplitudes, shape
    (state_dim, len(deltas), T).

    Each delta is a physical forcing amplitude multiplying the normalized
    signal the expansion was computed for, and must be finite, as must
    each of its powers delta^nu (InvalidParameters otherwise). The sums
    through max_order (default: the expansion's order) are one
    contraction of the (amplitudes x stored orders) power matrix with the
    tensor's stored slots (_power_sum): each stored order is read once
    for every amplitude, and an order the tensor does not store costs
    nothing. The result is a new writable array, also when the tensor is
    a read-only memory map.
    """
    tensor = expansion.tensor
    top = expansion.order if max_order is None else max_order
    _check_int(top, "max_order", 1, tensor.orders_complete)
    orders = [nu for nu in tensor.stored if nu <= top]
    values = _amplitudes(deltas)
    return _power_sum(_powers(values, orders, values), tensor.data[:, : len(orders)])


def evaluate_at_amplitude(
    expansion: GssExpansion, delta: float, max_order: int | None = None
) -> np.ndarray:
    """Partial sum sum_nu z_nu delta^nu on the grid, shape (state_dim, T):
    the one-amplitude case of evaluate_at_amplitudes, bit for bit."""
    return evaluate_at_amplitudes(expansion, [delta], max_order)[:, 0]


# samples of one period on which a sweep point's amplitude is read
_FRC_SAMPLES_PER_PERIOD = 256


def _qp_sweep(system, delta, dofs, order, omegas, budget, resonance_tol):
    """The 'qp' steady amplitudes of delta sin(omega t) on the dofs at
    each frequency of omegas (a 1-D array); the batched solve of
    bench.frc_sweep. Returns (amplitude, flags): amplitude[p] is, per
    state coordinate, the largest magnitude of point p's steady state on
    the 256 samples of its period, NaN when flags[p] holds the point's
    NearResonance message or its divergence verdict (else None).

    Normalized to its sup row norm |delta| sqrt(m) (InvalidParameters if
    it overflows), the forcing on m dofs is sign(delta) / (2i sqrt(m)) at
    k = +1 and its negative at k = -1: no period is sampled or fit. The
    system is decomposed once; each point selects its modes at its
    period's sample step, and the points that keep the same modes run one
    resonance pass (_qp_guard), with the messages a 'qp'
    compute_taylor_gss of the sampled period would raise, and their
    unflagged points one harmonic cascade, differing only in the modal
    transfer at omega k. Each solved point gets compute_taylor_gss's
    divergence verdict (_divergence) at the sup, order nu's norm taken as
    max over coordinates of sum_k |c_k|, a bound on the orbit's sup; the
    orders' partial sum at the sup is put on the period's samples once
    per point that passes. One DivergenceWarning counts the points that
    fail; a budget below the order warns once.
    """
    with np.errstate(over="ignore"):
        sup = float(np.linalg.norm(np.full(len(dofs), float(delta))))
    if not math.isfinite(sup):
        raise InvalidParameters(f"delta={delta:.6g}: the forcing's sup row norm overflows float64")
    _warn_truncation(budget, order)
    spectral = _decompose(system)
    dt = 2.0 * np.pi / _FRC_SAMPLES_PER_PERIOD  # the sample step at frequency 1
    groups = {}  # retained modes -> the points that keep them
    for p, omega in enumerate(omegas):
        groups.setdefault(select_modes(spectral, dt / omega), []).append(p)

    ks, ball = _harmonic_ball(1, budget), _ball_frequencies((1.0,), budget)
    g1 = np.zeros((system.n, len(ks)), dtype=complex)
    coefficient = -0.5j * np.sign(delta) / math.sqrt(len(dofs))  # sign(delta) / (2i sqrt(m))
    g1[dofs, ks.index((1,))] = coefficient
    g1[dofs, ks.index((-1,))] = -coefficient
    phases = np.exp(1j * np.outer(ball, dt * np.arange(_FRC_SAMPLES_PER_PERIOD)))
    powers = _powers(np.array([sup]), range(1, order + 1), [sup])
    amplitude = np.full((len(omegas), system.state_dim), np.nan)
    flags = [None] * len(omegas)
    diverged = 0
    for retained, points in groups.items():
        kept = with_retained(spectral, retained)
        for p, resonance in zip(points, _qp_guard(kept, np.outer(omegas[points], ball), ks,
                                                  resonance_tol)):
            flags[p] = None if resonance is None else str(resonance)
        solved = [p for p in points if flags[p] is None]
        if not solved:
            continue
        kappas = np.outer(omegas[solved], ball).ravel()
        coeffs, _ = _harmonic_cascade(system, kept, g1, order, (1.0,), budget, kappas)
        bounds = np.abs(coeffs.data).reshape(system.state_dim, order, len(solved), -1)
        verdicts = _divergence(bounds.sum(axis=3).max(axis=0), sup)
        summed = _power_sum(powers, coeffs.data)[:, 0].reshape(system.state_dim, len(solved), -1)
        for i, p in enumerate(solved):
            flags[p] = verdicts[i]
            if flags[p] is None:
                grid = _enforce_real(summed[:, i] @ phases, "qp modal assembly")
                amplitude[p] = np.abs(grid).max(axis=1)
        diverged += len(solved) - verdicts.count(None)
    if diverged:
        warnings.warn(
            f"{diverged} of {len(omegas)} sweep points look divergent at delta={sup:.3g}; "
            "their amplitudes are NaN and their flags hold the verdict",
            DivergenceWarning,
        )
    return amplitude, flags


@dataclass(frozen=True)
class PadeGss:
    """Vector rational [L/M] resummation of an expansion: one denominator,
    shared by every coordinate and grid time (the GSS is one analytic
    function of delta, so it has one set of singularities; Graves-Morris
    & Jenkins, Constr. Approx. 2, 1986), over time-varying numerators.
    Coefficients are in the scaled variable s = delta / sigma, sigma the
    magnitude of the expansion's reference amplitude (1 when it is 0),
    which keeps the least-squares problem balanced. ill_conditioned names
    every coordinate when the fit had singular values below 1e-12 of the
    largest, else () (reported, not raised: the evaluation may still be
    fine away from spurious poles).
    """

    L: int
    M: int
    sigma: float
    num: np.ndarray  # (state_dim, L, T), scaled variable
    den: np.ndarray  # (M,), scaled variable
    ill_conditioned: tuple
    dt: float
    t0: float
    pad_length: int
    backend: str

    @property
    def poles(self) -> np.ndarray:
        """The fit's poles in delta, nearest first: the roots of 1 +
        sum_mu den[mu - 1] (delta / sigma)^mu, complex, at most M."""
        roots = np.roots(np.concatenate([self.den[::-1], [1.0]])) * self.sigma
        return roots[np.argsort(np.abs(roots), kind="stable")]


def _stored_r(data, scale):
    """R of the thin QR of each coordinate's (T x s) matrix of stored
    orders, its columns scaled: shape (state_dim, min(T, s), s).

    TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34,
    2012): one batched QR per window of _BLOCK samples, then one QR of
    the stacked R factors. Only R is formed; Q never is.
    """
    T = data.shape[2]
    windows = [
        np.linalg.qr(data[:, :, start : start + _BLOCK].transpose(0, 2, 1), mode="r")
        for start in range(0, T, _BLOCK)
    ]
    return np.linalg.qr(np.concatenate(windows, axis=1), mode="r") * scale


def pade_resum(expansion: GssExpansion, L: int, M: int) -> PadeGss:
    """Fit a vector [L/M] rational representation to the expansion.

    Needs L + M completed orders. The one denominator's coefficients
    solve, in least squares over every coordinate j, grid time t and
    offset r = 1..M,

        sum_mu b_mu c_{L+r-mu}(j, t) = -c_{L+r}(j, t),   c_k = 0 for k < 1,

    where c_k = z_k sigma^k are the Taylor grids in the scaled variable.
    The fit never forms that (dim M T x M) system. With C_j the (T x s)
    matrix of coordinate j's s stored orders k <= L + M, scaled, block
    (j, r) of the system is C_j S_r | C_j e_{L+r}, where S_r puts order
    L+r-mu in column mu (an order that is not stored is a zero column).
    So with C_j = Q_j R_j (_stored_r, by TSQR) the system is
    blockdiag(Q_j) times the stacked small blocks R_j S_r | R_j e_{L+r};
    Q_j has orthonormal columns, so the one (dim M s x M) least-squares
    problem on those blocks has the same solution and the same singular
    values. The numerators sum_{mu<k} b_mu c_{k-mu}, b_0 = 1, are then
    one contraction of an (L, s) weight array with the stored slots
    (_power_sum).

    Raises InvalidParameters, before any factorization, when sigma^k
    over the fitted orders is not a finite nonzero float (a reference
    amplitude so large or so small that the scaled variable cannot hold
    it).
    """
    _check_int(L, "L", 1)
    _check_int(M, "M", 1)
    tensor = expansion.tensor
    if tensor.orders_complete < L + M:
        raise InvalidParameters(
            f"[{L}/{M}] needs {L + M} orders, tensor holds {tensor.orders_complete}"
        )
    sigma = abs(expansion.delta_ref) or 1.0

    orders = [nu for nu in tensor.stored if nu <= L + M]
    with np.errstate(over="ignore"):
        scale = sigma ** np.asarray(orders, dtype=float)
    bad = np.flatnonzero(~np.isfinite(scale) | (scale == 0.0))
    if bad.size:
        nu = orders[bad[0]]
        raise InvalidParameters(
            f"[{L}/{M}] fit scales order {nu} by |delta_ref|^{nu} = {scale[bad[0]]:g} at "
            f"delta_ref={expansion.delta_ref:.6g}; refit at a reference amplitude whose "
            "powers are finite and nonzero"
        )
    # slot of order k in R's columns; the padded column len(orders) is
    # the zero grid of the orders below 1 and of those not stored
    slot = {nu: i for i, nu in enumerate(orders)}
    R = np.pad(_stored_r(tensor.data[:, : len(orders)], scale), [(0, 0), (0, 0), (0, 1)])
    zero = len(orders)
    cols = [[slot.get(L + r - mu, zero) for mu in range(1, M + 1)] for r in range(1, M + 1)]
    rhs = [slot.get(L + r, zero) for r in range(1, M + 1)]
    # every coordinate's M blocks r of R's rows, stacked, by M columns mu
    design = R[:, :, cols].transpose(0, 2, 1, 3).reshape(-1, M)
    target = -R[:, :, rhs].transpose(0, 2, 1).ravel()
    den, _, _, svals = np.linalg.lstsq(design, target, rcond=1e-12)
    rank_deficient = svals.size and svals[-1] < 1e-12 * svals[0]

    # num_k = sum over mu = 0..min(k-1, M) of b_mu c_{k-mu}, on the slots
    # of the stored orders <= L: order nu enters num_k, k = nu..nu+M, at b_{k-nu}
    low = [nu for nu in orders if nu <= L]
    weights = np.zeros((L, len(low)))
    b = np.concatenate([[1.0], den])
    for i, nu in enumerate(low):
        weights[nu - 1 : nu + M, i] = b[: L - nu + 1]
    weights *= scale[: len(low)]
    num = _power_sum(weights, tensor.data[:, : len(low)])

    return PadeGss(
        L=L,
        M=M,
        sigma=sigma,
        num=num,
        den=den,
        ill_conditioned=tuple(range(expansion.state_dim)) if rank_deficient else (),
        dt=tensor.dt,
        t0=tensor.t0,
        pad_length=tensor.pad_length,
        backend=expansion.backend,
    )


def evaluate_pade_at_amplitudes(pade: PadeGss, deltas) -> np.ndarray:
    """The rational representation at several physical amplitudes, shape
    (state_dim, len(deltas), T): the numerators' power contraction
    (_power_sum), divided in place by one scalar per amplitude.

    Each delta and each power of delta / sigma taken must be finite
    (InvalidParameters otherwise). Every denominator is checked before the
    contraction: DenominatorNearZero names the first delta where one's
    magnitude falls below 1e-8 (a pole of the fit).
    """
    values = _amplitudes(deltas)
    with np.errstate(over="ignore"):  # _powers refuses an infinite s
        s = values / pade.sigma
    powers_num = _powers(s, range(1, pade.L + 1), values)
    denominator = 1.0 + _powers(s, range(1, pade.M + 1), values) @ pade.den
    near = np.flatnonzero(np.abs(denominator) < 1e-8)
    if near.size:
        a = near[0]
        message = f"denominator is {denominator[a]:.3e} at delta={values[a]:.6g}"
        raise DenominatorNearZero(message, delta=float(values[a]))
    out = _power_sum(powers_num, pade.num)
    out /= denominator[:, None]
    return out


def evaluate_pade(pade: PadeGss, delta: float) -> np.ndarray:
    """The rational representation at one physical amplitude, shape
    (state_dim, T): the one-row case of evaluate_pade_at_amplitudes, bit
    for bit."""
    return evaluate_pade_at_amplitudes(pade, [delta])[:, 0]


def reduced_gss(
    reduced: ReducedModel,
    spectral: SpectralData,
    forcing: ForcingSignal,
    order: int,
) -> GssExpansion:
    """Amplitude expansion on an invariant-subspace reduced model.

    The reduced dynamics w' = R(w) + P B^{-1} G(t) (P = tangent_rows)
    run through the blocked cascade of compute_taylor_gss in first-order
    form (B = I), each live order through _modal_response on the
    eigenvectors of R's linear part; its forcing rows P B^{-1}[:, :n]
    come once per solve from the decomposition's modal pair over every
    unit. Like the other cascades, every order reaches the filters as
    modal inputs: R's modal input map is folded once per solve into the
    forcing rows (order 1) and into the coefficient matrix of R's
    nonlinear terms, so each order from 2 on is one contraction of its
    products (compose_field with that coef); the complement modes take
    the forcing through their own force_rows. The cascade's step fills
    reduced order nu in a one-block store
    (zeros where R cannot reach it), clearing both caches at order 1,
    and returns it lifted through W and, at order 1, joined by the
    carried linear response of the complement modes (those not in
    spectral.retained, which designates the reduced subspace), so every
    per-order array is block-length; the lift takes the kernel's
    realness policy. A trivial reduction (d = state_dim, W = identity)
    reproduces the full expansion.

    Raises DimensionMismatch if the fields, the decomposition and the
    forcing disagree, or if the retained units (one state per
    eigenvalue, two per oscillator) do not number d; UnstableLinearPart
    if R's linear part has an eigenvalue with real part >= -1e-12; and
    RealnessCheckFailed if a lifted order keeps an imaginary residue
    above 1e-10 x its scale on some time block.

    Returns a GssExpansion whose tensor holds the lifted full-state
    grids of every order (W's degrees can fill an order R cannot
    reach), with system None and cache_stats those of the reduced
    cascade, summed over the blocks.
    """
    d = reduced.d
    n2 = spectral.state_dim
    if reduced.W.dim != d or reduced.R.dim != d:
        raise DimensionMismatch("reduced model fields disagree on dimension")
    if reduced.W.out_dim != n2:
        raise DimensionMismatch(
            f"W lifts to {reduced.W.out_dim}, decomposition has state dim {n2}"
        )
    if forcing.n != n2 // 2:
        raise DimensionMismatch(
            f"forcing has {forcing.n} columns, decomposition has {n2 // 2} dofs"
        )
    # one state per retained eigenvalue, two per retained oscillator
    if len(spectral.retained) * (1 if spectral.kind == "general" else 2) != d:
        raise DimensionMismatch(f"retained units {spectral.retained} do not span {d} states")
    _check_int(order, "order", 1)

    # linear part of R and its spectrum (first-order form, B = I)
    R = reduced.R
    A_r = np.zeros((d, R.n_forms), dtype=complex)
    nonlinear_terms = []
    for factors, term in zip(R._factors, R.form_terms):
        if len(factors) == 1:
            A_r[:, factors[0]] += term[1]
        else:
            nonlinear_terms.append(term)
    if R.forms is not None:
        A_r = A_r @ R.forms
    nonlinear = replace(R, form_terms=tuple(nonlinear_terms))
    eigvals, V_r = np.linalg.eig(A_r)
    if np.any(eigvals.real >= -_STABILITY_TOL):
        raise UnstableLinearPart(
            f"reduced linear part has Re(lambda) up to {eigvals.real.max():.3e}"
        )
    reduced_spec = SpectralData(
        kind="general",
        state_dim=d,
        retained=tuple(range(d)),
        eigenvalues=eigvals,
        V=V_r,
        modal_input=np.linalg.inv(V_r),
    )
    reduced_weights = build_kernel_weights(reduced_spec, forcing.dt)

    # the modes outside the reduced subspace respond linearly to order 1
    total = n2 if spectral.kind == "general" else n2 // 2
    comp_modes = tuple(i for i in range(total) if i not in spectral.retained)
    if comp_modes:
        comp_spec = with_retained(spectral, comp_modes)
        comp_weights = build_kernel_weights(comp_spec, forcing.dt)
        comp_basis = comp_spec.force_rows(real=True)
        comp_carry = Carry()

    # B^{-1} (I_n, 0) in modal coordinates: the input itself on the
    # general path, zero position and velocity u on the structural one
    every = with_retained(spectral, range(total))
    u = every.force_rows()
    if spectral.kind == "structural":
        u = np.stack([np.zeros_like(u), u / every.omega[:, None]])
    b_inverse = _enforce_real(every.reconstruct(u), "B^{-1} forcing")
    # the reduced filters' modal inputs: project is linear, so it goes
    # into the forcing rows and R's coefficient matrix once per solve
    forcing_inputs = reduced_spec.project(reduced.tangent_rows @ b_inverse)  # (d, n)
    coef = reduced_spec.project(nonlinear._coef)

    cache = CompositionCache(max_degree=max(R.max_degree, 2), degrees=nonlinear.degrees)
    # the lift multiplies reduced orders, which the same table describes
    lift_cache = CompositionCache(
        max_degree=max(reduced.W.max_degree, 2), degrees=nonlinear.degrees
    )

    # the reduced orders of one block, reused block after block
    block = np.zeros((d, order, min(_BLOCK, forcing.length)), dtype=complex)
    orders = CoefficientTensor(block, forcing.dt, forcing.t0, 0)

    def solve(window, nu, normalized, carry):
        w = orders.window(slice(0, window.length))
        if nu == 1:  # a new block: the products are block-length
            cache.clear()
            lift_cache.clear()
        if cache.reaches(1, nu):
            inputs = forcing_inputs @ normalized.T if nu == 1 else compose_field(
                nonlinear, w.component, nu, w.length, cache, dtype=complex, coef=coef
            )
            w.insert_slice(nu, _modal_response(reduced_spec, reduced_weights, inputs, carry))
        else:
            w.insert_zeros(nu)  # R cannot reach order nu
        z = compose_field(reduced.W, w.component, nu, w.length, lift_cache, dtype=complex)
        if nu == 1 and comp_modes:
            z += propagate_order(comp_spec, comp_weights, comp_basis @ normalized.T, comp_carry)
        return _enforce_real(z, f"reduced order {nu} lift")

    tensor, _ = _cascade(n2, forcing, order, range(1, order + 1), solve)

    sup = forcing.max_magnitude
    return GssExpansion(
        system=None,
        spectral=spectral,
        tensor=tensor,
        order=order,
        backend="kernel",
        delta_ref=sup if sup > 0 else 1.0,
        forcing_sup=sup,
        eps_trunc=0.0,
        cache_stats=cache.stats(),
    )
