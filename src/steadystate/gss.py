"""Generalized steady states: Taylor expansion in the forcing amplitude.

The bounded particular solution of

    B z' = A z + F(z) + G(t),       G(t) = (g(t), 0),

is expanded as z(t; delta) = sum_nu z_nu(t) delta^nu, with coefficients
computed for the unit-sup normalization of the forcing: the stored
order-nu grid is the response coefficient when the physical forcing is
delta times the normalized signal. All orders share one linear flow;
they differ only in the inhomogeneity assembled from lower orders.

Two propagation backends share the assembly:

  'kernel'   exponential one-step convolution per retained mode
  'qp'       closed-form bounded orbit for quasiperiodic forcing: the
             forcing is fit once with harmonics of the given base
             frequencies; higher orders compose harmonic coefficients
             by lattice convolution (harmonic balance) and each harmonic
             is mapped through 1/(i<k,Omega> - lambda). Exact when the
             harmonic budget is at least the order and the forcing sits
             on sum |k_i| <= 1; a lower budget drops harmonics and warns
             (HarmonicTruncationWarning)

Divergent-looking expansions are flagged with DivergenceWarning, never
silently truncated. Amplitude evaluation past the radius of convergence
is the job of the rational resummation below (pade_resum).
"""

from __future__ import annotations

import functools
import itertools
import math
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
    _oscillator_root_pairs,
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
    "reduced_gss",
    "fit_harmonics",
]

_BACKENDS = ("kernel", "qp")
# samples per time block of the cascade: every order is composed and
# propagated one block at a time, so composition products and per-order
# temporaries stay block-length and in cache
_BLOCK = 8192


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


@functools.lru_cache(maxsize=None)
def _lattice_product(dims: int, budget: int):
    """The product of two Fourier series on _harmonic_ball(dims, budget).

    Returns product(a, b) for (..., K) coefficient arrays on the ball,
    along the last axis: out[..., l] sums a[..., i] b[..., j] over the
    index pairs with k_i + k_j = k_l, and sums that leave the ball are
    dropped (a truncated lattice convolution). Each row is summed as on
    its own, so a batch of rows (see composition._product) keeps every
    row's bits. Built once per (dims, budget).
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

    def product(a, b):
        return np.add.reduceat(a[..., left] * b[..., right], starts, axis=-1)

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
    read-only, see _ball_frequencies). The 'qp'
    backend calls it once per solve, on the order-1 forcing rows; higher
    orders are composed from these coefficients, never fit. phases, the
    (K, T) matrix exp(i kappa t) on times, is used as the design matrix
    when the caller already holds it.

    Warns HarmonicFitIllConditioned when the (T, K) design matrix's
    condition number, the ratio of its extreme singular values, passes
    1e10, or when T < K: harmonics it cannot tell apart then share the
    signal arbitrarily. On whole periods of one base frequency, sampled
    without the endpoint and with T >= K, the fit is the discrete
    Fourier transform and the condition number is 1.
    """
    kappas = _ball_frequencies(base_frequencies, budget)
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


@dataclass
class _HarmonicOrbit:
    """The 'qp' backend's state across the orders of one solve.

    coeffs holds each order's harmonic coefficients, shape (state_dim,
    order, K) with the last axis on _harmonic_ball(len(Omega), budget);
    it starts as zeros with every order counted filled, since the cascade
    composes only live lower orders, which _qp_propagate has written.
    product multiplies two coefficient rows. kappas are the ball's
    frequencies and phases the (K, T) matrix exp(i kappa t) on the
    output grid. denominators and velocity are the retained modes'
    transfer at each kappa (_modal_transfer), built once per solve.
    """

    Omega: np.ndarray
    budget: int
    times: np.ndarray
    fit_from: int
    coeffs: CoefficientTensor
    product: object
    kappas: np.ndarray
    phases: np.ndarray
    denominators: np.ndarray
    velocity: np.ndarray | None


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


def _qp_propagate(spectral, phi, nu, orbit):
    """Exact bounded orbit of order nu, solved harmonic by harmonic.

    At order 1, phi is the forcing grid: its nonzero rows are fit once
    (fit_harmonics), over the grid from orbit.fit_from on, since a zero
    pad is a kernel-backend start-up device, not part of the
    quasiperiodic signal, and including it would bias the coefficients.
    The forcing is real, so the fit is made conjugate-symmetric, c_k <-
    (c_k + conj c_{-k}) / 2, an equally good least-squares solution. For
    nu >= 2, phi already holds the harmonic coefficients of Phi_nu,
    composed from lower orders by lattice convolution. The kernel's
    modal pair maps them: project, the modal transfer at each kappa
    (1/(i kappa - lambda), or (1, i kappa/omega)/(omega^2 - kappa^2 +
    2i zeta omega kappa) for an oscillator, built once per solve in
    the orbit), reconstruct into orbit.coeffs; the orbit on the
    grid takes the kernel's realness policy (_enforce_real).

    With forcing on sum |k_i| <= 1, order nu only reaches sum |k_i| <= nu,
    so the orbit is exact while the budget is at least the order.
    """
    if nu == 1:
        forced = np.flatnonzero(phi[: spectral.state_dim // 2].any(axis=1))
        window = slice(orbit.fit_from, None)
        _, forcing = fit_harmonics(
            phi[forced, window], orbit.times[window], orbit.Omega, orbit.budget,
            phases=orbit.phases[:, window],
        )
        # the ball is symmetric and sorted, so harmonic -k sits at K-1-i
        forcing = 0.5 * (forcing + forcing[:, ::-1].conj())
        phi = np.zeros((spectral.state_dim, len(orbit.kappas)), dtype=complex)
        phi[forced] = forcing
    r = spectral.project(phi) / orbit.denominators  # (m, K)
    X = r if orbit.velocity is None else np.stack([r, orbit.velocity * r])
    Z = spectral.reconstruct(X)
    orbit.coeffs.insert_slice(nu, Z)
    return _enforce_real(Z @ orbit.phases, "qp modal assembly")


def _qp_guard(spectral, kappas, resonance_tol):
    """Raise NearResonance when some i kappa lies within the tolerance
    of a retained mode's roots: its eigenvalue on the general path, its
    oscillator roots on the structural path. The tolerance defaults to
    1e-6 x the mode's scale, |lambda| or omega. One (modes, K, roots)
    distance array measures every mode; the first offending mode raises,
    naming its nearest harmonic."""
    retained = list(spectral.retained)
    if spectral.kind == "general":
        lams = spectral.eigenvalues[retained]
        roots, scales = lams[:, None], np.abs(lams)
    else:
        w, z = spectral.omega[retained], spectral.zeta[retained]
        roots, scales = _oscillator_root_pairs(w, z), w
    tol = resonance_tol if resonance_tol is not None else 1e-6 * scales
    dist = np.abs(1j * kappas[None, :, None] - roots[:, None, :]).min(axis=2)  # (modes, K)
    nearest = dist.argmin(axis=1)
    gaps = dist[np.arange(len(retained)), nearest]
    hits = np.flatnonzero(gaps < tol)
    if hits.size:
        m = hits[0]
        j, gap = nearest[m], float(gaps[m])
        if spectral.kind == "general":
            what = f"eigenvalue {lams[m]:.6g}"
        else:
            what = f"oscillator roots (omega={w[m]:.6g}, zeta={z[m]:.6g})"
        raise NearResonance(
            f"harmonic frequency {kappas[j]:.6g} within {gap:.3e} of {what}",
            k=None,
            distance=gap,
        )


def _decompose(system: MechanicalSystem) -> SpectralData:
    if system.damping_class.kind == "structural":
        return decompose_structural(system)
    return decompose_general(system)


def _cascade(dim, forcing, order, cache, compose, propagate, lift=None, orders=None, step=None):
    """The order cascade of every solver: fills a tensor of orders
    1..order on the forcing's grid, time blocks of step (default _BLOCK)
    samples outer, and returns it with norms: norms[nu - 1] is order
    nu's largest state 2-norm on the grid (0.0 without a slot), taken
    from each block once the order is final in the tensor's window,
    bit-equal to np.linalg.norm(grid, axis=0).max().

    Per block it clears cache, so products are block-length, normalizes
    the block's forcing to the signal's unit sup and runs each order nu:
    exact zeros if nu is not live (cache.reaches), else propagate(phi,
    nu, carry, out) of phi = compose(store, nu, normalized): the order-1
    rows of the normalized forcing, or a composition of the lower orders
    in store. out is store's slot of order nu; propagate returns it
    filled in place (the kernel backend) or a grid of its own, which is
    copied in. The order's Carry hands the filter state on from block to
    block. Composition is pointwise and the filters causal, so the
    result equals one block's up to the rounding of the modal products.
    store is the tensor's view of the block or, in coordinates of the
    caller's own, orders' view (one block long, reused), which
    lift(store, nu, normalized) maps pointwise to the tensor's grid at
    every order.

    Without a lift the tensor stores only the live orders, shape (dim,
    live, T), and the others read as zeros; a lift may fill every order
    (its field's degrees need not match cache's), so then every order is
    stored.
    """
    every = range(1, order + 1)
    stored = every if lift is not None else [nu for nu in every if cache.reaches(1, nu)]
    tensor = CoefficientTensor.empty(
        dim, order, forcing.length, forcing.dt, t0=forcing.t0, pad_length=forcing.pad_length,
        stored=stored,
    )
    sup = forcing.max_magnitude
    carries = [Carry() for _ in range(order)]
    squares = np.zeros(order)
    T, step = forcing.length, step or _BLOCK
    for block in (slice(s, min(s + step, T)) for s in range(0, T, step)):
        cache.clear()
        samples = forcing.samples[block]
        normalized = samples / sup if sup > 0.0 else np.zeros_like(samples)
        window = tensor.window(block)
        store = window if orders is None else orders.window(slice(0, window.length))
        for nu, carry in enumerate(carries, start=1):
            if cache.reaches(1, nu):
                phi = compose(store, nu, normalized)
                store.insert_slice(nu, propagate(phi, nu, carry, store.slot(nu)))
            else:
                store.insert_zeros(nu)
            if lift is not None:
                window.insert_slice(nu, lift(store, nu, normalized))
            if nu in stored:
                z = window.slot(nu)
                squares[nu - 1] = np.maximum(squares[nu - 1], np.einsum("ij,ij->j", z, z).max())
    tensor._filled.update(every)
    return tensor, np.sqrt(squares)


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

    The orders run through the blocked cascade (_cascade) that
    reduced_gss shares, composed by assemble_phi on the tensor's view of
    each block; cache_stats are summed over the blocks, and 'qp' runs as
    one block over its harmonic coefficients. Only the live orders run
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
        defaults to 1e-6 x the mode's |lambda| or omega.
    check_divergence : bool
        Warn (DivergenceWarning) when the top order pair's larger term,
        the cascade's sup norm x |delta|^nu, passes 10x the mid pair's.
    """
    _check_int(order, "order", 1)
    if backend not in _BACKENDS:
        raise InvalidParameters(f"backend {backend!r} not one of {_BACKENDS}")
    if backend == "qp":
        Omega = _qp_base_frequencies(base_frequencies, harmonic_budget)
        if harmonic_budget < order:
            warnings.warn(
                f"harmonic_budget {harmonic_budget} is below order {order}: orders above "
                "it drop the harmonics outside sum |k_i| <= budget",
                HarmonicTruncationWarning,
            )
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

    fld = system.nonlinearity
    cache = CompositionCache(max_degree=max(fld.max_degree, 2), degrees=fld.degrees)
    weights = build_kernel_weights(spectral, forcing.dt) if backend == "kernel" else None
    if backend == "qp":
        # a harmonic at a root has no bounded orbit: refuse before any fit
        kappas = _ball_frequencies(Omega, harmonic_budget)
        _qp_guard(spectral, kappas, resonance_tol)
        times = forcing.times()
        denominators, velocity = _modal_transfer(spectral, kappas)
        orbit = _HarmonicOrbit(
            Omega=Omega,
            budget=harmonic_budget,
            times=times,
            fit_from=forcing.pad_length,
            coeffs=CoefficientTensor(
                np.zeros((system.state_dim, order, len(kappas)), dtype=complex),
                forcing.dt, forcing.t0, 0, _filled=set(range(1, order + 1)),
            ),
            product=_lattice_product(len(Omega), harmonic_budget),
            kappas=kappas,
            phases=np.exp(1j * np.outer(kappas, times)),
            denominators=denominators,
            velocity=velocity,
        )

    def compose(window, nu, normalized):
        if backend == "qp" and nu > 1:
            return assemble_phi(system, orbit.coeffs, nu, cache=cache, product=orbit.product)
        return assemble_phi(system, window, nu, forcing_grid=normalized, cache=cache)

    def propagate(phi, nu, carry, out):
        if backend == "kernel":
            return propagate_order(spectral, weights, phi, carry=carry, out=out)
        return _qp_propagate(spectral, phi, nu, orbit)

    tensor, norms = _cascade(
        system.state_dim, forcing, order, cache, compose, propagate,
        # the harmonic cascade has no time axis to split: one block
        step=forcing.length if backend == "qp" else None,
    )

    if check_divergence and order >= 2 and delta_ref != 0.0:
        # adjacent-order pairs: an odd (or even) series is zero at every
        # other order; the terms are compared as logarithms, so no power
        # of delta overflows and its sign does not matter
        half = (order + 1) // 2
        log_delta = math.log(abs(delta_ref))
        l_half, l_top = (
            max((math.log(norms[nu - 1]) + nu * log_delta for nu in pair if norms[nu - 1]),
                default=-math.inf)
            for pair in ((half, half + 1), (order - 1, order))
        )
        gap = l_top - l_half
        if l_half > -math.inf and gap > math.log(10.0):
            ratio = f"{math.exp(gap):.1f}" if gap < 700.0 else f"1e{gap / math.log(10.0):.0f}"
            warnings.warn(
                f"top-order term is {ratio}x the mid-order term "
                f"at delta={delta_ref:.3g}; the series looks divergent there "
                "(consider rational resummation)",
                DivergenceWarning,
            )

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
    one contraction of the (A x K) power matrix (_powers) with the K
    slots of data.

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


@dataclass(frozen=True)
class PadeGss:
    """Rational [L/M] resummation of an expansion, per state coordinate.

    One denominator per coordinate is fit over all grid times; the
    numerator then varies with time. Coefficients are stored in the
    scaled variable s = delta / sigma with sigma = the magnitude of the
    expansion's reference amplitude (1 when it is 0), which keeps the
    least-squares problem balanced.
    ill_conditioned lists coordinates whose denominator fit had singular
    values below 1e-12 of the largest (reported, not raised: the
    evaluation may still be fine away from spurious poles).
    """

    L: int
    M: int
    sigma: float
    num: np.ndarray  # (state_dim, L, T), scaled variable
    den: np.ndarray  # (state_dim, M), scaled variable
    ill_conditioned: tuple
    dt: float
    t0: float
    pad_length: int
    backend: str


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

    Needs L + M completed orders. For each coordinate j the denominator
    coefficients solve, in least squares over all grid times t and
    offsets r = 1..M,

        sum_mu b_mu c_{L+r-mu}(t) = -c_{L+r}(t),   c_k = 0 for k < 1,

    where c_k = z_k sigma^k are the coordinate's Taylor grids in the
    scaled variable. The fit never forms that (M T x M) system. With C_j
    the (T x s) matrix of the coordinate's s stored orders k <= L + M,
    scaled, block r of the system is C_j S_r | C_j e_{L+r}, where S_r
    puts order L+r-mu in column mu (an order that is not stored is a zero
    column). So with C_j = Q_j R_j (_stored_r, by TSQR) the system is
    blockdiag(Q_j) times the stacked small blocks R_j S_r | R_j e_{L+r};
    Q_j has orthonormal columns, so the (M s x M) least-squares problem
    on those blocks has the same solution and the same singular values.
    The numerators sum_{mu<k} b_mu c_{k-mu}, b_0 = 1, are then one
    contraction of a (state_dim, L, s) coefficient array with the stored
    slots.

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
    dim = expansion.state_dim

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
    rows = R.shape[1]
    # (dim, M blocks r, rows, M columns mu), the blocks stacked
    design = R[:, :, cols].transpose(0, 2, 1, 3).reshape(dim, M * rows, M)
    target = -R[:, :, rhs].transpose(0, 2, 1).reshape(dim, M * rows)

    den = np.zeros((dim, M))
    flagged = []
    for j in range(dim):
        den[j], _, _, svals = np.linalg.lstsq(design[j], target[j], rcond=1e-12)
        if svals.size and svals[-1] < 1e-12 * svals[0]:
            flagged.append(j)

    # num_k = sum over mu = 0..min(k-1, M) of b_mu c_{k-mu}, on the slots
    # of the stored orders <= L
    low = [nu for nu in orders if nu <= L]
    weights = np.zeros((dim, L, len(low)))
    b = np.concatenate([np.ones((dim, 1)), den], axis=1)
    for k in range(1, L + 1):
        for mu in range(min(k - 1, M) + 1):
            if k - mu in slot:
                weights[:, k - 1, slot[k - mu]] = b[:, mu]
    weights *= scale[: len(low)]
    num = np.einsum("jki,jit->jkt", weights, tensor.data[:, : len(low)])

    return PadeGss(
        L=L,
        M=M,
        sigma=sigma,
        num=num,
        den=den,
        ill_conditioned=tuple(flagged),
        dt=tensor.dt,
        t0=tensor.t0,
        pad_length=tensor.pad_length,
        backend=expansion.backend,
    )


def evaluate_pade(pade: PadeGss, delta: float) -> np.ndarray:
    """Evaluate the rational representation at a physical amplitude.

    delta must be finite, as must every power of delta / sigma that the
    numerator and denominator take (InvalidParameters otherwise, before
    any contraction). The numerator is the power contraction of
    evaluate_at_amplitudes over the L numerator grids, divided by the
    denominators in place, so the call allocates one (dim, T) array.
    Raises DenominatorNearZero when any coordinate's denominator
    magnitude falls below 1e-8 at this amplitude (a pole of the fit; the
    offending coordinate index is attached).
    """
    s = _amplitudes([delta]) / pade.sigma
    powers_num = _powers(s, range(1, pade.L + 1), [delta])
    powers_den = _powers(s, range(1, pade.M + 1), [delta])[0]
    numerator = _power_sum(powers_num, pade.num)[:, 0]
    denominator = 1.0 + pade.den @ powers_den  # (dim,)
    worst = int(np.argmin(np.abs(denominator)))
    if abs(denominator[worst]) < 1e-8:
        raise DenominatorNearZero(
            f"denominator of coordinate {worst} is {denominator[worst]:.3e} "
            f"at delta={delta:.6g}",
            coordinate=worst,
            delta=float(delta),
        )
    numerator /= denominator[:, None]
    return numerator


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
    unit. Each order of a block is lifted through W and, at order 1,
    joined by the carried linear response of the complement modes (those
    not in spectral.retained, which designates the reduced subspace), so
    every per-order array is block-length; the lift takes the kernel's
    realness policy. A trivial reduction (d = state_dim, W = identity)
    reproduces the full expansion.

    Raises DimensionMismatch if the fields, the decomposition and the
    forcing disagree, UnstableLinearPart if R's linear part has an
    eigenvalue with real part >= -1e-12, and RealnessCheckFailed if a
    lifted order keeps an imaginary residue above 1e-10 x its scale on
    some time block.

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
        comp_carry = Carry()

    # B^{-1} (I_n, 0) in modal coordinates: the input itself on the
    # general path, zero position and velocity u on the structural one
    every = with_retained(spectral, range(total))
    u = every.project(np.eye(n2, n2 // 2))
    if spectral.kind == "structural":
        u = np.stack([np.zeros_like(u), u / every.omega[:, None]])
    b_inverse = _enforce_real(every.reconstruct(u), "B^{-1} forcing")
    forcing_rows = reduced.tangent_rows @ b_inverse  # (d, n)

    cache = CompositionCache(max_degree=max(R.max_degree, 2), degrees=nonlinear.degrees)
    # the lift multiplies reduced orders, which the same table describes
    lift_cache = CompositionCache(
        max_degree=max(reduced.W.max_degree, 2), degrees=nonlinear.degrees
    )

    def compose(w, nu, normalized):
        if nu == 1:
            return forcing_rows @ normalized.T
        return compose_field(nonlinear, w.component, nu, w.length, cache, dtype=complex)

    def propagate(phi, nu, carry, out):
        return _modal_response(reduced_spec, reduced_weights, phi, carry)

    def lift(w, nu, normalized):
        if nu == 1:  # the first order of a new block
            lift_cache.clear()
        z = compose_field(reduced.W, w.component, nu, w.length, lift_cache, dtype=complex)
        if nu == 1 and comp_modes:
            phi1 = np.zeros((n2, w.length))
            phi1[: n2 // 2] = normalized.T
            z += propagate_order(comp_spec, comp_weights, phi1, carry=comp_carry)
        return _enforce_real(z, f"reduced order {nu} lift")

    block = np.zeros((d, order, min(_BLOCK, forcing.length)), dtype=complex)
    orders = CoefficientTensor(block, forcing.dt, forcing.t0, 0)
    tensor, _ = _cascade(n2, forcing, order, cache, compose, propagate, lift, orders)

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
