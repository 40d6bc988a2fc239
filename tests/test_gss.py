import json
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from steadystate import (
    CoefficientTensor,
    GssExpansion,
    assemble_phi,
    build_kernel_weights,
    build_duffing,
    build_oscillator_chain,
    build_system,
    compute_taylor_gss,
    decompose_general,
    decompose_structural,
    evaluate_at_amplitude,
    evaluate_at_amplitudes,
    evaluate_pade,
    evaluate_pade_at_amplitudes,
    frc_sweep,
    generate_forcing,
    load_forcing,
    pade_resum,
    picard_gss,
    propagate_order,
    reduced_gss,
    reduced_model,
    select_modes,
    with_retained,
)
from steadystate.errors import (
    DenominatorNearZero,
    DimensionMismatch,
    DivergenceWarning,
    HarmonicFitIllConditioned,
    HarmonicTruncationWarning,
    InvalidParameters,
    NearResonance,
    RealnessCheckFailed,
    UnstableLinearPart,
)
from steadystate import composition, gss, serialize
from steadystate.composition import CompositionCache, compose_field
from steadystate.gss import fit_harmonics
from steadystate.kernel import Carry
from steadystate.model import first_order_blocks, polynomial_field
from steadystate.spectral import _oscillator_roots
from tests.conftest import first_order_field, identity_lift, random_system
from tests.test_kernel import _general_2dof


def _two_tone(n=1, duration=40.0, dt=0.02, delta=0.02, **kw):
    kw.setdefault("w1", 1.3)
    kw.setdefault("w2", 0.45)
    return generate_forcing(
        "two_tone", n=n, duration=duration, dt=dt, delta=delta,
        seed=11, pad=300, dofs=tuple(range(n)), **kw
    )


class TestComputeTaylor:
    def test_linear_system_is_first_order(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        f = _two_tone(n=2)
        exp = compute_taylor_gss(sys_, f, order=3)
        assert np.abs(exp.tensor.order_slice(2)).max() == 0.0
        assert np.abs(exp.tensor.order_slice(3)).max() == 0.0
        assert np.abs(exp.tensor.order_slice(1)).max() > 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_duffing_order_convergence(self):
        sys_ = build_duffing(omega=1.0, zeta=0.05, kappa3=1.0)
        f = _two_tone(delta=0.025)
        ref = picard_gss(sys_, f, tol=1e-13, max_iter=100).trajectory
        scale = np.abs(ref).max()
        errs = []
        for N in (1, 3, 5):
            exp = compute_taylor_gss(sys_, f, order=N)
            traj = evaluate_at_amplitude(exp, f.max_magnitude)
            errs.append(np.abs(traj - ref).max() / scale)
        assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2]
        assert errs[2] < 1e-7

    def test_qp_backend_matches_kernel(self):
        # the kernel route starts from rest and carries a decaying
        # transient; compare on the late window where only the orbit is left
        sys_ = build_duffing(zeta=0.4, kappa3=0.4)
        f = _two_tone(duration=60.0, dt=0.01, delta=0.04)
        a = compute_taylor_gss(sys_, f, order=3, backend="kernel")
        b = compute_taylor_gss(
            sys_, f, order=3, backend="qp", base_frequencies=(1.3, 0.45)
        )
        za = evaluate_at_amplitude(a, f.max_magnitude)
        zb = evaluate_at_amplitude(b, f.max_magnitude)
        late = slice(2 * za.shape[1] // 3, None)
        diff = np.abs(za[:, late] - zb[:, late]).max()
        assert diff < 1e-4 * np.abs(za[:, late]).max()

    def test_qp_backend_near_resonance(self):
        sys_ = build_duffing(omega=1.0, zeta=1e-4)
        f = _two_tone(dt=0.05, delta=0.01, w1=1.0, w2=0.37)
        with pytest.raises(NearResonance):
            compute_taylor_gss(
                sys_, f, order=1, backend="qp",
                base_frequencies=(1.0, 0.37), resonance_tol=1e-2,
            )

    @pytest.mark.parametrize("entry", ["compute", "frc"])
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), "1e-2", True])
    def test_bad_resonance_tol_is_refused_before_any_fit(self, monkeypatch, entry, tol):
        # criterion 8(b)'s resonant Duffing, where a NaN or negative
        # tolerance would switch the guard off (an orbit of 2e7): every bad
        # value is refused before any fit
        sharp = build_duffing(omega=1.0, zeta=1e-4, kappa3=0.5)
        f = generate_forcing("two_tone", n=1, duration=30.0, dt=0.02, delta=0.01,
                             pad=100, w1=1.0, w2=0.45)
        monkeypatch.setattr(gss, "fit_harmonics", None)
        with pytest.raises(InvalidParameters, match="resonance_tol"):
            if entry == "compute":
                compute_taylor_gss(sharp, f, order=3, backend="qp",
                                   base_frequencies=(1.0, 0.45), resonance_tol=tol)
            else:
                frc_sweep(sharp, [0.45, 1.0], delta=0.01, order=3, resonance_tol=tol)

    @pytest.mark.parametrize("kind", ["structural", "general"])
    def test_resonance_guard_names_the_first_mode(self, monkeypatch, kind):
        # both modes trip: the guard names the first one, as a loop over
        # the retained modes in order would
        sys_ = build_system(np.eye(2), np.diag([2e-4, 4e-4]), np.diag([1.0, 4.0]), terms=[])
        decompose = decompose_structural if kind == "structural" else decompose_general
        monkeypatch.setattr(gss, "_decompose", decompose)
        spec, kappas, tol = decompose(sys_), np.arange(-2.0, 3.0), 1e-2
        if kind == "general":
            units = [([lam], f"eigenvalue {lam:.6g}") for lam in spec.eigenvalues]
        else:
            units = [(_oscillator_roots(w, z), f"oscillator roots (omega={w:.6g}, zeta={z:.6g})")
                     for w, z in zip(spec.omega, spec.zeta)]
        tripped = []
        for roots, what in units:
            dist = np.abs(1j * kappas[:, None] - np.asarray(roots)[None, :]).min(axis=1)
            j = int(np.argmin(dist))
            if dist[j] < tol:
                tripped.append((f"harmonic frequency {kappas[j]:.6g} within {dist[j]:.3e} "
                                f"of {what}", float(dist[j]), (int(kappas[j]),)))
        assert len(tripped) == len(units) >= 2
        t = 0.05 * np.arange(400)
        forcing = load_forcing(np.column_stack([np.sin(t), np.zeros_like(t)]), dt=0.05)
        with pytest.raises(NearResonance) as excinfo:
            compute_taylor_gss(sys_, forcing, order=1, backend="qp", base_frequencies=(1.0,),
                               harmonic_budget=2, resonance_tol=tol)
        # the multi-index of the nearest harmonic on the budget-2 ball of (1.0,)
        assert (str(excinfo.value), excinfo.value.distance, excinfo.value.k) == tripped[0]

    @pytest.mark.parametrize("case", ["duffing_two_tone", "general_cubic"])
    def test_qp_matches_grid_refit(self, case):
        # the lattice convolution against the algorithm it replaced:
        # compose each order on the time grid, then refit its harmonics
        if case == "duffing_two_tone":
            sys_ = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
            f = generate_forcing("two_tone", n=1, duration=60.0, dt=0.02, delta=0.4,
                                 pad=150, w1=1.3, w2=0.45)
            order = 5
        else:
            base = _general_2dof()
            sys_ = build_system(base.M, base.C, base.K, terms=[((2, 1, 0, 0), 1, 0.4)],
                                damping="general")
            f = _two_tone(n=2, duration=60.0, delta=0.3)
            order = 3
        got = compute_taylor_gss(sys_, f, order=order, backend="qp",
                                 base_frequencies=(1.3, 0.45), harmonic_budget=5)
        ref = _grid_refit_qp(sys_, f, order, (1.3, 0.45), 5)
        assert np.abs(ref[-1]).max() > 0.0
        for nu in range(1, order + 1):
            diff = np.abs(got.tensor.order_slice(nu) - ref[nu - 1]).max()
            assert diff <= 1e-10 * np.abs(ref[nu - 1]).max()

    def test_qp_general_damping_matches_kernel(self):
        # complex modes above order 1: non-proportional damping, a cubic
        # coupling term, late window as in test_qp_backend_matches_kernel
        M = np.diag([1.0, 1.5])
        K = np.array([[3.0, -1.0], [-1.0, 2.0]])
        sys_ = build_system(M, np.diag([0.8, 0.6]), K, terms=[((2, 1, 0, 0), 1, 0.4)],
                            damping="general")
        f = _two_tone(n=2, duration=90.0, dt=0.005, delta=0.3)
        a = compute_taylor_gss(sys_, f, order=3, backend="kernel")
        b = compute_taylor_gss(sys_, f, order=3, backend="qp", base_frequencies=(1.3, 0.45))
        assert b.spectral.kind == "general"
        late = slice(2 * f.length // 3, None)
        for nu in (1, 3):
            za = a.tensor.order_slice(nu)[:, late]
            zb = b.tensor.order_slice(nu)[:, late]
            assert np.abs(za).max() > 0.0
            assert np.abs(za - zb).max() < 1e-4 * np.abs(za).max()

    def test_qp_agrees_across_decompositions(self, monkeypatch):
        # an ill-conditioned fit (budget 7 on a 20 s record): both kinds
        # must take the same realness policy on the same coefficients
        sys_ = _oscillator_of_degrees((3,))
        f = _two_tone(duration=20.0, delta=0.3)
        kw = dict(order=7, backend="qp", base_frequencies=(1.3, 0.45), harmonic_budget=7)
        with pytest.warns(HarmonicFitIllConditioned):
            a = compute_taylor_gss(sys_, f, **kw)
        monkeypatch.setattr(gss, "_decompose", decompose_general)
        with pytest.warns(HarmonicFitIllConditioned):
            b = compute_taylor_gss(sys_, f, **kw)
        assert (a.spectral.kind, b.spectral.kind) == ("structural", "general")
        diff = np.abs(a.tensor.data - b.tensor.data).max()
        assert diff <= 1e-9 * np.abs(a.tensor.data).max()

    def test_qp_truncation_warning(self):
        sys_ = build_duffing(zeta=0.4, kappa3=0.4)
        f = _two_tone()
        with pytest.warns(HarmonicTruncationWarning, match="below order 3"):
            compute_taylor_gss(sys_, f, order=3, backend="qp",
                               base_frequencies=(1.3, 0.45), harmonic_budget=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HarmonicTruncationWarning)
            compute_taylor_gss(sys_, f, order=3, backend="qp",
                               base_frequencies=(1.3, 0.45), harmonic_budget=3)

    def test_ill_conditioned_fit_warns(self):
        # budget 7 on 20 s of two tones: 113 harmonics, condition ~5e15
        f = _two_tone(duration=20.0, delta=0.3)
        rows, times = f.samples[f.pad_length:].T, f.times()[f.pad_length:]
        with pytest.warns(HarmonicFitIllConditioned, match=r"condition number \d\.\d+e\+1[5-7]"):
            fit_harmonics(rows, times, (1.3, 0.45), budget=7)
        with pytest.warns(HarmonicFitIllConditioned, match="condition number inf"):
            fit_harmonics(rows[:, :100], times[:100], (1.3, 0.45), budget=7)
        # whole periods of one frequency: the discrete Fourier transform
        w, t = 2.0 * np.pi / 25.6, 0.1 * np.arange(256)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HarmonicFitIllConditioned)
            _, coeffs = fit_harmonics(np.sin(w * t)[None], t, (w,))
        assert np.allclose(coeffs[0, [4, 6]], [0.5j, -0.5j])  # harmonics -1 and +1
        assert np.allclose(np.delete(coeffs[0], [4, 6]), 0.0)

    @pytest.mark.parametrize("base_frequencies,budget", [
        ((np.nan,), 5), ((1.0,), -1), ((1.0,), 1.5), ((), 5), ((1.0, 1.0), 5),
    ], ids=["nan", "negative-budget", "fractional-budget", "empty", "repeated"])
    def test_fit_harmonics_checks_its_arguments(self, base_frequencies, budget):
        t = 0.1 * np.arange(256)
        with pytest.raises(InvalidParameters):
            fit_harmonics(np.sin(t)[None], t, base_frequencies, budget)

    def test_criterion_8_fits_are_well_conditioned(self):
        # the solves of criterion 8: (a), (b), whose guard refuses before
        # any fit, and the sweep points of (c)
        sys_ = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
        sharp = build_duffing(omega=1.0, zeta=1e-4, kappa3=0.5)
        f_res = generate_forcing("two_tone", n=1, duration=30.0, dt=0.02, delta=0.01,
                                 pad=100, w1=1.0, w2=0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HarmonicFitIllConditioned)
            for dt in (0.04, 0.02, 0.01):
                f = generate_forcing("two_tone", n=1, duration=60.0, dt=dt, delta=0.4,
                                     pad=int(round(3.0 / dt)), w1=1.3, w2=0.45)
                compute_taylor_gss(sys_, f, order=5, backend="qp", base_frequencies=(1.3, 0.45))
            with pytest.raises(NearResonance):
                compute_taylor_gss(sharp, f_res, order=3, backend="qp",
                                   base_frequencies=(1.0, 0.45), resonance_tol=1e-2)
            chain = build_oscillator_chain(20, m=0.1, k_lin=100.0, c=3.0, kappa3=2500.0)
            sweep = frc_sweep(chain, [7.0, 11.7, 16.3], delta=4.0, order=5, dofs=(4,))
        assert not any(sweep.flags)

    def test_divergence_warning(self):
        sys_ = build_duffing(zeta=0.02, kappa3=200.0)
        f = _two_tone(delta=1.0)
        with pytest.warns(DivergenceWarning):
            compute_taylor_gss(sys_, f, order=6)

    def test_invalid_arguments(self, rng):
        sys_ = build_duffing()
        f = _two_tone()
        with pytest.raises(InvalidParameters):
            compute_taylor_gss(sys_, f, order=0)
        with pytest.raises(InvalidParameters):
            compute_taylor_gss(sys_, f, order=2, backend="rk4")
        with pytest.raises(InvalidParameters):
            compute_taylor_gss(sys_, f, order=2, backend="qp")
        with pytest.raises(DimensionMismatch):
            compute_taylor_gss(sys_, _two_tone(n=2), order=2)
        # qp: base frequencies non-empty, finite, > 0 and rationally
        # independent within the ball; the budget an int >= 0
        for base in ((), (0.0,), (-1.3,), (np.nan,), (1.3, np.inf), (1.0, 2.0)):
            with pytest.raises(InvalidParameters):
                compute_taylor_gss(sys_, f, order=2, backend="qp", base_frequencies=base)
        for budget in (-1, 2.5, None):
            with pytest.raises(InvalidParameters):
                compute_taylor_gss(
                    sys_, f, order=2, backend="qp", base_frequencies=(1.3, 0.45),
                    harmonic_budget=budget,
                )

    def test_integer_arguments(self):
        # order and the qp budget are integers: a float or a bool is refused
        # before any work, not truncated or run as 1
        sys_ = build_duffing()
        f = _two_tone()
        for order in (2.5, True, 2.0):
            with pytest.raises(InvalidParameters, match="order"):
                compute_taylor_gss(sys_, f, order=order)
        with pytest.raises(InvalidParameters, match="harmonic_budget"):
            compute_taylor_gss(sys_, f, order=2, backend="qp", base_frequencies=(1.3, 0.45),
                               harmonic_budget=True)
        assert compute_taylor_gss(sys_, f, order=np.int64(2)).order == 2

    def test_mode_truncation_reduces_retained(self):
        # one fast, strongly damped mode: a coarse grid drops it
        M = np.eye(2)
        K = np.diag([1.0, 2.5e5])
        # mode 2: omega = 500, zeta = 0.5, decay e^{-250 dt} ~ 4e-6
        C = 0.01 * M + 0.002 * K
        sys_ = build_system(M, C, K)
        f = _two_tone(n=2, dt=0.05)
        exp = compute_taylor_gss(sys_, f, order=1, eps_trunc=1e-3)
        assert exp.spectral.retained == (0,)


def _grid_refit_qp(system, forcing, order, base_frequencies, budget):
    """Order grids, each (2n, T), of the qp backend's earlier algorithm:
    each order's force is composed on the time grid and fit with
    harmonics after the pad, and every harmonic is solved through the
    physical frequency response (K - kappa^2 M + i kappa C)."""
    n, T, pad = system.n, forcing.length, forcing.pad_length
    times = forcing.times()
    grids = []
    cache = CompositionCache(max_degree=max(system.nonlinearity.max_degree, 2))
    for nu in range(1, order + 1):
        if nu == 1:
            force = forcing.samples.T / forcing.max_magnitude
        else:
            force = -compose_field(
                system.nonlinearity, lambda i, m: grids[m - 1][i], nu, T, cache
            )
        kappas, coeffs = fit_harmonics(force[:, pad:], times[pad:], base_frequencies, budget)
        z = np.zeros((2 * n, T), dtype=complex)
        for kappa, c in zip(kappas, coeffs.T):
            H = np.linalg.solve(system.K - kappa**2 * system.M + 1j * kappa * system.C, c)
            phase = np.exp(1j * kappa * times)
            z[:n] += np.outer(H, phase)
            z[n:] += np.outer(1j * kappa * H, phase)
        grids.append(z.real)
    return grids


def _cubic_chain(general=False):
    """A 3-mass cubic chain; general adds a dashpot at the first mass,
    which makes the damping non-proportional."""
    chain = build_oscillator_chain(3, m=1.0, k_lin=1.0, c=0.1, kappa3=0.5)
    if not general:
        return chain
    C = chain.C.copy()
    C[0, 0] += 0.3
    terms = [
        (exponents, dof, float(c))
        for exponents, coeff in chain.nonlinearity.terms
        for dof, c in enumerate(np.asarray(coeff))
        if c != 0.0
    ]
    return build_system(chain.M, C, chain.K, terms=terms)


def _chain_noise(length, pad=0):
    return generate_forcing("filtered_gaussian", n=3, duration=(length - pad - 1) * 0.05,
                            dt=0.05, delta=0.3, seed=5, f_cut=1.0, pad=pad, dofs=(0, 2))


def _blocked_run(system, forcing, backend, order):
    """compute_taylor_gss with the backend, or reduced_gss: on the
    trivial reduction of the system ('reduced'), or on its first mode
    with a cubic term in R and in W, beside the complement modes
    ('reduced-modal', which needs every cache and carry of the lift)."""
    if backend == "reduced":
        eye = np.eye(system.state_dim)
        model = reduced_model(first_order_field(system), identity_lift(len(eye)), eye, eye)
        return reduced_gss(model, decompose_structural(system), forcing, order=order)
    if backend == "reduced-modal":
        spec = decompose_structural(system)
        modal = _modal_reduced_model(system, spec, 0)
        R = polynomial_field(2, 2, [*modal.R.terms, ((3, 0), [0.0, -0.5])], min_degree=1)
        W = polynomial_field(
            2, system.state_dim, [*modal.W.terms, ((2, 1), np.full(system.state_dim, 0.1))],
            min_degree=1,
        )
        model = reduced_model(R, W, modal.tangent_rows, modal.tangent_cols)
        return reduced_gss(model, with_retained(spec, (0,)), forcing, order=order)
    return compute_taylor_gss(system, forcing, order=order, backend=backend)


class TestBlockedCascade:
    @pytest.mark.parametrize("backend,general", [
        ("kernel", False), ("kernel", True), ("reduced", False), ("reduced-modal", False),
    ], ids=["kernel-structural", "kernel-general", "reduced", "reduced-modal"])
    def test_every_block_size_matches_one_block(self, monkeypatch, backend, general):
        # no pad: the first sample is nonzero, so the structural path
        # carries its impulse correction across the blocks
        sys_ = _cubic_chain(general)
        f = _chain_noise(41)
        assert np.all(f.samples[0, [0, 2]] != 0.0)
        T = f.length
        monkeypatch.setattr(gss, "_BLOCK", T)
        one = _blocked_run(sys_, f, backend, order=5)
        assert one.spectral.kind == ("general" if general else "structural")
        assert np.abs(one.tensor.order_slice(5)).max() > 0.0
        for size in range(2, T + 1):
            monkeypatch.setattr(gss, "_BLOCK", size)
            got = _blocked_run(sys_, f, backend, order=5)
            assert got.tensor.orders_complete == 5
            for nu in range(1, 6):
                ref = one.tensor.order_slice(nu)
                diff = np.abs(got.tensor.order_slice(nu) - ref).max()
                assert diff <= 1e-13 * np.abs(ref).max(), (size, nu)

    def test_cache_counters_do_not_depend_on_the_batching(self, monkeypatch):
        # the counters count rows of products: one row per batch and
        # every row of a degree in one batch read the same, on time
        # blocks of any length and on the qp harmonics
        sys_ = build_oscillator_chain(6, kappa3=0.3)
        f = generate_forcing("filtered_gaussian", n=6, duration=299 * 0.05, dt=0.05,
                             delta=0.3, seed=5, f_cut=1.0)
        tones = generate_forcing("two_tone", n=6, duration=60.0, dt=0.05, delta=0.1,
                                 w1=1.3, w2=0.45, dofs=(0, 5))
        runs = [(f, dict(order=7), block) for block in (f.length, 128, 16)]
        runs.append((tones, dict(order=5, backend="qp", base_frequencies=(1.3, 0.45)), None))
        seen = []
        for forcing, kw, block in runs:
            monkeypatch.setattr(gss, "_BLOCK", block or gss._BLOCK)
            stats = []
            for batch in (1, 10**6):  # rows per batch: max(1, batch // length)
                monkeypatch.setattr(composition, "_BATCH_SAMPLES", batch)
                stats.append(compute_taylor_gss(sys_, forcing, **kw).cache_stats)
            assert stats[0] == stats[1], (block, stats)
            seen.append(stats[0])
        # each spring's cube keeps one row per order of its square
        assert seen[0] == {"hits": 21, "misses": 21, "entries": 21}
        assert seen[2]["entries"] == 21 and seen[2]["hits"] > seen[0]["hits"]

    def test_repeated_runs_are_bit_identical(self):
        sys_ = _cubic_chain()
        f = _chain_noise(3 * gss._BLOCK + 1000, pad=500)
        for backend in ("kernel", "reduced", "reduced-modal"):
            a = _blocked_run(sys_, f, backend, order=3)
            b = _blocked_run(sys_, f, backend, order=3)
            assert a.tensor.data.tobytes() == b.tensor.data.tobytes(), backend
            assert a.cache_stats == b.cache_stats, backend

    def test_memory_beyond_the_tensor_does_not_grow_with_the_record(self):
        # the composition products and per-order temporaries are
        # block-length: a record 4x longer only grows the tensor
        sys_ = _cubic_chain()
        for backend in ("kernel", "reduced"):
            extra = []
            for length in (3 * gss._BLOCK, 12 * gss._BLOCK):
                f = _chain_noise(length)
                tracemalloc.start()
                try:
                    exp = _blocked_run(sys_, f, backend, order=3)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                extra.append(peak - exp.tensor.data.nbytes)
            assert extra[1] <= 1.05 * extra[0], backend


def _both_routes(system, forcing, order, spectral):
    """The kernel cascade of compute_taylor_gss, each order's step run
    on both routes: the modal inputs it propagates (assemble_phi with
    the basis P = force_rows, P inside the contraction) and, on carries
    of their own, P applied after the contraction to the force block
    g_nu (assemble_phi without a basis); at order 1 both are P applied
    to the block's normalized forcing. Returns the first route's
    tensor and, per (block start, order), the largest difference of the
    two steps over the second step's largest magnitude."""
    fld = system.nonlinearity
    cache = CompositionCache(max_degree=max(fld.max_degree, 2), degrees=fld.degrees)
    weights = build_kernel_weights(spectral, forcing.dt)
    basis = spectral.force_rows(real=True)
    live = [nu for nu in range(1, order + 1) if cache.reaches(1, nu)]
    mapped = {nu: Carry() for nu in live}
    gaps = {}

    def solve(window, nu, normalized, carry):
        if nu == 1:
            cache.clear()
            g = normalized.T
            inputs = basis @ g
        else:
            g = assemble_phi(system, window, nu, cache=cache)
            inputs = assemble_phi(system, window, nu, cache=cache, basis=basis)
        want = propagate_order(spectral, weights, basis @ g, mapped[nu])
        got = propagate_order(spectral, weights, inputs, carry, out=window.slot(nu))
        gaps[window.t0, nu] = np.abs(got - want).max() / np.abs(want).max()
        return got

    tensor, _ = gss._cascade(system.state_dim, forcing, order, live, solve)
    return tensor, gaps


class TestModalRoute:
    """Each order composed straight into its modal inputs agrees with
    its force block mapped by the same rows afterwards, on the
    structural path, the folded general path, and the complex route of
    a general retained set that no pair folds in, at every live order
    and block, carries included."""

    @pytest.mark.parametrize("case", ["structural", "folded", "split"])
    def test_modal_inputs_match_the_physical_route(self, monkeypatch, case):
        monkeypatch.setattr(gss, "_BLOCK", 128)
        sys_ = _cubic_chain(general=case != "structural")
        f = _chain_noise(3 * 128 + 50)
        spec = gss._decompose(sys_)
        retained = select_modes(spec, f.dt)
        if case == "split":
            # each pair's members apart: the fold needs the partner next
            assert np.all(spec.eigenvalues.imag[0::2] > 0.0)
            retained = retained[0::2] + retained[1::2]
        spec = with_retained(spec, retained)
        assert len(retained) == (3 if case == "structural" else 6)
        assert (spec._folded is not None) == (case == "folded")
        tensor, gaps = _both_routes(sys_, f, 5, spec)
        assert sorted(gaps) == [(f.t0 + s * f.dt, nu) for s in range(0, f.length, 128)
                                for nu in (1, 3, 5)]
        assert max(gaps.values()) <= 1e-13, max(gaps.items(), key=lambda g: g[1])
        if case != "split":  # the helper is compute_taylor_gss's step, bit for bit
            want = compute_taylor_gss(sys_, f, order=5).tensor
            assert tensor.stored == want.stored
            assert np.array_equal(tensor.data, want.data)


# monomial degrees of a one-mass system's nonlinearity, and the orders
# through 7 that its cascade reaches
_LIVE = {
    (3,): (1, 3, 5, 7),
    (4,): (1, 4, 7),
    (3, 5): (1, 3, 5, 7),
    (2, 3): (1, 2, 3, 4, 5, 6, 7),
}


def _read_back_norms(tensor):
    """Each order's largest state 2-norm, read back from the finished
    tensor _BLOCK columns at a time, as the divergence check once did;
    0.0 for an order without a slot."""
    norms = []
    for nu in range(1, tensor.order_max + 1):
        if nu not in tensor.stored:
            norms.append(0.0)
            continue
        z = tensor.order_slice(nu)
        starts = range(0, z.shape[1], gss._BLOCK)
        norms.append(max(np.linalg.norm(z[:, s : s + gss._BLOCK], axis=0).max() for s in starts))
    return np.array(norms)


def _capture_norms(monkeypatch):
    """Wrap gss._warn_divergence, the verdict both backends hand their
    norms to; the returned list collects each call's norms."""
    seen, verdict = [], gss._warn_divergence

    def wrapper(norms, *args, **kwargs):
        seen.append(norms)
        return verdict(norms, *args, **kwargs)

    monkeypatch.setattr(gss, "_warn_divergence", wrapper)
    return seen


class TestOrderNorms:
    @pytest.mark.parametrize("block", ["T", 7, 2])
    @pytest.mark.parametrize("backend,general", [
        ("kernel", False), ("kernel", True), ("qp", False),
    ], ids=["kernel-structural", "kernel-general", "qp"])
    def test_norms_equal_the_read_back_pass(self, monkeypatch, backend, general, block):
        sys_ = _cubic_chain(general)
        if backend == "qp":
            f = generate_forcing("two_tone", n=3, duration=60.0, dt=0.05, delta=0.3,
                                 w1=1.3, w2=0.45, dofs=(0, 2))
            kw = dict(base_frequencies=(1.3, 0.45))
        else:
            f, kw = _chain_noise(300, pad=20), {}
        monkeypatch.setattr(gss, "_BLOCK", f.length if block == "T" else block)
        seen = _capture_norms(monkeypatch)
        exp = compute_taylor_gss(sys_, f, order=5, backend=backend, **kw)
        assert exp.spectral.kind == ("general" if general else "structural")
        (norms,) = seen
        want = _read_back_norms(exp.tensor)
        assert norms.tobytes() == want.tobytes()
        assert want[0] > 0.0 and want[4] > 0.0 and want[1] == want[3] == 0.0

    def test_no_order_is_read_back_after_the_cascade(self, monkeypatch):
        def refuse(tensor, nu):
            raise AssertionError(f"order {nu} read back from the tensor")

        monkeypatch.setattr(CoefficientTensor, "order_slice", refuse)
        for order in (2, 5):
            compute_taylor_gss(_cubic_chain(), _chain_noise(300), order=order)

    @pytest.mark.parametrize("system,delta,warns", [
        ("cubic", 0.3, False), ("quadratic", 2.0, False), ("quadratic", 3.0, True),
    ])
    def test_verdict_follows_the_read_back_rule(self, system, delta, warns):
        # the divergence rule on the read-back norms, against the warning
        # the cascade's norms raise; the quadratic field makes every order
        # live, so each of the four compared orders has a slot
        if system == "cubic":
            sys_, f = _cubic_chain(), _chain_noise(300)  # delta 0.3
        else:
            sys_, f = _oscillator_of_degrees((2,)), _two_tone(duration=20.0, delta=delta)
        order = 6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergenceWarning)
            ref = compute_taylor_gss(sys_, f, order=order)
        assert ref.tensor.stored == ((1, 3, 5) if system == "cubic" else tuple(range(1, 7)))
        scaled = _read_back_norms(ref.tensor) * ref.delta_ref ** np.arange(1.0, order + 1)
        ratio = max(scaled[order - 2 :]) / max(scaled[2:4])
        assert (ratio > 10.0) == warns
        if warns:
            with pytest.warns(DivergenceWarning, match=f"{ratio:.1f}x"):
                compute_taylor_gss(sys_, f, order=order)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DivergenceWarning)
                compute_taylor_gss(sys_, f, order=order)


class TestSignedAmplitude:
    """The divergence verdict and the Pade scale read only |delta|."""

    @staticmethod
    def _verdicts(delta):
        f = generate_forcing("two_tone", n=1, duration=20.0, dt=0.05, delta=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DivergenceWarning)
            exp = compute_taylor_gss(build_duffing(kappa3=5.0), f, order=7, delta=delta)
        return exp, [str(w.message) for w in caught if w.category is DivergenceWarning]

    @pytest.mark.parametrize("delta", [50.0, 0.3, 1e200, 1e-200])
    def test_sign_does_not_change_the_verdict(self, delta):
        _, plus = self._verdicts(delta)
        _, minus = self._verdicts(-delta)
        assert len(plus) == len(minus) == (delta > 1.0)
        assert [m.split(" at delta=")[0] for m in minus] == [m.split(" at delta=")[0] for m in plus]

    def test_huge_amplitude_gives_a_verdict(self):
        # the ratio of the compared terms, 1e402, is printed, not computed
        _, (message,) = self._verdicts(1e200)
        assert "is 1e402x the mid-order term" in message

    def test_pade_fits_equal_at_either_sign(self):
        plus, _ = self._verdicts(0.3)
        minus, _ = self._verdicts(-0.3)
        a, b = pade_resum(plus, 3, 2), pade_resum(minus, 3, 2)
        assert a.sigma == b.sigma == 0.3
        assert a.den.tobytes() == b.den.tobytes()
        assert a.num.tobytes() == b.num.tobytes()
        assert np.array_equal(evaluate_pade(a, -0.2), evaluate_pade(b, -0.2))


class TestExtremeAmplitudes:
    """A power of an amplitude that leaves the float range is refused with
    InvalidParameters, before any factorization or contraction."""

    @staticmethod
    def _expansion(delta=None):
        f = generate_forcing("two_tone", n=1, duration=20.0, dt=0.05, delta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergenceWarning)
            return compute_taylor_gss(build_duffing(kappa3=5.0), f, order=7, delta=delta)

    @pytest.mark.parametrize("delta_ref", [1e200, 1e-200])
    def test_pade_refuses_a_reference_amplitude_out_of_range(self, capfd, delta_ref):
        # sigma^3 overflows to inf or underflows to 0; LAPACK never sees it
        exp = self._expansion(delta_ref)
        capfd.readouterr()
        with pytest.raises(InvalidParameters, match=r"order 3 by \|delta_ref\|\^3"):
            pade_resum(exp, 3, 2)
        assert capfd.readouterr().err == ""

    def test_evaluation_refuses_an_overflowing_power(self):
        exp = self._expansion()
        assert exp.tensor.stored == (1, 3, 5, 7)
        with pytest.raises(InvalidParameters, match=r"delta=1e\+100 overflows at order 5"):
            evaluate_at_amplitude(exp, 1e100)
        with pytest.raises(InvalidParameters, match=r"delta=-1e\+100 overflows at order 5"):
            evaluate_at_amplitudes(exp, [0.3, -1e100])
        pade = pade_resum(exp, 3, 2)
        with pytest.raises(InvalidParameters, match=r"delta=1e\+300 overflows at order 2"):
            evaluate_pade(pade, 1e300)
        # a power that underflows is the term's own limit, not an error
        tiny = evaluate_at_amplitude(exp, 1e-200)
        assert np.array_equal(tiny, 1e-200 * exp.tensor.order_slice(1))
        assert np.isfinite(evaluate_pade(pade, 1e-200)).all()


def _oscillator_of_degrees(degrees):
    """A damped one-mass oscillator with a position and a mixed term of
    each degree."""
    terms = []
    for d in degrees:
        terms.append(((d, 0), 0, 0.5))
        terms.append(((d - 1, 1), 0, 0.2))
    return build_system(np.eye(1), [[0.2]], [[1.0]], terms=terms)


def _every_order_live(monkeypatch):
    """Make the caches of compute_taylor_gss and reduced_gss treat every
    order as live, so that they compose and propagate the zero grids too."""
    monkeypatch.setattr(
        gss, "CompositionCache", lambda max_degree, degrees: CompositionCache(max_degree)
    )


def _live_run(system, forcing, backend, order=7):
    if backend != "qp":
        return compute_taylor_gss(system, forcing, order=order, backend=backend)
    # a budget-7 ball on these short records is an ill-conditioned fit, on
    # purpose: the tests compare paths bit for bit on the same coefficients
    with pytest.warns(HarmonicFitIllConditioned):
        return compute_taylor_gss(system, forcing, order=order, backend=backend,
                                  base_frequencies=(1.3, 0.45), harmonic_budget=order)


class TestLiveOrders:
    @pytest.mark.parametrize("backend", gss._BACKENDS)
    @pytest.mark.parametrize("degrees", list(_LIVE), ids=str)
    def test_zero_orders_and_bits(self, monkeypatch, backend, degrees):
        sys_ = _oscillator_of_degrees(degrees)
        f = _two_tone(duration=20.0, delta=0.3)
        got = _live_run(sys_, f, backend).tensor
        _every_order_live(monkeypatch)
        ref = _live_run(sys_, f, backend).tensor
        for nu in range(1, 8):
            z = got.order_slice(nu)
            if nu in _LIVE[degrees]:
                assert np.any(z != 0.0), nu
                assert np.array_equal(z, ref.order_slice(nu)), nu
            else:
                assert not np.any(z) and not np.signbit(z).any(), nu
                assert not np.any(ref.order_slice(nu)), nu

    @pytest.mark.parametrize("backend", ["kernel"])
    def test_tensor_stores_only_live_orders(self, monkeypatch, backend):
        sys_ = _oscillator_of_degrees((3,))
        f = _two_tone(duration=20.0, delta=0.3)
        got = _live_run(sys_, f, backend)
        _every_order_live(monkeypatch)
        ref = _live_run(sys_, f, backend)
        assert got.tensor.stored == (1, 3, 5, 7)
        assert got.tensor.data.shape == (2, (7 + 1) // 2, f.length)
        assert ref.tensor.data.shape == (2, 7, f.length)
        for nu in range(1, 8):
            assert np.array_equal(got.tensor.order_slice(nu), ref.tensor.order_slice(nu)), nu
        for delta in (0.3, -0.2):
            assert np.array_equal(evaluate_at_amplitude(got, delta),
                                  evaluate_at_amplitude(ref, delta))

    @pytest.mark.parametrize("backend,propagator", [
        ("kernel", "propagate_order"),
        ("qp", "_qp_propagate"),
    ])
    @pytest.mark.parametrize("degrees", list(_LIVE), ids=str)
    def test_propagates_only_live_orders(self, monkeypatch, backend, propagator, degrees):
        sys_ = _oscillator_of_degrees(degrees)
        f = _two_tone(duration=4.0, delta=0.3)
        monkeypatch.setattr(gss, "_BLOCK", 128)
        blocks = 1 if backend == "qp" else -(-f.length // 128)
        assert backend == "qp" or blocks > 2
        calls = []
        inner = getattr(gss, propagator)

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(gss, propagator, counted)
        _live_run(sys_, f, backend)
        assert len(calls) == blocks * len(_LIVE[degrees])
        if 2 in degrees:
            assert len(calls) == blocks * 7

    def test_reduced_gss_uses_the_same_rule(self, monkeypatch):
        # a trivial reduction of a cubic system: only the odd orders run,
        # and they equal the full recursion's bits
        sys_ = _oscillator_of_degrees((3,))
        f = _two_tone(delta=0.3)
        spec = with_retained(decompose_structural(sys_), (0,))
        model = reduced_model(first_order_field(sys_), identity_lift(2), np.eye(2), np.eye(2))
        calls = []
        inner = gss._modal_response

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(gss, "_modal_response", counted)
        got = reduced_gss(model, spec, f, order=6).tensor
        assert len(calls) == 3
        _every_order_live(monkeypatch)
        ref = reduced_gss(model, spec, f, order=6).tensor
        assert len(calls) == 3 + 6
        for nu in range(1, 7):
            if nu % 2:
                assert np.any(got.order_slice(nu) != 0.0)
                assert np.array_equal(got.order_slice(nu), ref.order_slice(nu)), nu
            else:
                assert not np.any(got.order_slice(nu)), nu
                assert not np.any(ref.order_slice(nu)), nu


class TestEvaluate:
    def test_manual_partial_sum(self, rng):
        sys_ = build_duffing(kappa3=0.7)
        f = _two_tone(delta=0.05)
        exp = compute_taylor_gss(sys_, f, order=4)
        d = 0.031
        manual = sum(
            exp.tensor.order_slice(nu) * d**nu for nu in range(1, 5)
        )
        assert np.abs(evaluate_at_amplitude(exp, d) - manual).max() < 1e-15

    def test_max_order_truncation(self):
        sys_ = build_duffing(kappa3=0.7)
        f = _two_tone(delta=0.05)
        exp = compute_taylor_gss(sys_, f, order=4)
        z1 = evaluate_at_amplitude(exp, 0.02, max_order=1)
        assert np.abs(z1 - 0.02 * exp.tensor.order_slice(1)).max() < 1e-16
        with pytest.raises(InvalidParameters):
            evaluate_at_amplitude(exp, 0.02, max_order=9)
        with pytest.raises(InvalidParameters):
            evaluate_at_amplitude(exp, 0.02, max_order=0)

    def test_max_order_must_be_an_integer(self):
        exp = compute_taylor_gss(build_duffing(kappa3=0.7), _two_tone(delta=0.05), order=4)
        for top in (2.7, True, 2.0):
            with pytest.raises(InvalidParameters, match="max_order"):
                evaluate_at_amplitudes(exp, [0.02], max_order=top)

    def test_amplitude_scaling_first_order(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        f = _two_tone(n=2)
        exp = compute_taylor_gss(sys_, f, order=1)
        assert np.abs(
            evaluate_at_amplitude(exp, 0.2) - 2.0 * evaluate_at_amplitude(exp, 0.1)
        ).max() < 1e-14


def _expansion_of(grids, sigma):
    """A system-free expansion whose order-nu grid is grids[nu - 1]."""
    dim, T = grids[0].shape
    tensor = CoefficientTensor.empty(dim, len(grids), T, dt=0.1)
    for nu, grid in enumerate(grids, start=1):
        tensor.insert_slice(nu, grid)
    return GssExpansion(
        system=None,
        spectral=None,
        tensor=tensor,
        order=len(grids),
        backend="kernel",
        delta_ref=sigma,
        forcing_sup=1.0,
        eps_trunc=1e-3,
        cache_stats={},
    )


def _geometric_expansion(rng, ratio, sigma, orders, T=16, dim=2):
    base = rng.normal(size=(dim, T))
    return base, _expansion_of([base * ratio**nu for nu in range(1, orders + 1)], sigma)


class TestPade:
    def test_geometric_is_exact(self, rng):
        # z(delta) = base * r delta / (1 - r delta) has an exact [1/1] form
        r = 2.0
        base, exp = _geometric_expansion(rng, r, sigma=0.25, orders=4)
        pade = pade_resum(exp, 1, 1)
        assert pade.den.shape == (1,)
        assert np.abs(pade.den + r * 0.25).max() < 1e-12
        d = 0.45  # r*d = 0.9: near the pole, Taylor converges slowly
        closed = base * (r * d / (1.0 - r * d))
        out = evaluate_pade(pade, d)
        assert np.abs(out - closed).max() < 1e-10 * np.abs(closed).max()

    def test_orders_must_be_integers(self, rng):
        _, exp = _geometric_expansion(rng, 2.0, sigma=0.25, orders=4)
        for L, M in ((1.5, 1), (1, 1.0), (True, 1), (1, 0)):
            with pytest.raises(InvalidParameters):
                pade_resum(exp, L, M)

    def test_pole_raises(self, rng):
        r = 2.0
        _, exp = _geometric_expansion(rng, r, sigma=0.25, orders=4)
        pade = pade_resum(exp, 1, 1)
        with pytest.raises(DenominatorNearZero) as info:
            evaluate_pade(pade, 0.5)  # r * delta = 1: the pole
        assert info.value.delta == pytest.approx(0.5)

    def test_pole_is_one_over_the_ratio(self, rng):
        # 1 - r delta: the [1/1] fit's one pole is 1 / r, at every sigma
        for r, sigma in ((2.0, 0.25), (-3.0, 1.7), (0.5, 1e-3)):
            _, exp = _geometric_expansion(rng, r, sigma=sigma, orders=4)
            (pole,) = pade_resum(exp, 1, 1).poles
            assert abs(pole - 1.0 / r) < 1e-12

    def test_poles_are_the_denominator_roots_nearest_first(self, rng):
        pade = pade_resum(_random_expansion(rng, 5, T=40), 2, 3)
        poles = pade.poles
        assert poles.shape == (3,)
        assert np.all(np.diff(np.abs(poles)) >= 0.0)
        s = poles / pade.sigma
        values = 1.0 + np.stack([s, s**2, s**3], axis=1) @ pade.den
        assert np.abs(values).max() < 1e-9

    def test_overparameterized_flags_but_still_evaluates(self, rng):
        # [2/2] on exactly-geometric data: the denominator system is
        # rank deficient (flagged) yet the rational function is unchanged
        r = 2.0
        base, exp = _geometric_expansion(rng, r, sigma=0.25, orders=4)
        pade = pade_resum(exp, 2, 2)
        assert pade.ill_conditioned == (0, 1)
        d = 0.3
        closed = base * (r * d / (1.0 - r * d))
        out = evaluate_pade(pade, d)
        assert np.abs(out - closed).max() < 1e-9 * np.abs(closed).max()

    def test_requires_enough_orders(self, rng):
        _, exp = _geometric_expansion(rng, 1.5, sigma=0.25, orders=3)
        with pytest.raises(InvalidParameters):
            pade_resum(exp, 2, 2)
        with pytest.raises(InvalidParameters):
            pade_resum(exp, 0, 1)

    def test_agrees_with_taylor_inside_radius(self):
        # the shared per-coordinate denominator reproduces orders 1..L
        # exactly and L+1..L+M in the least-squares sense, so the defect
        # against the series vanishes at least like delta^{L+1}
        sys_ = build_duffing(zeta=0.1, kappa3=1.0)
        f = _two_tone(delta=0.05)
        exp = compute_taylor_gss(sys_, f, order=5)
        pade = pade_resum(exp, 2, 2)

        def defect(d):
            zt = evaluate_at_amplitude(exp, d)
            zp = evaluate_pade(pade, d)
            return np.abs(zt - zp).max() / np.abs(zt).max()

        d = 0.2 * f.max_magnitude
        big, small = defect(d), defect(d / 2)
        assert big < 1e-3
        assert small < big / 3.0


def _dense_pade(expansion, L, M):
    """pade_resum's fit by the dense route: the full (dim M T x M)
    least-squares system over every coordinate and grid time, stacked,
    and the numerators accumulated order by order. Returns (den, num,
    ill_conditioned)."""
    tensor = expansion.tensor
    sigma = abs(expansion.delta_ref) or 1.0
    dim, T = tensor.state_dim, tensor.length

    def c(j, k):
        return tensor.order_slice(k)[j] * sigma**k if k >= 1 else np.zeros(T)

    rows, rhs = np.empty((dim * M * T, M)), np.empty(dim * M * T)
    for j in range(dim):
        for r in range(1, M + 1):
            block = slice((j * M + r - 1) * T, (j * M + r) * T)
            rhs[block] = -c(j, L + r)
            for mu in range(1, M + 1):
                rows[block, mu - 1] = c(j, L + r - mu)
    den, _, _, svals = np.linalg.lstsq(rows, rhs, rcond=1e-12)
    flagged = tuple(range(dim)) if svals.size and svals[-1] < 1e-12 * svals[0] else ()
    num = np.empty((dim, L, T))
    for j in range(dim):
        for k in range(1, L + 1):
            num[j, k - 1] = c(j, k) + sum(
                den[mu - 1] * c(j, k - mu) for mu in range(1, min(k - 1, M) + 1)
            )
    return den, num, flagged


def _horner(expansion, delta, max_order):
    """sum_nu z_nu delta^nu through max_order by Horner's rule."""
    out = np.array(expansion.tensor.order_slice(max_order))
    for nu in range(max_order - 1, 0, -1):
        out = out * delta + expansion.tensor.order_slice(nu)
    return out * delta


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _stored_every_order(expansion):
    """The expansion with a tensor that gives every order a slot."""
    tensor = expansion.tensor
    orders = range(1, tensor.orders_complete + 1)
    data = np.stack([tensor.order_slice(nu) for nu in orders], axis=1)
    full = CoefficientTensor(data, tensor.dt, tensor.t0, tensor.pad_length, _filled=set(orders))
    return replace(expansion, tensor=full)


def _duffing_expansion():
    # the system of TestPade.test_agrees_with_taylor_inside_radius
    return compute_taylor_gss(build_duffing(zeta=0.1, kappa3=1.0), _two_tone(delta=0.05), order=5)


def _cubic_general_expansion():
    base = _general_2dof()
    sys_ = build_system(base.M, base.C, base.K, terms=[((2, 1, 0, 0), 1, 0.4)],
                        damping="general")
    return compute_taylor_gss(sys_, _two_tone(n=2, delta=0.3), order=4)


def _random_expansion(rng, orders, T):
    return _expansion_of([rng.normal(size=(2, T)) for _ in range(orders)], sigma=0.4)


class TestPadeAgainstDense:
    def _agrees(self, expansion, L, M):
        den, num, flagged = _dense_pade(expansion, L, M)
        pade = pade_resum(expansion, L, M)
        assert _rel(pade.den, den) < 1e-12
        assert _rel(pade.num, num) < 1e-12
        assert pade.ill_conditioned == flagged
        return pade

    @pytest.mark.parametrize("LM", [(2, 2), (3, 2), (1, 4)])
    def test_duffing(self, LM):
        self._agrees(_duffing_expansion(), *LM)

    def test_general_damping_cubic_coupling(self):
        exp = _cubic_general_expansion()
        assert exp.tensor.stored == (1, 3)
        self._agrees(exp, 2, 2)
        self._agrees(exp, 1, 3)

    def test_overparameterized_still_flagged(self, rng):
        _, exp = _geometric_expansion(rng, 2.0, sigma=0.25, orders=4)
        assert self._agrees(exp, 2, 2).ill_conditioned == (0, 1)

    def test_every_order_stored_matches_live_only(self):
        live = _duffing_expansion()
        full = _stored_every_order(live)
        assert live.tensor.stored == (1, 3, 5)
        assert full.tensor.stored == (1, 2, 3, 4, 5)
        for LM in ((2, 2), (3, 2)):
            a, b = pade_resum(live, *LM), self._agrees(full, *LM)
            assert _rel(a.den, b.den) < 1e-12 and _rel(a.num, b.num) < 1e-12
            assert a.ill_conditioned == b.ill_conditioned

    def test_grid_shorter_than_stored_orders(self, rng):
        self._agrees(_random_expansion(rng, 5, T=2), 2, 3)
        self._agrees(_random_expansion(rng, 5, T=2), 4, 1)

    def test_several_tsqr_windows(self, monkeypatch, rng):
        monkeypatch.setattr(gss, "_BLOCK", 7)
        exp = _duffing_expansion()
        assert exp.length > 100 * 7
        self._agrees(exp, 2, 2)
        self._agrees(_cubic_general_expansion(), 2, 2)
        # a last window shorter than the number of stored orders
        self._agrees(_random_expansion(rng, 6, T=7 * 3 + 2), 3, 3)


class TestEvaluateAmplitudes:
    DELTAS = (0.031, -0.02, 0.0, 0.4)

    def test_rows_are_single_evaluations(self):
        exp = _duffing_expansion()
        for top in range(1, 6):
            many = evaluate_at_amplitudes(exp, self.DELTAS, max_order=top)
            assert many.shape == (exp.state_dim, len(self.DELTAS), exp.length)
            for a, d in enumerate(self.DELTAS):
                one = evaluate_at_amplitude(exp, d, max_order=top)
                assert np.array_equal(many[:, a], one), (top, d)

    @pytest.mark.parametrize("build", [_duffing_expansion, _cubic_general_expansion])
    def test_agrees_with_horner(self, build):
        exp = build()
        for top in range(1, exp.order + 1):
            many = evaluate_at_amplitudes(exp, self.DELTAS, max_order=top)
            for a, d in enumerate(self.DELTAS):
                ref = _horner(exp, d, top)
                if d == 0.0:
                    assert not np.any(many[:, a])
                else:
                    assert _rel(many[:, a], ref) < 1e-14, (top, d)

    def test_writable_from_a_memory_map(self, tmp_path):
        exp = _duffing_expansion()
        serialize.save_expansion(exp, tmp_path)
        back = serialize.load_expansion(tmp_path)
        assert isinstance(back.tensor.data, np.memmap)
        for out in (evaluate_at_amplitudes(back, self.DELTAS), evaluate_at_amplitude(back, 0.03)):
            assert type(out) is np.ndarray and out.flags.writeable
        assert np.array_equal(evaluate_at_amplitudes(back, self.DELTAS),
                              evaluate_at_amplitudes(exp, self.DELTAS))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_raises(self, rng, bad):
        exp = _duffing_expansion()
        with pytest.raises(InvalidParameters):
            evaluate_at_amplitude(exp, bad)
        with pytest.raises(InvalidParameters):
            evaluate_at_amplitudes(exp, [0.01, bad])
        with pytest.raises(InvalidParameters):
            compute_taylor_gss(build_duffing(), _two_tone(), order=2, delta=bad)
        _, geometric = _geometric_expansion(rng, 2.0, sigma=0.25, orders=4)
        pade = pade_resum(geometric, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters):
                evaluate_pade(pade, bad)


class TestEvaluatePadeAmplitudes:
    DELTAS = (0.031, -0.02, 0.0, 0.4, 0.12)

    @pytest.mark.parametrize("build,LM", [
        (_duffing_expansion, (2, 2)), (_duffing_expansion, (3, 2)),
        (_cubic_general_expansion, (1, 3)),
    ])
    def test_rows_are_single_evaluations(self, build, LM):
        pade = pade_resum(build(), *LM)
        many = evaluate_pade_at_amplitudes(pade, self.DELTAS)
        assert many.shape == (pade.num.shape[0], len(self.DELTAS), pade.num.shape[2])
        for a, d in enumerate(self.DELTAS):
            assert np.array_equal(many[:, a], evaluate_pade(pade, d)), d
        assert not np.any(many[:, 2])

    def test_rows_from_a_memory_map(self, tmp_path):
        pade = pade_resum(_duffing_expansion(), 2, 2)
        serialize.save_pade(pade, tmp_path)
        back = serialize.load_pade(tmp_path)
        assert isinstance(back.num, np.memmap) and isinstance(back.den, np.memmap)
        many = evaluate_pade_at_amplitudes(back, self.DELTAS)
        assert type(many) is np.ndarray and many.flags.writeable
        assert np.array_equal(many, evaluate_pade_at_amplitudes(pade, self.DELTAS))

    def test_is_the_taylor_contraction_over_one_scalar(self):
        pade = pade_resum(_duffing_expansion(), 2, 2)
        s = np.array(self.DELTAS) / pade.sigma
        numerator = np.einsum("ak,jkt->jat", s[:, None] ** [1.0, 2.0], pade.num)
        denominator = 1.0 + (s[:, None] ** [1.0, 2.0]) @ pade.den
        got = evaluate_pade_at_amplitudes(pade, self.DELTAS)
        assert np.abs(got - numerator / denominator[:, None]).max() <= 1e-15 * np.abs(got).max()

    def test_first_pole_named_before_any_contraction(self, rng, monkeypatch):
        # r = 2: the [1/1] fit's pole is at 0.5
        _, exp = _geometric_expansion(rng, 2.0, sigma=0.25, orders=4)
        pade = pade_resum(exp, 1, 1)

        def refuse(*args):
            raise AssertionError("contracted before the denominators were checked")

        monkeypatch.setattr(gss, "_power_sum", refuse)
        with pytest.raises(DenominatorNearZero, match=r"at delta=0\.5$") as info:
            evaluate_pade_at_amplitudes(pade, [0.1, 0.5, 0.2, 0.5 + 1e-12])
        assert info.value.delta == 0.5

    def test_bad_amplitudes_refused(self, rng):
        _, exp = _geometric_expansion(rng, 2.0, sigma=0.25, orders=4)
        pade = pade_resum(exp, 1, 1)
        # 1e308 / sigma overflows: refused, not a RuntimeWarning
        for bad in ([0.1, np.nan], [[0.1]], [0.1, 1e308]):
            with pytest.raises(InvalidParameters):
                evaluate_pade_at_amplitudes(pade, bad)


class TestBlasThreads:
    def test_outputs_do_not_depend_on_blas_threads(self):
        script = textwrap.dedent('''
            import hashlib, json
            import numpy as np
            from steadystate import (build_oscillator_chain, build_system, compute_taylor_gss,
                                     evaluate_at_amplitudes, evaluate_pade, generate_forcing,
                                     pade_resum)
            n = 6
            K = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            C = 0.05 * np.eye(n) + 0.02 * K
            C[0, 0] += 0.5
            terms = [((3,) + (0,) * (2 * n - 1), 0, 0.8), ((0, 2, 1) + (0,) * (2 * n - 3), 2, 0.3)]
            system = build_system(np.eye(n), C, K, terms=terms, damping="general")
            forcing = generate_forcing("two_tone", n=n, duration=400.0, dt=0.02, delta=0.05,
                                       seed=3, pad=200, dofs=(0,), w1=1.1, w2=0.37)
            expansion = compute_taylor_gss(system, forcing, order=5)
            pade = pade_resum(expansion, 2, 3)
            delta = forcing.max_magnitude
            outputs = {
                "tensor": expansion.tensor.data,
                "den": pade.den,
                "num": pade.num,
                "taylor": evaluate_at_amplitudes(expansion, [0.5 * delta, delta]),
                "pade": evaluate_pade(pade, delta),
            }
            # a field on forms: its form grids and its contraction are matmuls
            chain = build_oscillator_chain(6, kappa3=0.8)
            outputs["chain"] = compute_taylor_gss(chain, forcing, order=5).tensor.data
            print(json.dumps({k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
                              for k, v in outputs.items()}))
        ''')
        src = str(pathlib.Path(gss.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(json.loads(run.stdout))
        assert digests[0] == digests[1]


class TestImportFootprint:
    def test_solves_never_import_scipy_signal(self):
        # a fresh interpreter runs each filter route and a sweep: no route
        # filters with scipy.signal
        script = textwrap.dedent('''
            import sys
            import numpy as np
            from steadystate import (build_duffing, build_gyroscopic_2dof, build_oscillator_chain,
                                     compute_taylor_gss, decompose_structural, frc_sweep,
                                     generate_forcing, polynomial_field, reduced_gss, reduced_model)

            def tones(n):
                return generate_forcing("two_tone", n=n, duration=20.0, dt=0.02, delta=0.05,
                                        dofs=(0,), w1=1.1, w2=0.37)

            # one-section oscillators, two-section ones, a folded general system
            for system in (build_oscillator_chain(3), build_duffing(zeta=1.0),
                           build_gyroscopic_2dof(kappa3=0.5)):
                compute_taylor_gss(system, tones(system.n), order=3)
            # the complex route: the Duffing oscillator in reduced coordinates
            R = polynomial_field(2, 2, [((1, 0), [0.0, -1.0]), ((0, 1), [1.0, -0.1]),
                                        ((3, 0), [0.0, -1.0])], min_degree=1)
            W = polynomial_field(2, 2, [((1, 0), [1.0, 0.0]), ((0, 1), [0.0, 1.0])], min_degree=1)
            reduced_gss(reduced_model(R, W, np.eye(2), np.eye(2)),
                        decompose_structural(build_duffing(zeta=0.05)), tones(1), order=3)
            frc_sweep(build_oscillator_chain(3), np.linspace(0.5, 1.5, 3), 0.05, order=3)
            print("scipy.signal" in sys.modules)
        ''')
        src = str(pathlib.Path(gss.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"]

    def test_only_a_filtered_record_loads_scipy_fft(self):
        # sweeps and runs on a given record need scipy.linalg alone; the
        # first filtered_gaussian record loads scipy.fft, to the same bits
        script = textwrap.dedent('''
            import hashlib, json, sys, tempfile
            import numpy as np

            def scipy_loaded():
                return sorted(m for m in sys.modules if m.startswith("scipy.")
                              and m.count(".") == 1 and not m.split(".")[1].startswith("_"))

            stages = {}
            import steadystate
            import steadystate.cli
            stages["import"] = scipy_loaded()
            from steadystate import (build_duffing, build_oscillator_chain, compute_taylor_gss,
                                     evaluate_pade, frc_sweep, generate_forcing, load_forcing,
                                     pade_resum)
            from steadystate.serialize import load_expansion, save_expansion
            frc_sweep(build_oscillator_chain(3), np.linspace(0.5, 1.5, 3), 0.05, order=3)
            stages["frc_sweep"] = scipy_loaded()
            t = 0.05 * np.arange(401)
            record = load_forcing(0.2 * np.sin(1.1 * t) + 0.1 * np.cos(0.37 * t), dt=0.05)
            expansion = compute_taylor_gss(build_duffing(kappa3=0.5), record, order=4)
            with tempfile.TemporaryDirectory() as directory:
                save_expansion(expansion, directory)
                evaluate_pade(pade_resum(load_expansion(directory), 2, 2), 0.5)
            stages["given_record"] = scipy_loaded()
            forcing = generate_forcing("filtered_gaussian", n=3, duration=1.0, dt=0.01,
                                       delta=1.0, seed=1, f_cut=5.0)
            stages["filtered"] = sorted(set(scipy_loaded()) & {"scipy.fft", "scipy.special"})
            stages["sha256"] = hashlib.sha256(np.ascontiguousarray(forcing.samples)).hexdigest()
            print(json.dumps(stages))
        ''')
        src = str(pathlib.Path(gss.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        stages = json.loads(run.stdout)
        for stage in ("import", "frc_sweep", "given_record"):
            assert stages[stage] == ["scipy.linalg", "scipy.version"], stage
        assert stages["filtered"] == ["scipy.fft", "scipy.special"]
        # the digest of the record when scipy.fft was imported with the package
        assert stages["sha256"] == (
            "606403983bc53ceb85ef83872245578a432254d503ab2ee2a3cedaf4302a2d28")


def _modal_reduced_model(sys_, spec, mode):
    """Exact invariant-pair reduced model of one structural mode."""
    n = sys_.n
    u = spec.U[:, mode]
    w, z = spec.omega[mode], spec.zeta[mode]
    R = polynomial_field(
        2, 2,
        [
            ((0, 1), 0, 1.0),
            ((1, 0), 1, -w * w),
            ((0, 1), 1, -2.0 * z * w),
        ],
        min_degree=1,
    )
    W_terms = []
    for i in range(n):
        W_terms.append(((1, 0), i, u[i]))
        W_terms.append(((0, 1), n + i, u[i]))
    W = polynomial_field(2, 2 * n, W_terms, min_degree=1)
    uM = u @ sys_.M
    rows = np.zeros((2, 2 * n))
    rows[0, :n] = uM
    rows[1, n:] = uM
    cols = np.zeros((2 * n, 2))
    cols[:n, 0] = u
    cols[n:, 1] = u
    return reduced_model(R, W, rows, cols)


class TestReduced:
    def test_trivial_reduction_matches_full(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=2)
        f = _two_tone(n=2, delta=0.03)
        spec = decompose_structural(sys_)
        dim = sys_.state_dim
        model = reduced_model(
            first_order_field(sys_),
            identity_lift(dim),
            np.eye(dim),
            np.eye(dim),
        )
        red = reduced_gss(model, with_retained(spec, tuple(range(sys_.n))), f, order=3)
        full = compute_taylor_gss(sys_, f, order=3, eps_trunc=1e-16)
        for nu in range(1, 4):
            a = red.tensor.order_slice(nu)
            b = full.tensor.order_slice(nu)
            assert np.abs(a - b).max() < 1e-10 * max(np.abs(b).max(), 1e-12)

    def test_order_must_be_an_integer(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=2)
        dim = sys_.state_dim
        model = reduced_model(first_order_field(sys_), identity_lift(dim), np.eye(dim), np.eye(dim))
        spec = decompose_structural(sys_)
        for order in (1.5, True, 0):
            with pytest.raises(InvalidParameters, match="order"):
                reduced_gss(model, spec, _two_tone(n=2), order=order)

    def test_fields_on_forms_match_the_identity(self, rng):
        # R and W given on permuted coordinates as their forms: the linear
        # part comes through the forms, the rest composes on them
        sys_ = random_system(rng, 2, structural=True, n_terms=2)
        f = _two_tone(n=2, delta=0.03)
        spec = with_retained(decompose_structural(sys_), (0, 1))
        dim = sys_.state_dim
        perm = rng.permutation(dim)

        def on_forms(fld):
            terms = [(tuple(m[i] for i in perm), c) for m, c in fld.terms]
            return polynomial_field(dim, fld.out_dim, terms, min_degree=1, forms=np.eye(dim)[perm])

        R, W = first_order_field(sys_), identity_lift(dim)
        flat = reduced_gss(reduced_model(R, W, np.eye(dim), np.eye(dim)), spec, f, order=3)
        forms = reduced_gss(
            reduced_model(on_forms(R), on_forms(W), np.eye(dim), np.eye(dim)), spec, f, order=3
        )
        want = flat.tensor.data
        assert np.abs(forms.tensor.data - want).max() <= 1e-12 * np.abs(want).max()

    def test_linear_modal_split_matches_full(self, rng):
        # one mode handled through the reduced path, the rest as the
        # linear complement: together they are the full linear response
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        f = _two_tone(n=3, delta=0.1)
        spec = decompose_structural(sys_)
        model = _modal_reduced_model(sys_, spec, 0)
        red = reduced_gss(model, with_retained(spec, (0,)), f, order=1)
        full = compute_taylor_gss(sys_, f, order=1, eps_trunc=1e-16)
        za = evaluate_at_amplitude(red, f.max_magnitude)
        zb = evaluate_at_amplitude(full, f.max_magnitude)
        assert np.abs(za - zb).max() < 1e-8 * np.abs(zb).max()

    def test_unstable_reduced_part_rejected(self, rng):
        sys_ = random_system(rng, 1, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        R = polynomial_field(2, 2, [((1, 0), 0, 1.0), ((0, 1), 1, -1.0)], min_degree=1)
        W = identity_lift(2)
        model = reduced_model(R, W, np.eye(2), np.eye(2))
        f = _two_tone(n=1)
        with pytest.raises(UnstableLinearPart):
            reduced_gss(model, with_retained(spec, (0,)), f, order=1)

    def test_unpaired_residue_raises(self):
        # exact modal reduction of a general-damping oscillator, with a
        # cubic term on the first modal coordinate only: its conjugate
        # partner gets no matching term, so order 3 lifts to a complex
        # trajectory, which must raise rather than lose its imaginary part
        sys_ = build_system(np.eye(1), [[0.2]], [[1.0]], damping="general")
        spec = decompose_general(sys_)
        lam, lam_bar = spec.eigenvalues
        R = polynomial_field(
            2, 2,
            [((1, 0), [lam, 0.0]), ((0, 1), [0.0, lam_bar]), ((3, 0), [0.5, 0.0])],
            min_degree=1,
        )
        W = polynomial_field(
            2, 2, [((1, 0), spec.V[:, 0]), ((0, 1), spec.V[:, 1])], min_degree=1
        )
        B, _ = first_order_blocks(sys_)
        model = reduced_model(R, W, spec.modal_input @ B, spec.V)
        with pytest.raises(RealnessCheckFailed):
            reduced_gss(model, spec, _two_tone(), order=3)

    def test_dimension_guards(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        model = reduced_model(
            first_order_field(sys_), identity_lift(4), np.eye(4), np.eye(4)
        )
        f = _two_tone(n=2)
        with pytest.raises(InvalidParameters):
            reduced_gss(model, spec, f, order=0)
        # a forcing column per dof of the decomposition, not more
        duffing = build_duffing(kappa3=0.5)
        one_dof = reduced_model(first_order_field(duffing), identity_lift(2), np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            reduced_gss(one_dof, decompose_structural(duffing), f, order=1)
        # the retained units span the model's d states: two per oscillator
        # on the structural path, one per eigenvalue on the general one
        three = random_system(rng, 3, structural=True, n_terms=0)
        spec3 = decompose_structural(three)
        modal = _modal_reduced_model(three, spec3, 0)
        for retained in ((0, 1), (0, 1, 2)):
            with pytest.raises(DimensionMismatch, match="retained"):
                reduced_gss(modal, with_retained(spec3, retained), _two_tone(n=3), order=1)
        general = decompose_general(duffing)
        with pytest.raises(DimensionMismatch, match="retained"):
            reduced_gss(one_dof, with_retained(general, (0,)), _two_tone(), order=1)


    def test_fields_must_fit_the_decomposition(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        # W lifts to the Duffing oscillator's 2 states, not the chain's 4
        duffing = build_duffing(kappa3=0.5)
        one_dof = reduced_model(first_order_field(duffing), identity_lift(2), np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch, match="lifts to 2"):
            reduced_gss(one_dof, spec, _two_tone(n=2), order=1)
        # reduced_model refuses an R and a W on different spaces: built by hand
        model = reduced_model(first_order_field(sys_), identity_lift(4), np.eye(4), np.eye(4))
        with pytest.raises(DimensionMismatch, match="disagree"):
            reduced_gss(replace(model, W=identity_lift(2)), spec, _two_tone(n=2), order=1)


class TestForcingNormalization:
    def test_expansion_is_sup_normalized(self, rng):
        # scaling the forcing leaves coefficient grids unchanged; only
        # the reference amplitude moves
        sys_ = build_duffing(kappa3=0.5)
        f1 = _two_tone(delta=0.02)
        f2 = f1.scaled(3.0)
        e1 = compute_taylor_gss(sys_, f1, order=3)
        e2 = compute_taylor_gss(sys_, f2, order=3)
        for nu in range(1, 4):
            a = e1.tensor.order_slice(nu)
            b = e2.tensor.order_slice(nu)
            assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1e-12)
        assert e2.forcing_sup == pytest.approx(3.0 * e1.forcing_sup)

    def test_zero_forcing(self, rng):
        sys_ = build_duffing()
        f = load_forcing(np.zeros((50, 1)), dt=0.1)
        exp = compute_taylor_gss(sys_, f, order=2)
        assert np.abs(exp.tensor.order_slice(1)).max() == 0.0
        assert exp.forcing_sup == 0.0
