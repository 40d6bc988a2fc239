"""Tests for the benchmark builders, forcing generators, the trajectory
error metric, and the forced-response sweep."""

import math
import warnings

import numpy as np
import pytest

from steadystate import (
    bench,
    build_duffing,
    build_gyroscopic_2dof,
    build_oscillator_chain,
    compute_taylor_gss,
    decompose_general,
    decompose_structural,
    evaluate_at_amplitude,
    frc_sweep,
    generate_forcing,
    load_forcing,
    nmte,
)
from steadystate.errors import (
    HarmonicFitIllConditioned,
    InvalidCutoff,
    InvalidParameters,
    NearResonance,
)


class TestChainBuilder:
    def test_natural_frequencies_closed_form(self):
        # grounded tridiagonal chain: omega_j = 2 sqrt(k/m) sin(j pi / (2(n+1)))
        n, m, k = 6, 2.0, 3.0
        sys_ = build_oscillator_chain(n, m=m, k_lin=k, kappa3=0.0)
        spec = decompose_structural(sys_)
        j = np.arange(1, n + 1)
        expected = 2.0 * math.sqrt(k / m) * np.sin(j * np.pi / (2.0 * (n + 1)))
        assert np.abs(np.sort(spec.omega) - np.sort(expected)).max() <= 1e-12

    def test_two_mass_mode_shapes(self):
        m = 1.5
        sys_ = build_oscillator_chain(2, m=m, kappa3=0.0)
        spec = decompose_structural(sys_)
        # in-phase and anti-phase columns, mass-normalized
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0 * m)
        u0 = spec.U[:, 0]
        assert np.abs(np.abs(u0) - expected).max() <= 1e-12
        u1 = spec.U[:, 1]
        assert np.abs(np.abs(u1) - expected).max() <= 1e-12
        assert np.sign(u0[0] * u0[1]) > 0  # slow mode in phase
        assert np.sign(u1[0] * u1[1]) < 0

    def test_damping_is_stiffness_proportional(self):
        sys_ = build_oscillator_chain(4, k_lin=2.0, c=0.12)
        assert sys_.damping_class.kind == "structural"
        spec = decompose_structural(sys_)
        assert abs(sys_.damping_class.c_M) <= 1e-14
        assert abs(sys_.damping_class.c_K - 0.06) <= 1e-14
        assert np.abs(spec.zeta - 0.5 * 0.06 * spec.omega).max() <= 1e-12

    def test_cubic_forces_balance_on_rigid_translation(self):
        # every coupling term acts on a relative stretch, the two ground
        # attachments on absolute position: uniform translation x_i = s
        # must load only the end masses, with kappa3 s^3 each
        from steadystate.model import evaluate_field

        n, kappa3, s = 5, 0.7, 0.83
        sys_ = build_oscillator_chain(n, kappa3=kappa3)
        z = np.zeros(2 * n)
        z[:n] = s
        f = evaluate_field(sys_.nonlinearity, z)
        expected = np.zeros(n)
        expected[0] = kappa3 * s**3
        expected[-1] = kappa3 * s**3
        assert np.abs(f - expected).max() <= 1e-12

    def test_chain_needs_positive_size(self):
        with pytest.raises(InvalidParameters):
            build_oscillator_chain(0)


class TestOtherBuilders:
    def test_duffing_parameters_land_in_matrices(self):
        sys_ = build_duffing(omega=2.0, zeta=0.1, kappa3=3.0, m=2.0)
        assert np.allclose(sys_.M, [[2.0]])
        assert np.allclose(sys_.K, [[8.0]])
        assert np.allclose(sys_.C, [[0.8]])
        ((expo, coeff),) = sys_.nonlinearity.terms
        assert tuple(expo) == (3, 0)
        assert np.allclose(coeff, [6.0])
        spec = decompose_structural(sys_)
        assert abs(spec.omega[0] - 2.0) <= 1e-12
        assert abs(spec.zeta[0] - 0.1) <= 1e-12

    def test_duffing_linear_variant_has_no_terms(self):
        assert build_duffing(kappa3=0.0).nonlinearity.n_terms == 0

    def test_gyroscopic_coupling_is_not_structural(self):
        sys_ = build_gyroscopic_2dof(g=0.4)
        assert sys_.damping_class.kind == "general"
        spec = decompose_general(sys_)
        assert spec.eigenvalues.real.max() < 0.0

    def test_gyroscopic_reduces_to_structural_without_coupling(self):
        sys_ = build_gyroscopic_2dof(g=0.0, c=0.1)
        assert sys_.damping_class.kind == "structural"


class TestGenerateForcing:
    def test_two_tone_waveform(self):
        f = generate_forcing("two_tone", n=2, duration=3.0, dt=0.1,
                             delta=0.4, w1=1.1, w2=0.3, dofs=(1,))
        t = 0.1 * np.arange(31)
        wave = 0.2 * (np.sin(1.1 * t) + np.sin(0.3 * t))
        assert f.samples.shape == (31, 2)
        assert np.abs(f.samples[:, 1] - wave).max() <= 1e-15
        assert np.abs(f.samples[:, 0]).max() == 0.0

    def test_chirp_waveform(self):
        f = generate_forcing("chirp", n=1, duration=2.0, dt=0.05,
                             delta=1.5, f0=0.2, rate=0.1)
        t = 0.05 * np.arange(41)
        wave = 1.5 * np.sin(2.0 * np.pi * (0.05 * t * t + 0.2 * t))
        assert np.abs(f.samples[:, 0] - wave).max() <= 1e-14

    def test_pad_rows_are_prepended_zeros(self):
        f = generate_forcing("two_tone", n=1, duration=2.0, dt=0.1,
                             delta=1.0, pad=7)
        assert f.pad_length == 7
        assert f.length == 21 + 7
        assert np.abs(f.samples[:7]).max() == 0.0

    def test_filtered_gaussian_exact_sup(self):
        f = generate_forcing("filtered_gaussian", n=3, duration=20.0, dt=0.05,
                             delta=0.37, seed=4, f_cut=1.0, dofs=(0, 2))
        sup = np.linalg.norm(f.samples, axis=1).max()
        assert abs(sup - 0.37) <= 1e-13
        assert f.max_magnitude == pytest.approx(0.37, abs=1e-13)
        assert np.abs(f.samples[:, 1]).max() == 0.0

    def test_filtered_gaussian_cutoff_validated(self):
        nyq = 0.5 / 0.05
        with pytest.raises(InvalidCutoff):
            generate_forcing("filtered_gaussian", n=1, duration=5.0, dt=0.05,
                             delta=1.0, seed=0, f_cut=nyq)
        with pytest.raises(InvalidCutoff):
            generate_forcing("filtered_gaussian", n=1, duration=5.0, dt=0.05,
                             delta=1.0, seed=0, f_cut=-0.5)
        with pytest.raises(InvalidParameters):
            generate_forcing("filtered_gaussian", n=1, duration=5.0, dt=0.05,
                             delta=1.0, seed=0)

    def test_rossler_columns_peak_normalized(self):
        f = generate_forcing("rossler", n=4, duration=50.0, dt=0.05,
                             delta=0.9, seed=12)
        peaks = np.abs(f.samples).max(axis=0)
        assert np.abs(peaks - 0.9).max() <= 1e-12
        # different attractor components on different dofs
        assert np.abs(f.samples[:, 0] - f.samples[:, 1]).max() > 1e-3

    def test_seed_determinism(self):
        for kind, extra in (("filtered_gaussian", {"f_cut": 1.0}),
                            ("rossler", {})):
            a = generate_forcing(kind, n=2, duration=10.0, dt=0.05,
                                 delta=1.0, seed=77, **extra)
            b = generate_forcing(kind, n=2, duration=10.0, dt=0.05,
                                 delta=1.0, seed=77, **extra)
            c = generate_forcing(kind, n=2, duration=10.0, dt=0.05,
                                 delta=1.0, seed=78, **extra)
            assert np.array_equal(a.samples, b.samples)
            assert not np.array_equal(a.samples, c.samples)

    def test_argument_validation(self):
        with pytest.raises(InvalidParameters):
            generate_forcing("two_tone", n=0, duration=1.0, dt=0.1, delta=1.0)
        for duration in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameters):
                generate_forcing("two_tone", n=1, duration=duration, dt=0.1, delta=1.0)
        for dt in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameters):
                generate_forcing("two_tone", n=1, duration=1.0, dt=dt, delta=1.0)
        for dofs in [(2,), (-1,), (0.5,), ("x",)]:
            with pytest.raises(InvalidParameters, match="dofs"):
                generate_forcing("two_tone", n=2, duration=1.0, dt=0.1, delta=1.0,
                                 dofs=dofs)
        with pytest.raises(InvalidParameters):
            generate_forcing("sawtooth", n=1, duration=1.0, dt=0.1, delta=1.0)
        for kind, extra in (("filtered_gaussian", {"f_cut": 1.0}), ("rossler", {})):
            with pytest.raises(InvalidParameters, match="seed"):
                generate_forcing(kind, n=1, duration=1.0, dt=0.1, delta=1.0, seed=-1, **extra)

    def test_integer_arguments(self):
        for seed in (1.5, True):
            with pytest.raises(InvalidParameters, match="seed"):
                generate_forcing("filtered_gaussian", n=1, duration=1.0, dt=0.1, delta=1.0,
                                 seed=seed, f_cut=1.0)
        with pytest.raises(InvalidParameters, match="dofs"):
            generate_forcing("two_tone", n=2, duration=1.0, dt=0.1, delta=1.0, dofs=(True,))

    def test_unused_parameters_rejected(self):
        with pytest.raises(InvalidParameters, match="w3"):
            generate_forcing("two_tone", n=1, duration=1.0, dt=0.1, delta=1.0,
                             w3=2.0)
        with pytest.raises(InvalidParameters, match="f_cut"):
            generate_forcing("chirp", n=1, duration=1.0, dt=0.1, delta=1.0,
                             f_cut=1.0)


class TestNmte:
    def test_zero_for_identical(self, rng):
        traj = rng.standard_normal((4, 50))
        assert nmte(traj, traj) == 0.0

    def test_hand_value(self):
        ref = np.zeros((2, 4))
        ref[0] = [0.0, 3.0, 0.0, 0.0]
        pred = ref.copy()
        pred[1] = [1.0, 1.0, 1.0, 1.0]  # unit offset everywhere
        # mean_t |diff| = 1, max_t |ref| = 3
        assert nmte(pred, ref) == pytest.approx(1.0 / 3.0)

    def test_skip_window(self):
        ref = np.ones((1, 10))
        pred = ref.copy()
        pred[0, :5] = 100.0
        assert nmte(pred, ref, skip=5) == 0.0
        assert nmte(pred, ref) > 1.0

    def test_zero_reference(self):
        zero = np.zeros((2, 5))
        assert nmte(zero, zero) == 0.0
        assert nmte(np.ones((2, 5)), zero) == float("inf")

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameters):
            nmte(np.zeros((2, 5)), np.zeros((2, 6)))

    def test_scale_invariance(self, rng):
        ref = rng.standard_normal((3, 40))
        pred = ref + 0.01 * rng.standard_normal((3, 40))
        assert nmte(3.0 * pred, 3.0 * ref) == pytest.approx(nmte(pred, ref))


class TestFrcSweep:
    def test_threads_do_not_change_results(self):
        sys_ = build_duffing(zeta=0.08, kappa3=0.5)
        grid = np.linspace(0.6, 1.4, 6)
        one = frc_sweep(sys_, grid, delta=0.05, order=3, threads=1)
        four = frc_sweep(sys_, grid, delta=0.05, order=3, threads=4)
        np.testing.assert_array_equal(one.amplitude, four.amplitude)
        assert one.flags == four.flags
        assert one.delta == four.delta == 0.05
        assert one.order == four.order == 3

    @pytest.mark.parametrize("dofs", [(0, 1), None])
    def test_two_forced_dofs_match_the_frf(self, dofs):
        # linear chain, delta sin(omega t) on both masses: each mass moves
        # at |(K - omega^2 M + i omega C)^{-1} F|, F = (delta, delta)
        sys_ = build_oscillator_chain(2, kappa3=0.0)
        omega, delta = 0.7, 0.1
        res = frc_sweep(sys_, [omega], delta=delta, order=1, dofs=dofs)
        dyn = sys_.K - omega**2 * sys_.M + 1j * omega * sys_.C
        expected = np.abs(np.linalg.solve(dyn, np.full(2, delta)))
        assert res.amplitude[0, :2] == pytest.approx(expected, rel=1e-3)

    def test_amplitude_peaks_near_resonance(self):
        sys_ = build_duffing(zeta=0.08, kappa3=0.0)
        grid = np.array([0.5, 1.0, 1.8])
        res = frc_sweep(sys_, grid, delta=0.1, order=1)
        disp = res.amplitude[:, 0]
        assert disp[1] > disp[0] and disp[1] > disp[2]
        # linear response: amplitude delta / sqrt((w0^2-W^2)^2 + (2 z w0 W)^2)
        for i, W in enumerate(grid):
            expected = 0.1 / math.hypot(1.0 - W * W, 2.0 * 0.08 * W)
            assert disp[i] == pytest.approx(expected, rel=1e-3)

    def test_resonant_point_flagged_not_fatal(self):
        sys_ = build_duffing(zeta=1e-5, kappa3=0.0)
        # 0.37 keeps every low harmonic away from the resonance at 1.0;
        # the second grid point sits exactly on it
        grid = np.array([0.37, 1.0])
        res = frc_sweep(sys_, grid, delta=0.01, order=1, resonance_tol=1e-2)
        assert res.flags[0] is None
        assert res.flags[1] is not None
        assert np.all(np.isnan(res.amplitude[1]))
        assert np.all(np.isfinite(res.amplitude[0]))

    def test_argument_validation(self, monkeypatch):
        sys_ = build_duffing()
        with pytest.raises(InvalidParameters):
            frc_sweep(sys_, [0.0, 1.0], delta=0.1)
        with pytest.raises(InvalidParameters):
            frc_sweep(sys_, [1.0], delta=0.1, threads=0)
        # every check below runs before any point is solved
        monkeypatch.setattr(bench, "_frc_point", None)
        for threads in (1.5, True, "2"):
            with pytest.raises(InvalidParameters, match="threads"):
                frc_sweep(sys_, [1.0], delta=0.1, threads=threads)
        chain = build_oscillator_chain(3)
        for dofs in [(5,), (3,), (-1,), (1.0,), ("0",), (0, 7)]:
            with pytest.raises(InvalidParameters, match="dofs"):
                frc_sweep(chain, [1.0], delta=0.1, dofs=dofs)
        for omega in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InvalidParameters, match="omega_grid"):
                frc_sweep(sys_, [1.0, omega], delta=0.1)
        for delta in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidParameters, match="delta"):
                frc_sweep(sys_, [1.0], delta=delta)
        # 2 budget + 1 harmonics do not fit a 256-sample period
        for budget in (128, 200):
            with pytest.raises(InvalidParameters, match="share one column"):
                frc_sweep(sys_, [1.0], delta=0.1, harmonic_budget=budget)

    def test_one_period_matches_eight_period_route(self):
        # the reference solves 8 periods and the endpoint and takes the
        # amplitude over the last period: the orbit is periodic, so the
        # sweep's one period must give the same amplitudes and flags
        chain = build_oscillator_chain(6, m=0.1, k_lin=100.0, c=0.005, kappa3=2500.0)
        w1 = 2.0 * math.sqrt(1000.0) * math.sin(math.pi / 14.0)  # lowest mode
        grid = np.array([7.3, w1, 11.9])
        kw = dict(order=3, harmonic_budget=5, resonance_tol=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HarmonicFitIllConditioned)
            sweep = frc_sweep(chain, grid, delta=1.0, dofs=(4,), **kw)
        for i, omega in enumerate(grid):
            dt = 2.0 * math.pi / omega / 256
            samples = np.zeros((8 * 256 + 1, 6))
            samples[:, 4] = np.sin(omega * dt * np.arange(8 * 256 + 1))
            forcing = load_forcing(samples, dt=dt)
            try:
                expansion = compute_taylor_gss(
                    chain, forcing, backend="qp", base_frequencies=(omega,),
                    check_divergence=False, **kw,
                )
            except NearResonance as exc:
                assert sweep.flags[i] == str(exc)
                assert np.all(np.isnan(sweep.amplitude[i]))
                continue
            ref = np.abs(evaluate_at_amplitude(expansion, 1.0)[:, -256:]).max(axis=1)
            assert sweep.flags[i] is None
            np.testing.assert_allclose(sweep.amplitude[i], ref, rtol=1e-12, atol=0.0)
        assert [f is None for f in sweep.flags] == [True, False, True]
