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
    build_system,
    compute_taylor_gss,
    decompose_general,
    decompose_structural,
    evaluate_at_amplitude,
    frc_sweep,
    generate_forcing,
    gss,
    load_forcing,
    nmte,
    select_modes,
)
from steadystate.errors import (
    DivergenceWarning,
    EmptySignal,
    HarmonicFitIllConditioned,
    HarmonicTruncationWarning,
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

    @pytest.mark.parametrize(
        "n, duration, dt, delta, seed, f_cut, pad, dofs",
        [
            (20, 100.0, 1e-3, 2.8, 42, 7.5, 1000, (0, 19)),  # S1: T = 100,001 = 11 x 9,091
            (1, 20.0, 1e-2, 0.5, 42, 2.0, 300, (0,)),
            (3, 9.99, 1e-2, 1.2, 7, 4.0, 0, (2, 0)),  # T = 1,000, even
            (6, 20.0, 1e-2, 0.7, 3, 4.0, 10, tuple(range(6))),
        ],
    )
    def test_filtered_gaussian_matches_the_numpy_fft_path(
        self, n, duration, dt, delta, seed, f_cut, pad, dofs
    ):
        # the record as numpy.fft and a full (T, n) block made it, bit for bit
        T = int(round(duration / dt)) + 1
        noise = np.random.default_rng(seed).standard_normal((T, len(dofs)))
        spec = np.fft.rfft(noise, axis=0)
        spec[np.fft.rfftfreq(T, d=dt) > f_cut] = 0.0
        block = np.zeros((T, n))
        block[:, list(dofs)] = np.fft.irfft(spec, n=T, axis=0)
        samples = block * (delta / np.linalg.norm(block, axis=1).max())
        padded = np.vstack([np.zeros((pad, n)), samples])

        f = generate_forcing("filtered_gaussian", n=n, duration=duration, dt=dt, delta=delta,
                             seed=seed, f_cut=f_cut, pad=pad, dofs=dofs)
        assert f.samples.tobytes() == padded.tobytes()
        assert f.max_magnitude == np.linalg.norm(padded, axis=1).max()
        assert f.samples.flags.c_contiguous and not f.samples.flags.writeable
        assert np.float64(f.t0).tobytes() == np.float64(0.0 - pad * dt).tobytes()  # +0.0 unpadded

    @pytest.mark.parametrize("kind, extra", [
        ("chirp", {}), ("two_tone", {}), ("rossler", {}), ("filtered_gaussian", {"f_cut": 1.0}),
    ])
    def test_dofs_must_name_distinct_dofs(self, kind, extra):
        for dofs in [(), [], (1, 1)]:
            with pytest.raises(InvalidParameters, match="dofs"):
                generate_forcing(kind, n=2, duration=1.0, dt=0.1, delta=1.0, seed=0,
                                 dofs=dofs, **extra)

    @pytest.mark.parametrize("delta", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_delta_rejected_first(self, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("chirp", "two_tone", "rossler", "filtered_gaussian"):
                with pytest.raises(InvalidParameters, match="delta"):
                    generate_forcing(kind, n=1, duration=1.0, dt=0.1, delta=delta, seed=0,
                                     f_cut=1.0)

    @pytest.mark.parametrize("kind, name", [
        ("chirp", "f0"), ("chirp", "rate"), ("two_tone", "w1"), ("two_tone", "w2"),
    ])
    def test_non_finite_waveform_parameters_named(self, kind, name):
        # refused before the waveform is built, so no NumPy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (float("inf"), -float("inf"), float("nan")):
                with pytest.raises(InvalidParameters, match=f"^{name} must be finite"):
                    generate_forcing(kind, n=1, duration=1.0, dt=0.1, delta=1.0,
                                     **{name: value})

    def test_record_whose_norm_overflows_is_refused(self):
        # every entry is finite, but the row norm squares past float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match="overflows"):
                generate_forcing("two_tone", n=2, duration=10.0, dt=0.1, delta=1.7e308)
            with pytest.raises(InvalidParameters, match="non-finite"):
                generate_forcing("rossler", n=1, duration=1.0, dt=0.1, delta=1.7e308, seed=0)
            f = generate_forcing("two_tone", n=2, duration=10.0, dt=0.1, delta=1e150)
        assert f.max_magnitude == np.linalg.norm(f.samples, axis=1).max()

    @pytest.mark.parametrize("kind, params", [
        ("chirp", {}), ("two_tone", {}), ("filtered_gaussian", {"f_cut": 1.0}), ("rossler", {}),
    ])
    def test_one_sample_record_is_refused(self, kind, params):
        # duration / dt rounds to 0: one sample, no grid step
        with pytest.raises(EmptySignal, match="1 sample"):
            generate_forcing(kind, n=1, duration=0.01, dt=0.1, delta=1.0, pad=4, **params)
        f = generate_forcing(kind, n=1, duration=0.06, dt=0.1, delta=1.0, seed=0, **params)
        assert f.samples.shape == (2, 1)

    @pytest.mark.parametrize("duration, dt, seed, components", [
        (10.0, 0.01, 1, [0, 1]),
        (5.0, 0.003, 7, [0, 1, 2, 0]),
    ])
    def test_rossler_series_matches_vector_rk4(self, duration, dt, seed, components):
        # the same RK4 on a NumPy state vector, bit for bit
        a, b, c = 0.2, 0.2, 5.7
        rng = np.random.default_rng(seed)
        state = np.array([1.0, 1.0, 1.0]) + 0.01 * rng.standard_normal(3)

        def deriv(s):
            return np.array([-s[1] - s[2], s[0] + a * s[1], b + s[2] * (s[0] - c)])

        n_skip = int(round(100.0 / dt))
        n_keep = int(round(duration / dt)) + 1
        want = np.empty((n_keep, len(components)))
        for k in range(n_skip + n_keep):
            if k >= n_skip:
                want[k - n_skip] = state[components]
            k1 = deriv(state)
            k2 = deriv(state + 0.5 * dt * k1)
            k3 = deriv(state + 0.5 * dt * k2)
            k4 = deriv(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        got = bench._rossler_series(duration, dt, seed, components)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

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
        monkeypatch.setattr(bench, "_qp_sweep", None)
        for threads in (1.5, True, "2"):
            with pytest.raises(InvalidParameters, match="threads"):
                frc_sweep(sys_, [1.0], delta=0.1, threads=threads)
        with pytest.raises(InvalidParameters, match="1-D"):
            frc_sweep(sys_, [[1.0, 2.0]], delta=1.0)
        chain = build_oscillator_chain(3)
        for dofs in [(5,), (3,), (-1,), (1.0,), ("0",), (0, 7), (), (1, 1)]:
            with pytest.raises(InvalidParameters, match="dofs"):
                frc_sweep(chain, [1.0], delta=0.1, dofs=dofs)
        for omega in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InvalidParameters, match="omega_grid"):
                frc_sweep(sys_, [1.0, omega], delta=0.1)
        for delta in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidParameters, match="delta"):
                frc_sweep(sys_, [1.0], delta=delta)
        for order in (0, -1, 1.5, True):
            with pytest.raises(InvalidParameters, match="order"):
                frc_sweep(sys_, [1.0], delta=0.1, order=order)
        # 2 budget + 1 harmonics do not fit a 256-sample period
        for budget in (128, 200):
            with pytest.raises(InvalidParameters, match="share one column"):
                frc_sweep(sys_, [1.0], delta=0.1, harmonic_budget=budget)

    def test_zero_delta_gives_exact_zeros(self):
        res = frc_sweep(_quadratic_chain(), [0.4, 1.1, 2.7], delta=0.0, order=4, dofs=[0, 2])
        assert res.flags == (None, None, None)
        assert np.all(res.amplitude == 0.0)

    def test_overflowing_sup_refused_before_any_point(self, monkeypatch):
        # each entry is finite, but the sup row norm |delta| sqrt(2) is not
        monkeypatch.setattr(gss, "_decompose", None)
        with pytest.raises(InvalidParameters, match="overflows"):
            frc_sweep(build_oscillator_chain(3), [1.0], delta=-1.5e308, dofs=[0, 2])

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

    def test_budget_below_one_is_refused(self, monkeypatch):
        # delta sin(omega t) sits at k = +-1, outside the budget-0 ball:
        # refused before any point is solved, not a sweep of zeros
        monkeypatch.setattr(bench, "_qp_sweep", None)
        with pytest.raises(InvalidParameters, match="harmonic_budget"):
            frc_sweep(build_duffing(zeta=0.1, kappa3=0.5), [0.7, 1.3], delta=0.1, order=3,
                      harmonic_budget=0)

    def test_one_truncation_warning_per_sweep(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frc_sweep(build_duffing(zeta=0.1, kappa3=0.5), [0.7, 1.0, 1.3], delta=0.1,
                      order=5, harmonic_budget=2)
        truncations = [w for w in caught if issubclass(w.category, HarmonicTruncationWarning)]
        assert len(truncations) == 1


def _stiff_pair():
    # Rayleigh damping C = 0.396 M + 1e-3 K on modes at 2 and 1000: the
    # stiff mode decays at sigma = zeta omega = 500.2, so a sweep point's
    # step 2 pi / omega / 256 drops it at omega = 0.5 (dt 0.049) and keeps
    # it at omega = 5 (dt 0.0049)
    c, s = math.cos(0.3), math.sin(0.3)
    U = np.array([[c, -s], [s, c]])
    K = U @ np.diag([4.0, 1e6]) @ U.T
    terms = [((3, 0, 0, 0), 0, 2.0), ((1, 2, 0, 0), 1, 0.5)]
    return build_system(np.eye(2), 0.396 * np.eye(2) + 1e-3 * K, K, terms=terms)


def _quadratic_chain():
    # a quadratic term makes every order live
    chain = build_oscillator_chain(3, kappa3=0.0)
    terms = [((2, 0, 0, 0, 0, 0), 1, 0.3), ((3, 0, 0, 0, 0, 0), 0, 0.5),
             ((0, 1, 1, 0, 0, 0), 2, 0.2)]
    return build_system(chain.M, chain.C, chain.K, terms=terms)


class TestBatchedSweep:
    """The sweep solves its points together; each point must equal a 'qp'
    compute_taylor_gss of its own period, the route the sweep replaces,
    and be flagged where that solve's divergence verdict fails."""

    @staticmethod
    def _per_point(system, omega, delta, dofs, **kw):
        """The point's amplitudes and whether its solve warned of divergence."""
        dt = 2.0 * math.pi / omega / 256
        samples = np.zeros((256, system.n))
        samples[:, dofs] = delta * np.sin(omega * dt * np.arange(256))[:, None]
        forcing = load_forcing(samples, dt=dt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DivergenceWarning)
            expansion = compute_taylor_gss(system, forcing, backend="qp",
                                           base_frequencies=(omega,), **kw)
        amplitude = np.abs(evaluate_at_amplitude(expansion, forcing.max_magnitude)).max(axis=1)
        return amplitude, any(w.category is DivergenceWarning for w in caught)

    @pytest.mark.parametrize("case", ["quadratic", "retained-set-changes", "flagged-between",
                                      "general-damping", "negative-delta"])
    def test_points_match_their_own_solve(self, case):
        delta, dofs, kw = 0.2, [0], dict(order=5, harmonic_budget=5)
        if case == "quadratic":
            system, grid, dofs = _quadratic_chain(), np.linspace(0.3, 3.0, 7), [0, 2]
        elif case == "negative-delta":
            # 1 / sqrt(m) on m = 3 dofs, and a negative sign, which amplitudes
            # cannot see: -delta is delta half a period (128 samples) later
            system, grid, dofs = _quadratic_chain(), np.linspace(0.3, 3.0, 7), [0, 1, 2]
            delta = -0.2
        elif case == "retained-set-changes":
            system, grid = _stiff_pair(), np.array([0.5, 5.0, 1.3, 7.0])
            retained = {select_modes(decompose_structural(system), 2 * math.pi / w / 256)
                        for w in grid}
            assert retained == {(0,), (0, 1)}
        elif case == "flagged-between":
            # the middle point sits on the resonance at 1.0
            system, grid, delta = build_duffing(zeta=1e-5, kappa3=0.5), np.array([0.37, 1.0, 1.6]), 0.01
            kw = dict(order=3, harmonic_budget=3, resonance_tol=1e-2)
        else:
            system, grid, dofs = build_gyroscopic_2dof(kappa3=0.3), np.linspace(0.4, 2.5, 5), [0, 1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DivergenceWarning)
            sweep = frc_sweep(system, grid, delta=delta, dofs=dofs, **kw)
        diverged = 0
        for i, omega in enumerate(grid):
            try:
                ref, divergent = self._per_point(system, omega, delta, dofs, **kw)
            except NearResonance as exc:
                assert sweep.flags[i] == str(exc)
                assert np.all(np.isnan(sweep.amplitude[i]))
                continue
            if divergent:  # the point lies past the series' radius at delta
                diverged += 1
                assert "the series looks divergent" in sweep.flags[i]
                assert np.all(np.isnan(sweep.amplitude[i]))
                continue
            assert sweep.flags[i] is None
            np.testing.assert_allclose(sweep.amplitude[i], ref, rtol=1e-12, atol=0.0)
        assert diverged == (case in ("quadratic", "general-damping", "negative-delta"))
        warned = [str(w.message) for w in caught if w.category is DivergenceWarning]
        assert len(warned) == (diverged > 0)
        assert all(m.startswith(f"{diverged} of {len(grid)} sweep points") for m in warned)
        resonant = [f is not None and "looks divergent" not in f for f in sweep.flags]
        assert resonant[1] == (case == "flagged-between")


class TestSweepDivergence:
    """A sweep point whose series diverges at the sweep's amplitude is
    flagged and NaN, never returned: the verdict of compute_taylor_gss,
    on each point's l1 bound of its orders' harmonic coefficients."""

    # steady amplitudes of x'' + 0.1 x' + x + x^3 = delta sin(Omega t),
    # newmark_full over 400 time units at 256 samples per period, read
    # on the last period: {Omega: (delta 0.05, 0.2, 0.5)}
    REFERENCE = {0.8: (0.1312, 0.4105, 0.7067), 1.0: (0.3604, 0.6382, 0.8849),
                 1.1: (0.2573, 0.7782, 0.9909), 1.3: (0.07158, 0.3193, 1.223)}
    # the points whose order-15 series sum is off by a factor of 87 to 1e18
    DIVERGENT = {(0.05, 1.0), (0.2, 0.8), (0.2, 1.0), (0.2, 1.1),
                 (0.5, 0.8), (0.5, 1.0), (0.5, 1.1), (0.5, 1.3)}

    def test_lightly_damped_duffing_flagged_exactly_where_it_diverges(self):
        system = build_duffing(omega=1.0, zeta=0.05, kappa3=1.0)
        grid = np.array(sorted(self.REFERENCE))
        for i, delta in enumerate((0.05, 0.2, 0.5)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DivergenceWarning)
                sweep = frc_sweep(system, grid, delta=delta, order=15, harmonic_budget=15)
            diverged = 0
            for p, omega in enumerate(grid):
                if (delta, omega) in self.DIVERGENT:
                    diverged += 1
                    assert sweep.flags[p].startswith("top-order term is ")
                    assert f"at delta={delta:.3g}; the series looks divergent" in sweep.flags[p]
                    assert np.all(np.isnan(sweep.amplitude[p]))
                else:
                    assert sweep.flags[p] is None
                    ref = self.REFERENCE[omega][i]
                    assert abs(sweep.amplitude[p, 0] - ref) <= 0.02 * ref, (delta, omega)
            warned = [str(w.message) for w in caught if w.category is DivergenceWarning]
            assert len(warned) == (diverged > 0)
            assert all(m.startswith(f"{diverged} of 4 sweep points look divergent at "
                                    f"delta={delta:.3g}") for m in warned)

    def test_point_verdicts_are_one_point_verdicts(self, rng):
        # a column's verdict does not depend on its neighbours, and the
        # one-point form is compute_taylor_gss's warning
        norms = 10.0 ** rng.uniform(-3.0, 3.0, size=(9, 40))
        norms[1::2, ::3] = 0.0  # odd series
        norms[4:6, 7] = 0.0  # no mid pair: no verdict
        verdicts = gss._divergence(norms, -0.7)
        assert 0 < sum(v is not None for v in verdicts) < 40
        assert verdicts[7] is None
        for p, verdict in enumerate(verdicts):
            assert gss._divergence(norms[:, p : p + 1], -0.7) == [verdict]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DivergenceWarning)
                gss._warn_divergence(norms[:, p], 9, -0.7)
            assert [str(w.message) for w in caught] == ([] if verdict is None else [verdict])
