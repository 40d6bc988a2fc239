"""Tests for the independent reference routes (time integration, fixed
point iteration, quadrature weights, direct-enumeration assembly)."""

import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from steadystate import (
    CoefficientTensor,
    build_duffing,
    compute_taylor_gss,
    evaluate_at_amplitude,
    faadibruno_phi,
    generate_forcing,
    gss,
    newmark_full,
    oracle,
    picard_gss,
    quadrature_weight_reference,
)
from steadystate.errors import (
    DimensionMismatch,
    GridMismatch,
    InstanceTooLarge,
    InvalidParameters,
    NewtonDivergence,
    NoConvergence,
)
from steadystate.kernel import qmat_structural, qvec_general
from steadystate.model import NewmarkStep, load_forcing
from tests.conftest import random_system

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

E1 = math.exp(-1.0)


def _tiny(workload, **sizes):
    """The system and forcing of a benchmark workload's tiny inputs, its
    sizes (duration, ...) overridden by sizes."""
    work = workloads.WORKLOADS[workload]
    inputs = work.setup(dict(work.spec("tiny"), **sizes), 0)
    return inputs["system"], inputs["forcing"]


def _two_tone(n=1, duration=40.0, dt=0.02, delta=0.02, **kw):
    kw.setdefault("w1", 1.3)
    kw.setdefault("w2", 0.45)
    return generate_forcing(
        "two_tone", n=n, duration=duration, dt=dt, delta=delta,
        seed=11, pad=300, dofs=tuple(range(n)), **kw
    )


class TestNewmarkFull:
    def test_linear_system_matches_linear_propagator(self, rng):
        # with no nonlinearity the Newton loop converges in one step, so
        # the full integrator must reproduce one linear solve per step
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        f = _two_tone(n=2, duration=20.0, delta=0.3)
        traj = newmark_full(sys_, f)
        nm, (M, C, K), g = NewmarkStep(f.dt), (sys_.M, sys_.C, sys_.K), f.samples
        S = K + nm.c1 * C + nm.c0 * M
        x, v, a = np.zeros(sys_.n), np.zeros(sys_.n), np.linalg.solve(M, g[0])
        ref = np.zeros((2 * sys_.n, f.length))
        for k in range(1, f.length):
            rhs = g[k] + M @ (nm.c0 * x + nm.c2 * v + nm.c3 * a) + C @ (
                nm.c1 * x + nm.c4 * v + nm.c5 * a
            )
            x_new = np.linalg.solve(S, rhs)
            v, a = nm.advance(x, v, a, x_new)
            x = x_new
            ref[: sys_.n, k], ref[sys_.n :, k] = x, v
        assert traj.shape == ref.shape == (4, f.length)
        assert np.abs(traj - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_duffing_matches_picard_late_window(self):
        # two O(dt^2) routes that share no code: after the start-up
        # transient of the from-rest integration has decayed they must
        # agree to discretization accuracy
        sys_ = build_duffing(omega=1.0, zeta=0.25, kappa3=1.0)
        f = _two_tone(duration=80.0, dt=0.01, delta=0.3)
        nm = newmark_full(sys_, f)
        pc = picard_gss(sys_, f, tol=1e-12).trajectory
        tail = slice(f.length // 2, None)
        scale = np.abs(pc[:, tail]).max()
        assert np.abs(nm[:, tail] - pc[:, tail]).max() <= 3e-3 * scale
        assert scale > 0.0

    def test_newton_divergence_payload(self):
        sys_ = build_duffing(kappa3=5.0)
        f = load_forcing(np.ones((50, 1)), dt=0.1)
        with pytest.raises(NewtonDivergence) as ei:
            newmark_full(sys_, f, max_newton=0)
        assert ei.value.step == 1
        assert ei.value.residual > 0.0

    def test_forcing_dimension_checked(self):
        sys_ = build_duffing()
        f = _two_tone(n=2, duration=5.0)
        with pytest.raises(DimensionMismatch):
            newmark_full(sys_, f)

    @pytest.mark.parametrize("kw", [
        dict(newton_tol=math.nan), dict(newton_tol=math.inf), dict(newton_tol=-1e-10),
        dict(newton_tol=True), dict(newton_tol="1e-10"), dict(newton_tol=None),
        dict(max_newton=-1), dict(max_newton=2.0), dict(max_newton=True),
        dict(max_newton=None),
    ], ids=repr)
    def test_bad_newton_settings_refused(self, kw):
        # a NaN tolerance stopped no step: the integrator returned the
        # explicit predictor, 100% off, without a word
        sys_ = build_duffing(kappa3=2.0)
        t = 0.05 * np.arange(400)
        f = load_forcing(0.3 * np.sin(1.3 * t), dt=0.05)
        with pytest.raises(InvalidParameters):
            newmark_full(sys_, f, **kw)
        ref = newmark_full(sys_, f)
        assert np.array_equal(newmark_full(sys_, f, newton_tol=1e-10, max_newton=25), ref)

    def test_residual_rounding_floor_does_not_stall(self):
        # at dt = 1e-4 the residual of a converged step keeps about
        # c0 eps |x| ~ 2e-10 (c0 = 4 / dt^2), above 1e-10 x sup |g| = 5e-11;
        # residual-only stopping raised NewtonDivergence at step 2,850
        sys_ = build_duffing(zeta=1.0, kappa3=1.0)
        f = generate_forcing("filtered_gaussian", n=1, duration=2.0, dt=1e-4,
                             delta=0.5, seed=42, f_cut=2.0, pad=100)
        traj = newmark_full(sys_, f)
        ref = newmark_full(sys_, f, newton_tol=1e-8)
        assert np.abs(traj - ref).max() <= 1e-9 * np.abs(ref).max()


class TestPicard:
    # the sampled contraction certificate is advisory and deliberately
    # conservative (worst-case modal amplification); its warning is
    # irrelevant to the convergence checks below
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_linear_system_fixed_point_is_immediate(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        f = _two_tone(n=2, duration=20.0, delta=0.3)
        res = picard_gss(sys_, f)
        assert res.iterations == 1
        assert res.tol == 1e-10
        # for a linear system the fixed point is the first-order response
        # at physical amplitude
        exp = compute_taylor_gss(sys_, f, order=1)
        ref = evaluate_at_amplitude(exp, f.max_magnitude)
        assert np.abs(res.trajectory - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_contraction_estimate_below_one(self):
        sys_ = build_duffing(zeta=0.1, kappa3=1.0)
        f = _two_tone(delta=0.05)
        res = picard_gss(sys_, f, tol=1e-11)
        assert res.iterations < 60
        assert 0.0 < res.contraction_estimate < 1.0
        assert res.tol == 1e-11

    def test_critical_damping_converges_without_certificate(self):
        # zeta = 1 has no first-order eigenbasis, so the certificate is
        # unsatisfied (a warning), yet the iteration still converges to
        # the amplitude expansion
        sys_ = build_duffing(omega=1.0, zeta=1.0, kappa3=1.0)
        f = generate_forcing("two_tone", n=1, duration=60.0, dt=0.01, delta=0.3,
                             pad=300, w1=1.3, w2=0.45)
        with pytest.warns(UserWarning, match="contraction"):
            res = picard_gss(sys_, f)
        assert res.iterations < 60
        ref = evaluate_at_amplitude(compute_taylor_gss(sys_, f, order=7), f.max_magnitude)
        assert np.abs(res.trajectory - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_no_convergence_carries_last_iterate(self):
        sys_ = build_duffing(zeta=0.05, kappa3=50.0)
        f = _two_tone(delta=1.5)
        with pytest.warns(UserWarning, match="contraction"):
            with pytest.raises(NoConvergence) as ei:
                picard_gss(sys_, f, max_iter=3)
        assert ei.value.last_iterate.shape == (2, f.length)

    # the iterate overflows; its RuntimeWarning is ignored here, so the
    # stop comes from the correction check, not from pytest's filter
    @pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
    def test_stops_at_the_first_non_finite_correction(self, monkeypatch):
        # criterion 7's Duffing at delta 1.6, past the series radius,
        # where the iteration from zero diverges
        sys_ = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
        base = generate_forcing("two_tone", n=1, duration=40.0, dt=0.02, delta=1.0,
                                pad=200, w1=1.3, w2=0.45)
        f = base.scaled(1.6 / base.max_magnitude)
        calls = []
        inner = oracle.propagate_order

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(oracle, "propagate_order", counted)
        with pytest.raises(NoConvergence, match="non-finite correction") as ei:
            picard_gss(sys_, f, max_iter=200)
        sweeps = len(calls) - 1  # the first call is the linear response
        assert sweeps < 50
        assert f"sweep {sweeps} gave" in str(ei.value)
        assert ei.value.last_iterate.shape == (2, f.length)
        assert np.isfinite(ei.value.last_iterate).all()

    def test_forcing_dimension_checked(self):
        sys_ = build_duffing()
        f = _two_tone(n=2, duration=5.0)
        with pytest.raises(DimensionMismatch):
            picard_gss(sys_, f)

    @pytest.mark.parametrize("kw", [
        dict(tol=0.0), dict(tol=-1e-10), dict(tol=math.nan), dict(tol=math.inf),
        dict(tol=True), dict(tol="1e-10"), dict(tol=None),
        dict(max_iter=0), dict(max_iter=-1), dict(max_iter=3.0), dict(max_iter=True),
    ], ids=repr)
    def test_bad_tolerance_or_budget_refused(self, monkeypatch, kw):
        # refused before any solve: max_iter 0 once raised a bare
        # IndexError, and a NaN tol ran every sweep into NoConvergence
        def solve(*args, **kwargs):
            raise AssertionError("a linear solve ran")

        monkeypatch.setattr(oracle, "propagate_order", solve)
        t = 0.05 * np.arange(200)
        f = load_forcing(0.1 * np.sin(1.3 * t), dt=0.05)
        with pytest.raises(InvalidParameters):
            picard_gss(build_duffing(kappa3=0.5), f, **kw)

    # the certificate is conservative on these chains; its warning is moot
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("workload", ["chain-noise", "dashpot-roundtrip"])
    @pytest.mark.parametrize("block,length", [(128, None), (7, None), (7, 7 * 80 + 1)],
                             ids=["128", "7", "7-last-block-of-1"])
    def test_blocks_match_one_block(self, monkeypatch, workload, block, length):
        # each sweep walks the record in blocks of gss._BLOCK with one
        # carry; the iterates match the one-block sweep to rounding
        system, f = _tiny(workload)
        if length is not None:
            pad = f.pad_length
            f = load_forcing(f.samples[pad:length], dt=f.dt, pad_length=pad)
            assert f.length % block == 1
        monkeypatch.setattr(gss, "_BLOCK", f.length)
        one = picard_gss(system, f)
        calls, inner = [], oracle.propagate_order

        def counted(spectral, weights, inputs, carry, out):
            calls.append(inputs.shape[1])
            return inner(spectral, weights, inputs, carry, out=out)

        monkeypatch.setattr(oracle, "propagate_order", counted)
        monkeypatch.setattr(gss, "_BLOCK", block)
        got = picard_gss(system, f)
        assert got.iterations == one.iterations
        blocks = -(-f.length // block)
        # the linear response's sweep, then one sweep per iteration
        assert len(calls) == blocks * (got.iterations + 1) and max(calls) == block
        assert calls[blocks - 1] == f.length - (blocks - 1) * block
        scale = np.abs(one.trajectory).max()
        assert np.abs(got.trajectory - one.trajectory).max() <= 1e-13 * scale

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_memory_stays_below_four_iterates(self):
        # the tiny dashpot chain on 48,101 samples, 6 blocks: a sweep
        # holds the two iterates and block-length temporaries, where the
        # whole-record sweep peaked at about 8 iterates
        system, f = _tiny("dashpot-roundtrip", duration=48.0)
        assert -(-f.length // gss._BLOCK) == 6
        tracemalloc.start()
        try:
            result = picard_gss(system, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations > 2
        assert peak < 4 * result.trajectory.nbytes, peak / result.trajectory.nbytes


class TestQuadratureReference:
    def test_scalar_mode_frozen_value(self):
        q = quadrature_weight_reference(1.0, lam=-1.0)
        assert q.shape == (2,)
        assert abs(q[0] - (1.0 - 2.0 * E1)) <= 1e-11
        assert abs(q[1] - E1) <= 1e-11

    def test_scalar_mode_complex(self):
        lam = -0.5 + 2.0j
        q = quadrature_weight_reference(0.3, lam=lam)
        closed = qvec_general(lam, 0.3)
        assert np.abs(q - closed).max() <= 1e-10 * max(1.0, np.abs(closed).max())

    @pytest.mark.parametrize("lam, dt", [(2.0j, 0.3), (-3.0j, 2.5)])
    def test_scalar_mode_undamped(self, lam, dt):
        # Re(lam) = 0: the kernel never decays, so the breakpoints span
        # the whole step; closed form of the hat-weighted integrals
        x = lam * dt
        q0 = (np.exp(x) * (x - 1.0) + 1.0) / (lam * lam * dt)
        q1 = (np.exp(x) - 1.0) / lam - q0
        q = quadrature_weight_reference(dt, lam=lam)
        assert np.abs(q - np.array([q0, q1])).max() <= 1e-12 * np.abs(q).max()

    def test_breakpoints_are_capped(self, monkeypatch):
        seen = {}

        def spy(kernel, dt, edges):
            seen["pieces"] = len(edges) - 1
            return np.ones((1, 2)), np.ones((1, 2))

        monkeypatch.setattr(oracle, "_hat_integrals", spy)
        quadrature_weight_reference(1.0, lam=-1e-3 + 1e5j)
        assert seen["pieces"] <= 1024

    def test_cancelling_oscillator_integral(self):
        # omega dt is 300 pi to 1e-5: the weights are 1e-6 of the
        # integral of the kernel's magnitude; exact values from the closed
        # form in 50-digit arithmetic
        q = quadrature_weight_reference(1.0, omega=942.484375, zeta=0.001953125)
        exact = np.array([[-1.7864636228102736e-07, 1.1257703806727866e-06],
                          [-1.4207209214947518e-07, 9.4712401839175929e-07]])
        assert np.abs(q - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_structural_critical_frozen_value(self):
        q = quadrature_weight_reference(1.0, omega=1.0, zeta=1.0)
        ref = np.array([[2.0 - 5.0 * E1, 3.0 * E1 - 1.0],
                        [3.0 * E1 - 1.0, 1.0 - 2.0 * E1]])
        assert q.shape == (2, 2)
        assert np.abs(q - ref).max() <= 1e-11

    def test_stiff_overdamped_boundary_layer(self):
        # roots about -5e-10 and -2e9: the velocity row is the integral of
        # e^(-2e9 u) over the last hat, a layer 5e-10 wide at the step's end
        closed, branch = qmat_structural(1.0, 1e9, 0.1)
        q = quadrature_weight_reference(0.1, omega=1.0, zeta=1e9)
        assert branch == "overdamped"
        assert np.abs(q - closed).max() <= 1e-11 * max(1.0, np.abs(q).max())
        assert q[1, 1] == pytest.approx(5.0e-10, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(0.0, lam=-1.0)
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(-1.0, lam=-1.0)
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(1.0)
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(1.0, lam=-1.0, omega=2.0, zeta=0.1)
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(1.0, omega=2.0)
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(1.0, omega=-2.0, zeta=0.1)
        with pytest.raises(InvalidParameters):
            quadrature_weight_reference(1.0, omega=2.0, zeta=0.0)


class TestEnumerationGuards:
    # accuracy against the fast assembly is covered with the composition
    # tests; here only the guard rails
    def _tensor(self, state_dim, order_max=4, length=12, fill_through=None):
        t = CoefficientTensor.empty(state_dim, order_max, length, dt=0.1)
        rng = np.random.default_rng(5)
        stop = order_max if fill_through is None else fill_through
        for nu in range(1, stop + 1):
            t.insert_slice(nu, rng.standard_normal((state_dim, length)))
        return t

    def test_state_dimension_guard(self, rng):
        sys_ = random_system(rng, 5, structural=True)
        with pytest.raises(InstanceTooLarge, match="dimension"):
            faadibruno_phi(sys_, self._tensor(10), 3)

    def test_order_guard(self, rng):
        sys_ = random_system(rng, 2, structural=True)
        with pytest.raises(InstanceTooLarge, match="order"):
            faadibruno_phi(sys_, self._tensor(4, order_max=7), 7)

    def test_degree_guard(self):
        base = build_duffing()
        from steadystate import build_system
        sys_ = build_system(base.M, base.C, base.K, terms=[((5, 0), 0, 1.0)])
        with pytest.raises(InstanceTooLarge, match="degree"):
            faadibruno_phi(sys_, self._tensor(2), 3)

    def test_order_one_rejected(self):
        sys_ = build_duffing()
        with pytest.raises(InvalidParameters):
            faadibruno_phi(sys_, self._tensor(2), 1)

    def test_tensor_dimension_checked(self, rng):
        sys_ = random_system(rng, 2, structural=True)
        with pytest.raises(DimensionMismatch):
            faadibruno_phi(sys_, self._tensor(2), 3)

    def test_incomplete_orders_rejected(self):
        sys_ = build_duffing()
        with pytest.raises(GridMismatch):
            faadibruno_phi(sys_, self._tensor(2, fill_through=1), 3)
