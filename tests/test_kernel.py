import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steadystate import (
    SpectralData,
    build_kernel_weights,
    build_system,
    compute_taylor_gss,
    decompose_general,
    decompose_structural,
    evaluate_at_amplitude,
    load_forcing,
    propagate_order,
    qmat_structural,
    quadrature_weight_reference,
    qvec_general,
    with_retained,
)
from steadystate.errors import (
    GridMismatch,
    InvalidParameters,
    NearResonance,
    RealnessCheckFailed,
    ZeroEigenvalue,
)
from steadystate import gss, kernel
from steadystate.bench import build_gyroscopic_2dof, build_oscillator_chain
from steadystate.kernel import _ONE_SECTION_ZETA, Carry, _block_matrix, _enforce_real
from tests.conftest import random_system

E1 = math.exp(-1.0)


class TestScalarWeights:
    def test_frozen_unit_decay(self):
        # lambda = -1, dt = 1:
        #   Q0 = e^x/lam - (e^x - 1)/(lam^2 dt) = 1 - 2/e
        #   Q1 = (e^x - 1)/(lam^2 dt) - 1/lam  = 1/e
        q = qvec_general(-1.0, 1.0)
        assert q[0] == pytest.approx(1.0 - 2.0 * E1, abs=1e-14)
        assert q[1] == pytest.approx(E1, abs=1e-14)
        assert q.imag == pytest.approx((0.0, 0.0), abs=1e-16)

    def test_trapezoid_limit(self):
        # lambda dt -> 0 degenerates to the trapezoid rule (dt/2, dt/2)
        q = qvec_general(-1e-9, 0.5)
        assert q[0] == pytest.approx(0.25, rel=1e-8)
        assert q[1] == pytest.approx(0.25, rel=1e-8)

    def test_zero_real_part_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            qvec_general(0.0, 0.1)
        with pytest.raises(ZeroEigenvalue):
            qvec_general(2.0j, 0.1)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(InvalidParameters):
            qvec_general(-1.0, 0.0)
        with pytest.raises(InvalidParameters):
            qvec_general(-1.0, -0.5)
        # a step that is not finite has no exponential
        for dt in (float("inf"), float("nan")):
            with pytest.raises(InvalidParameters):
                qvec_general(-1.0 + 2.0j, dt)

    def test_continuity_at_series_switch(self):
        # a quadrature spot check on either side of |lambda dt| = 0.25
        for dt in (0.2499, 0.2501):
            a = qvec_general(-1.0, dt)
            b = quadrature_weight_reference(dt, lam=-1.0)
            assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()

    @settings(max_examples=40, deadline=None)
    @given(
        re=st.floats(min_value=-1e4, max_value=-1e-3),
        im=st.floats(min_value=-50.0, max_value=50.0),
        dt=st.floats(min_value=1e-5, max_value=1.0),
    )
    @example(re=-1e-3, im=0.0, dt=1e-3)  # |x| ~ 1e-6: heavy cancellation zone
    @example(re=-1e4, im=0.0, dt=1.0)  # saturated exponential
    @example(re=-1e-3, im=50.0, dt=1.0)  # slow decay, 8 turns a step
    @example(re=-1e-3, im=-50.0, dt=1.0)
    def test_matches_quadrature(self, re, im, dt):
        lam = complex(re, im)
        q = qvec_general(lam, dt)
        ref = quadrature_weight_reference(dt, lam=lam)
        assert np.abs(q - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1e-30)

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.floats(min_value=-1e4, max_value=-1e-3),
        im=st.floats(min_value=-50.0, max_value=50.0),
        dt=st.floats(min_value=1e-5, max_value=1.0),
    )
    def test_conjugate_eigenvalue_gives_conjugate_weights(self, re, im, dt):
        # bit for bit: the conjugate fold runs a pair's first member
        # alone (TestConjugateFold.test_pairs_get_conjugate_filters)
        lam = complex(re, im)
        assert np.array_equal(qvec_general(lam.conjugate(), dt), np.conj(qvec_general(lam, dt)))


class TestStructuralWeights:
    def test_frozen_critical_unit(self):
        # omega = zeta = dt = 1 (critical): exact entries from the
        # confluent kernel integral
        Q, branch = qmat_structural(1.0, 1.0, 1.0)
        assert branch == "critical"
        expected = np.array(
            [
                [2.0 - 5.0 * E1, 3.0 * E1 - 1.0],
                [3.0 * E1 - 1.0, 1.0 - 2.0 * E1],
            ]
        )
        assert np.abs(Q - expected).max() < 1e-13

    def test_branch_tags(self):
        assert qmat_structural(2.0, 0.5, 0.1)[1] == "underdamped"
        assert qmat_structural(2.0, 1.0, 0.1)[1] == "critical"
        assert qmat_structural(2.0, 1.0 - 1e-12, 0.1)[1] == "critical"
        assert qmat_structural(2.0, 1.0 + 1e-12, 0.1)[1] == "critical"
        assert qmat_structural(2.0, 1.0 - 1e-7, 0.1)[1] == "underdamped"
        assert qmat_structural(2.0, 1.0 + 1e-7, 0.1)[1] == "overdamped"
        assert qmat_structural(2.0, 1.5, 0.1)[1] == "overdamped"

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            qmat_structural(0.0, 0.5, 0.1)
        with pytest.raises(InvalidParameters):
            qmat_structural(1.0, 0.0, 0.1)
        with pytest.raises(InvalidParameters):
            qmat_structural(1.0, 0.5, 0.0)
        for dt in (float("inf"), float("nan")):
            with pytest.raises(InvalidParameters):
                qmat_structural(1.0, 0.1, dt)

    def test_velocity_row_trapezoid_limit(self):
        Q, _ = qmat_structural(1.0, 0.3, 1e-6)
        assert Q[1, 0] == pytest.approx(5e-7, rel=1e-5)
        assert Q[1, 1] == pytest.approx(5e-7, rel=1e-5)
        # position picks up one more power of dt
        assert abs(Q[0, 0]) < 1e-11 and abs(Q[0, 1]) < 1e-11

    def test_continuity_at_spread_switch(self):
        # zeta = 1.05: spread = 2 omega sqrt(zeta^2-1) ~ 0.64 omega, so the
        # eigenvalue spread times dt is ~ 5e-3 here; the weights must stay
        # accurate where a divided difference of close eigenvalues cancels
        for dt in (7.0e-3, 8.5e-3):
            Q, _ = qmat_structural(1.0, 1.05, dt)
            ref = quadrature_weight_reference(dt, omega=1.0, zeta=1.05)
            assert np.abs(Q - ref).max() < 1e-12 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(
        omega=st.floats(min_value=1e-2, max_value=1e3),
        zeta=st.floats(min_value=1e-3, max_value=10.0),
        dt=st.floats(min_value=1e-5, max_value=1.0),
    )
    @example(omega=2.0, zeta=1.0, dt=0.3)
    @example(omega=2.0, zeta=1.0 - 1e-3, dt=0.3)
    @example(omega=2.0, zeta=1.0 + 1e-7, dt=0.3)
    @example(omega=2.0, zeta=1.0 - 1e-7, dt=1e-4)
    @example(omega=500.0, zeta=0.02, dt=0.02)  # fast oscillatory mode
    @example(omega=121.4, zeta=0.0044, dt=0.416)  # |lambda| dt ~ 50, Re small
    @example(omega=657.0, zeta=0.03125, dt=0.8994030697050379)  # peak weight 2.6e-6
    @example(omega=942.484375, zeta=0.001953125, dt=1.0)  # weights 1e-6 of the kernel's integral
    @example(omega=1e3, zeta=1e-3, dt=1.0)  # |lambda| dt = 1e3 on either side of zeta = 1
    @example(omega=1e3, zeta=1.0, dt=1.0)
    @example(omega=1e3, zeta=10.0, dt=1.0)
    @example(omega=1e3, zeta=1.0 - 1e-9, dt=1.0)
    def test_matches_quadrature(self, omega, zeta, dt):
        Q, _ = qmat_structural(omega, zeta, dt)
        ref = quadrature_weight_reference(dt, omega=omega, zeta=zeta)
        assert np.abs(Q - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1e-30)


class TestBuildWeights:
    def test_general_fields(self, rng):
        sys_ = random_system(rng, 2, structural=False, n_terms=0)
        spec = decompose_general(sys_)
        w = build_kernel_weights(spec, 0.05)
        assert w.kind == "general"
        assert w.taps.shape == (4, 3)
        assert [len(p) for p in w.poles] == [1] * 4
        assert w.start.shape == (4, 2)
        assert w.mu is None
        poles = np.array([p[0] for p in w.poles])
        assert np.abs(poles - np.exp(spec.eigenvalues * 0.05)).max() < 1e-15

    def test_structural_fields(self, rng):
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        w = build_kernel_weights(spec, 0.05)
        assert w.kind == "structural"
        # one section below the zeta cut-over, two from it on
        sections = [1 if z < _ONE_SECTION_ZETA else 2 for z in spec.zeta]
        assert w.taps.shape == (3, 3)
        assert [len(p) for p in w.poles] == sections
        assert w.start.shape == (3, 2)
        assert w.mu.shape == (3,)
        assert len(w.branches) == 3

    def test_retained_subset(self, rng):
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        spec = with_retained(decompose_structural(sys_), (0, 2))
        w = build_kernel_weights(spec, 0.05)
        assert w.retained == (0, 2)
        sections = [1 if spec.zeta[j] < _ONE_SECTION_ZETA else 2 for j in (0, 2)]
        assert w.taps.shape == (2, 3)
        assert [len(p) for p in w.poles] == sections

    def test_bad_dt(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        for dt in (0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidParameters):
                build_kernel_weights(spec, dt)

    @pytest.mark.parametrize("name", ["mixed", "random3", "gyroscopic-real"])
    def test_one_exponential_per_mode(self, monkeypatch, name):
        # a near-critical oscillator's step propagator comes out of the
        # same exponential as its weights
        spec = _mixed_chain() if name == "mixed" else decompose_general(_general_system(name))
        calls, expm = [], scipy.linalg.expm

        def spied(A):
            calls.append(A.shape)
            return expm(A)

        monkeypatch.setattr(scipy.linalg, "expm", spied)
        build_kernel_weights(spec, 0.01)
        assert len(calls) == len(spec.retained) == (4 if name == "mixed" else len(spec.eigenvalues))


def _harmonic_force(n, dof, Omega, dt, T):
    t = np.arange(T) * dt
    g = np.zeros((n, T))
    g[dof] = np.sin(Omega * t)
    return t, g


def _propagate(spec, w, g, carry=None, out=None):
    """propagate_order on the modal inputs P g of a real force block g,
    P = spec.force_rows(real=True)."""
    return propagate_order(spec, w, spec.force_rows(real=True) @ g, carry, out)


class TestPropagateOrder:
    def test_harmonic_amplitude_structural(self):
        # unit-mass oscillator driven at Omega: steady position amplitude
        # 1 / sqrt((w^2 - Omega^2)^2 + (2 zeta w Omega)^2)
        omega, zeta, Omega, dt = 2.0, 0.1, 1.3, 1e-3
        sys_ = build_system(
            np.eye(1), np.array([[2 * zeta * omega]]), np.array([[omega**2]])
        )
        spec = decompose_structural(sys_)
        w = build_kernel_weights(spec, dt)
        T = int(120.0 / dt)
        t, g = _harmonic_force(1, 0, Omega, dt, T)
        Z = _propagate(spec, w, g)
        period = int(round(2 * np.pi / Omega / dt))
        tail = slice(T - 4 * period, T)
        design = np.column_stack([np.sin(Omega * t[tail]), np.cos(Omega * t[tail])])
        coef, *_ = np.linalg.lstsq(design, Z[0, tail], rcond=None)
        amp = float(np.hypot(*coef))
        expected = 1.0 / math.sqrt(
            (omega**2 - Omega**2) ** 2 + (2 * zeta * omega * Omega) ** 2
        )
        assert amp == pytest.approx(expected, rel=1e-6)

    def test_harmonic_amplitude_general_route(self):
        omega, zeta, Omega, dt = 2.0, 0.1, 1.3, 1e-3
        sys_ = build_system(
            np.eye(1),
            np.array([[2 * zeta * omega]]),
            np.array([[omega**2]]),
            damping="general",
        )
        spec = decompose_general(sys_)
        w = build_kernel_weights(spec, dt)
        T = int(120.0 / dt)
        t, g = _harmonic_force(1, 0, Omega, dt, T)
        Z = _propagate(spec, w, g)
        tail = slice(T - 19000, T)
        design = np.column_stack([np.sin(Omega * t[tail]), np.cos(Omega * t[tail])])
        coef, *_ = np.linalg.lstsq(design, Z[0, tail], rcond=None)
        expected = 1.0 / math.sqrt(
            (omega**2 - Omega**2) ** 2 + (2 * zeta * omega * Omega) ** 2
        )
        assert float(np.hypot(*coef)) == pytest.approx(expected, rel=1e-6)

    def test_dual_route_agreement(self, rng):
        # the same force through the structural and the general
        # decompositions gives the same trajectory
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        spec_s = decompose_structural(sys_)
        spec_g = decompose_general(build_system(sys_.M, sys_.C, sys_.K, damping="general"))
        dt = 0.02
        T = 600
        t = np.arange(T) * dt
        g = np.sin(np.outer((0.7, 1.1, 0.3), t)) * np.array([[1.0], [0.4], [-0.8]])
        Zs = _propagate(spec_s, build_kernel_weights(spec_s, dt), g)
        Zg = _propagate(spec_g, build_kernel_weights(spec_g, dt), g)
        scale = np.abs(Zs).max()
        assert np.abs(Zs - Zg).max() < 1e-8 * scale

    def test_zero_input_zero_output(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        w = build_kernel_weights(spec, 0.1)
        Z = propagate_order(spec, w, np.zeros((2, 50)))
        assert Z.shape == (4, 50)
        assert np.all(Z == 0.0)

    def test_grid_mismatch_shapes(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        w = build_kernel_weights(spec, 0.1)
        with pytest.raises(GridMismatch):
            propagate_order(spec, w, np.zeros((3, 50)))
        with pytest.raises(GridMismatch):
            propagate_order(spec, w, np.zeros((2, 1)))

    @pytest.mark.parametrize("structural", [True, False], ids=["structural", "general"])
    def test_modal_inputs(self, rng, structural):
        # the real rows and the complex rows of force_rows take the same
        # force to the same grid (on the structural path they are one
        # map), and inputs without the rows of their route are refused
        sys_ = random_system(rng, 2, structural=structural, n_terms=0)
        spec = (decompose_structural if structural else decompose_general)(sys_)
        w = build_kernel_weights(spec, 0.1)
        assert structural or spec._folded is not None
        g = rng.standard_normal((2, 60))
        u = spec.force_rows(real=True) @ g
        assert not np.iscomplexobj(u)
        want = propagate_order(spec, w, u)
        got = propagate_order(spec, w, spec.force_rows() @ g)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        with pytest.raises(GridMismatch):
            propagate_order(spec, w, u[1:])
        with pytest.raises(GridMismatch):
            propagate_order(spec, w, u[0])

    def test_retained_mismatch(self, rng):
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        w = build_kernel_weights(spec, 0.1)
        with pytest.raises(GridMismatch):
            propagate_order(with_retained(spec, (0,)), w, np.zeros((1, 50)))

    @pytest.mark.parametrize("structural", [True, False], ids=["structural", "general"])
    def test_out_view_keeps_bits(self, rng, structural):
        # writing into a strided view (one order's block of a tensor slot)
        # returns that view with the bits of the call without out, also
        # across a Carry
        sys_ = random_system(rng, 3, structural=structural, n_terms=0)
        spec = decompose_structural(sys_) if structural else decompose_general(sys_)
        w = build_kernel_weights(spec, 0.02)
        g = rng.standard_normal((3, 400))
        free, carry = Carry(), Carry()
        tensor = np.full((6, 3, 400), np.nan)
        for block in (slice(0, 150), slice(150, 400)):
            want = _propagate(spec, w, g[:, block], free)
            view = tensor[:, 1, block]
            got = _propagate(spec, w, g[:, block], carry, out=view)
            assert got is view
            assert np.array_equal(view, want)
        with pytest.raises(GridMismatch):
            _propagate(spec, w, g, out=tensor[:, 0, :-1])

    def test_linearity(self, rng):
        sys_ = random_system(rng, 2, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        w = build_kernel_weights(spec, 0.05)
        g1 = np.zeros((2, 100))
        g2 = np.zeros((2, 100))
        g1[0] = np.sin(0.3 * np.arange(100))
        g2[1] = np.cos(0.8 * np.arange(100))
        Za = _propagate(spec, w, 2.0 * g1 - 0.5 * g2)
        Zb = 2.0 * _propagate(spec, w, g1) - 0.5 * _propagate(spec, w, g2)
        assert np.abs(Za - Zb).max() < 1e-12 * max(np.abs(Zb).max(), 1e-30)

    @pytest.mark.parametrize("structural", [True, False], ids=["structural", "general"])
    def test_complex_inputs_take_the_realness_policy(self, structural):
        # the response to a real force is real: the modal inputs of an
        # imaginary force raise on both kinds instead of returning a real
        # grid for them (on the structural path at entry, where only
        # their real parts would be filtered; on the general path at the
        # complex modal sum), and complex inputs of a real force run as
        # the real ones
        sys_ = random_system(np.random.default_rng(1), 3, structural=structural, n_terms=0)
        spec = decompose_structural(sys_) if structural else decompose_general(sys_)
        w = build_kernel_weights(spec, 0.05)
        t = 0.05 * np.arange(400)
        g = np.array([np.sin(1.3 * t), np.cos(0.7 * t), np.sin(0.4 * t)])
        with pytest.raises(RealnessCheckFailed):
            propagate_order(spec, w, spec.force_rows() @ (1j * g))
        want = _propagate(spec, w, g)
        got = propagate_order(spec, w, spec.force_rows() @ (g + 0j))
        assert got.dtype == np.float64
        if structural:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _longdouble_recursion(E, Q, u):
    """x[k] = E x[k-1] + Q[:, 0] u[k-1] + Q[:, 1] u[k] from x[0] = 0, in long double."""
    E, Q, u = (np.asarray(a, dtype=np.longdouble) for a in (E, Q, u))
    x = np.zeros((2, len(u)), dtype=np.longdouble)
    p, v = np.longdouble(0.0), np.longdouble(0.0)
    for k in range(1, len(u)):
        p, v = (
            E[0, 0] * p + E[0, 1] * v + Q[0, 0] * u[k - 1] + Q[0, 1] * u[k],
            E[1, 0] * p + E[1, 1] * v + Q[1, 0] * u[k - 1] + Q[1, 1] * u[k],
        )
        x[0, k], x[1, k] = p, v
    return x


def _one_oscillator(omega, zeta):
    """A one-oscillator decomposition with a unit mode shape:
    propagate_order returns its (position, velocity) rows driven by its
    one row of inputs."""
    return SpectralData(
        kind="structural",
        state_dim=2,
        retained=(0,),
        omega=np.array([omega]),
        zeta=np.array([zeta]),
        U=np.eye(1),
    )


def _one_general_mode(lam):
    """A general decomposition of lam and its conjugate in which
    propagate_order returns (Re w, Im w) of lam's mode driven by u, on
    the inputs _state_inputs gives for the state [Re u; Im u]: for a
    complex lam the pair folds into one unit, and these are the real
    inputs [Re u; Im u] themselves. Every modal product is exact."""
    return SpectralData(
        kind="general",
        state_dim=2,
        retained=(0, 1),
        eigenvalues=np.array([lam, np.conj(lam)]),
        V=0.5 * np.array([[1.0, 1.0], [-1.0j, 1.0j]]),
        modal_input=np.array([[1.0, 1.0j], [1.0, -1.0j]]),
    )


def _state_inputs(spec, x):
    """The modal inputs of a real state grid x as force_rows(real=True)
    maps a force block: the folded rows when the retained set folds,
    else the retained complex modal-input rows."""
    folded = spec._folded
    rows = spec.modal_input[list(spec.retained)] if folded is None else folded[1]
    return rows @ x


class TestStructuralRecursion:
    @pytest.mark.parametrize(
        "zeta",
        # 0.98 and 0.989 run one section, 0.99 and above two
        [1e-3, 0.05, 0.5, 0.98, 0.989, 0.99, 0.995, 0.9999, 1.0 - 1e-7, 1.0, 1.0 + 1e-7,
         1.001, 1.5, 10.0],
    )
    @pytest.mark.parametrize("omega_dt", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
    def test_matches_longdouble_recursion(self, zeta, omega_dt):
        # one oscillator: its (position, velocity) rows must follow the
        # exact 2x2 step (E, Q) of its own weights, also when u[0] != 0;
        # at large omega the velocity's rounding must stay out of the
        # position
        for omega in (2.0, 1e5):
            spec = _one_oscillator(omega, zeta)
            dt = omega_dt / omega
            w = build_kernel_weights(spec, dt)
            E = scipy.linalg.expm(_block_matrix(omega, zeta) * dt)
            Q, _ = qmat_structural(omega, zeta, dt)
            if zeta >= _ONE_SECTION_ZETA:
                # the two-section filter takes its E from the exponential
                # that gives its weights
                step = kernel._step_weights(_block_matrix(omega, zeta), np.array([0.0, 1.0]), dt)
                assert np.abs(step[1] - E).max() <= 1e-14 * np.abs(E).max()
            rng = np.random.default_rng(7)
            for first in (0.0, 1.0):
                u = rng.standard_normal(1500)
                u[0] = first
                Z = propagate_order(spec, w, u[None])
                ref = _longdouble_recursion(E, Q, u).astype(float)
                for row in range(2):
                    scale = np.abs(ref[row]).max()
                    assert np.abs(Z[row] - ref[row]).max() <= 1e-11 * scale


def _clongdouble_recursion(E, q0, q1, u):
    """w[k] = E w[k-1] + q0 u[k-1] + q1 u[k] from w[0] = 0, in long double."""
    E, q0, q1 = (np.clongdouble(c) for c in (E, q0, q1))
    u = np.asarray(u, dtype=np.clongdouble)
    w = np.zeros(len(u), dtype=np.clongdouble)
    for k in range(1, len(u)):
        w[k] = E * w[k - 1] + q0 * u[k - 1] + q1 * u[k]
    return w


class TestScalarRecursion:
    @pytest.mark.parametrize("lam_dt", [-1e-4, -1e-3 + 0.1j, -0.05 + 2.0j, -1.0, -3.0 + 0.5j])
    def test_matches_longdouble_recursion(self, lam_dt):
        # one general mode: the recursion starts from w[0] = 0 whatever
        # u[0] is, and follows the exact one-step relation of its weights
        dt = 0.01
        lam = lam_dt / dt
        spec = _one_general_mode(lam)
        w = build_kernel_weights(spec, dt)
        q0, q1 = qvec_general(lam, dt)
        E = np.exp(lam_dt)
        rng = np.random.default_rng(7)
        for first in (0.0, 1.0 - 0.5j):
            u = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
            u[0] = first
            Z = propagate_order(spec, w, _state_inputs(spec, np.array([u.real, u.imag])))
            got = Z[0] + 1j * Z[1]
            ref = _clongdouble_recursion(E, q0, q1, u).astype(complex)
            assert got[0] == 0.0
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def _mixed_chain():
    """Uncoupled oscillators on both sides of the one-section cut-over:
    zeta 0.05 and 0.5 run one section, 0.995 and 1 two; the identity mode
    shapes keep every modal product exact."""
    return SpectralData(
        kind="structural",
        state_dim=8,
        retained=(0, 1, 2, 3),
        omega=np.array([2.0, 30.0, 5.0, 12.0]),
        zeta=np.array([0.05, 0.5, 0.995, 1.0]),
        U=np.eye(4),
    )


class TestBlockedFilters:
    @pytest.mark.parametrize(
        "spec,dt",
        [(_one_oscillator(2.0, 0.05), 0.01), (_one_general_mode(-5.0 + 200.0j), 0.01),
         (_mixed_chain(), 0.01)],
        ids=["structural", "general", "mixed"],
    )
    def test_two_blocks_equal_one_pass(self, spec, dt):
        # one Carry across splits of the 1,500 samples gives the
        # one-pass result bit for bit, also where blocks of one and two
        # samples read both carried inputs
        w = build_kernel_weights(spec, dt)
        if spec.state_dim == 8:
            assert [len(p) for p in w.poles] == [1, 1, 2, 2]
        rng = np.random.default_rng(7)
        u = rng.standard_normal((len(spec.retained), 1500))
        whole = propagate_order(spec, w, u)
        for cuts in ([611], [2, 3, 4, 6, 7], [1498], [1499]):
            carry, edges = Carry(), [0, *cuts, u.shape[1]]
            blocks = [propagate_order(spec, w, u[:, s:e], carry)
                      for s, e in zip(edges, edges[1:])]
            assert np.array_equal(np.hstack(blocks), whole), cuts


_LONG = [(_mixed_chain(), 0.01), (_one_general_mode(-5.0 + 200.0j), 0.01)]


class TestLongGrids:
    """A grid several cascade blocks (gss._BLOCK) long: propagate_order
    filters it in one pass, and a Carry splits it anywhere."""

    @pytest.mark.parametrize("spec,dt", _LONG, ids=["structural", "general"])
    def test_one_call_equals_two_blocks(self, spec, dt):
        # one call over 3.5 blocks equals a Carry across a split that
        # falls inside a block, bit for bit (the modal products are exact)
        w = build_kernel_weights(spec, dt)
        T = 7 * gss._BLOCK // 2
        u = np.random.default_rng(3).standard_normal((len(spec.retained), T))
        whole = propagate_order(spec, w, u)
        carry = Carry()
        split = 2 * gss._BLOCK - 1001
        blocks = [propagate_order(spec, w, u[:, :split], carry),
                  propagate_order(spec, w, u[:, split:], carry)]
        assert np.array_equal(np.hstack(blocks), whole)

    def test_carry_belongs_to_its_weights(self):
        # a carry started under one set of weights refuses any other:
        # another dt, another retained set, or the same weights rebuilt
        spec = _mixed_chain()
        w = build_kernel_weights(spec, 0.02)
        u = np.random.default_rng(3).standard_normal((4, 300))
        whole = propagate_order(spec, w, u)
        carry = Carry()
        head = propagate_order(spec, w, u[:, :100], carry)
        assert carry.weights is w
        sub = with_retained(spec, (0, 1))
        for other_spec, other in [(spec, build_kernel_weights(spec, 0.04)),
                                  (sub, build_kernel_weights(sub, 0.02)),
                                  (spec, build_kernel_weights(spec, 0.02))]:
            rows = len(other_spec.retained)
            with pytest.raises(GridMismatch, match="other weights"):
                propagate_order(other_spec, other, u[:rows, 100:], carry)
        # a refused block leaves the carry as it was
        tail = propagate_order(spec, w, u[:, 100:], carry)
        assert np.array_equal(np.hstack([head, tail]), whole)


def _general_system(name):
    """General-damping systems for the conjugate fold: two random ones
    (skew damping), a dashpot heavy enough to leave two real
    eigenvalues, the gyroscopic pair, plain and with real ones, and the
    20-mass S1 chain with a dashpot on its first mass."""
    rng = np.random.default_rng(11)
    if name.startswith("random"):
        return random_system(rng, int(name[-1]), structural=False, n_terms=0)
    if name == "overdamped":
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        return build_system(np.eye(2), np.diag([6.0, 0.2]), K, damping="general")
    if name == "dashpot":
        chain = build_oscillator_chain(20, m=0.1, k_lin=100.0, c=0.1)
        C = chain.C.copy()
        C[0, 0] += 0.5
        return build_system(chain.M, C, chain.K, damping="general")
    return build_gyroscopic_2dof(c=3.0 if name == "gyroscopic-real" else 0.1)


_GENERAL = ["random3", "random4", "overdamped", "gyroscopic", "gyroscopic-real"]


def _general_case(name, T=900, dt=0.02):
    """The decomposition, its weights at dt and a random force block."""
    spec = decompose_general(_general_system(name))
    g = np.random.default_rng(5).standard_normal((spec.state_dim // 2, T))
    return spec, build_kernel_weights(spec, dt), g


class TestConjugateFold:
    """A real input on the general path runs one first-order section per
    conjugate pair (and per real eigenvalue) and sums in real
    arithmetic; the complex route over every member is the reference."""

    @pytest.mark.parametrize("name", _GENERAL + ["dashpot"])
    def test_pairs_get_conjugate_filters(self, name):
        # the fold runs only a pair's first member, so the second's
        # filter must be its exact conjugate, and a real eigenvalue's
        # filter real: bit for bit, as SpectralData._folded decides the
        # fold without comparing the filters
        spec = decompose_general(_general_system(name))
        w = build_kernel_weights(spec, 0.02)
        units = spec._folded[0]
        assert len(units) < len(spec.retained)
        for p in units:
            # a pair's second member sits next to its first; a real
            # eigenvalue is its own conjugate
            q = p + int(spec.eigenvalues[p].imag > 0.0)
            assert np.array_equal(w.taps[q], np.conj(w.taps[p]))
            assert np.array_equal(np.array(w.poles[q]), np.conj(w.poles[p]))
            assert np.array_equal(w.start[q], np.conj(w.start[p]))

    @pytest.mark.parametrize("name", _GENERAL)
    def test_matches_complex_route(self, name):
        spec, w, g = _general_case(name)
        lams = spec.eigenvalues
        reals = int(np.sum(lams.imag == 0.0))
        assert reals == (2 if name in ("overdamped", "gyroscopic-real") else 0)
        assert len(spec._folded[0]) == reals + (len(lams) - reals) // 2
        assert len(w.retained) == len(lams)
        got = _propagate(spec, w, g)
        want = propagate_order(spec, w, spec.force_rows() @ g)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # a complex input runs every member: the fold is for real inputs
        both = kernel._modal_response(spec, w, spec.force_rows() @ (g + 0.5j * g[:, ::-1]),
                                      Carry())
        assert np.iscomplexobj(both)
        reverse = _propagate(spec, w, g[:, ::-1])
        assert np.abs(both - (got + 0.5j * reverse)).max() <= 1e-13 * np.abs(got).max()

    @pytest.mark.parametrize("name", _GENERAL)
    def test_blocks_match_whole_grid(self, name):
        spec, w, g = _general_case(name)
        whole = _propagate(spec, w, g)
        carry = Carry()
        blocks = [_propagate(spec, w, g[:, :377], carry),
                  _propagate(spec, w, g[:, 377:], carry)]
        assert len(carry.state) == len(spec._folded[0])
        assert np.abs(np.hstack(blocks) - whole).max() <= 1e-13 * np.abs(whole).max()
        # a folded carry holds no state for the second members
        with pytest.raises(GridMismatch):
            kernel._modal_response(spec, w, spec.force_rows() @ (g + 0j), carry)

    @pytest.mark.parametrize("name", _GENERAL)
    def test_out_written_in_place(self, monkeypatch, name):
        # the real sum lands in out itself: no temporary is copied in
        spec, w, g = _general_case(name)
        want = _propagate(spec, w, g)
        inner, seen = kernel._modal_response, []

        def spied(*args):
            Z = inner(*args)
            seen.append(Z is args[-1])
            return Z

        monkeypatch.setattr(kernel, "_modal_response", spied)
        tensor = np.full((spec.state_dim, 3, g.shape[1]), np.nan)
        view = tensor[:, 1]
        Z = _propagate(spec, w, g, out=view)
        assert Z is view and seen == [True]
        assert np.array_equal(view, want)
        assert np.isnan(tensor[:, [0, 2]]).all()

    def test_split_pair_takes_complex_route(self, monkeypatch):
        spec, w, g = _general_case("random3")
        # the first pair retained whole folds; one member of it does not
        assert with_retained(spec, (0, 1))._folded[0] == (0,)
        split = with_retained(spec, (0, 2, 3))
        assert split._folded is None
        ws = build_kernel_weights(split, 0.02)
        inner, sums = kernel._modal_response, []

        def spied(*args):
            Z = inner(*args)
            sums.append(Z)
            return Z

        monkeypatch.setattr(kernel, "_modal_response", spied)
        with pytest.raises(RealnessCheckFailed):
            _propagate(split, ws, g)
        assert np.iscomplexobj(sums[0])

    def test_split_set_takes_complex_rows(self):
        # a retained set that splits every pair does not fold: force_rows
        # gives a real input the complex rows, which run every member
        # into a complex modal sum whose imaginary part is not negligible
        # (the real routes never raise this)
        spec = with_retained(decompose_general(build_gyroscopic_2dof()), (0, 2))
        assert spec._folded is None
        rows = spec.force_rows(real=True)
        assert np.iscomplexobj(rows)
        assert np.array_equal(rows, spec.force_rows())
        g = np.random.default_rng(5).standard_normal((2, 300))
        with pytest.raises(RealnessCheckFailed):
            propagate_order(spec, build_kernel_weights(spec, 0.02), rows @ g)

    def test_conjugate_order_not_folded(self):
        # a pair stored negative-imaginary member first is not a unit
        spec = _one_general_mode(-5.0 + 200.0j)
        assert spec._folded[0] == (0,)
        swapped = replace(
            spec, eigenvalues=spec.eigenvalues[::-1], V=spec.V[:, ::-1],
            modal_input=spec.modal_input[::-1],
        )
        assert swapped._folded is None


class TestRealness:
    def test_small_residue_stripped(self):
        Z = np.ones((2, 4)) + 1e-14j
        out = _enforce_real(Z, "test")
        assert out.dtype == np.float64

    def test_large_residue_raises(self):
        Z = np.ones((2, 4)) + 1e-3j
        with pytest.raises(RealnessCheckFailed):
            _enforce_real(Z, "test")

    def test_perturbed_conjugate_row_raises(self):
        # a modal-input row 1e-6 off its partner's conjugate is no pair:
        # the complex route's residue check raises instead of a fold
        # keeping the real part
        spec = decompose_general(_general_system("random3"))
        W = spec.modal_input.copy()
        W[1] += 1e-6 * np.abs(W[1]).max()
        bad = replace(spec, modal_input=W)
        w = build_kernel_weights(bad, 0.02)
        assert bad._folded is None
        _, _, g = _general_case("random3")
        with pytest.raises(RealnessCheckFailed):
            _propagate(bad, w, g)

    @pytest.mark.parametrize("residue", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_residue_raises(self, residue):
        # a NaN residue fails every comparison, and an infinite one meets an
        # infinite magnitude: neither may pass as its real part
        with pytest.raises(RealnessCheckFailed, match="not finite"):
            _enforce_real(np.array([[complex(1.0, residue), 2.0]]), "test")

    @pytest.mark.parametrize("residue", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_structural_inputs_raise(self, residue):
        # propagate_order's entry check on complex structural inputs
        sys_ = random_system(np.random.default_rng(1), 3, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        t = 0.05 * np.arange(400)
        inputs = spec.force_rows() @ np.array([np.sin(1.3 * t), np.cos(0.7 * t), t]) + 0j
        inputs[1, 7] = complex(inputs[1, 7].real, residue)
        with pytest.raises(RealnessCheckFailed, match="structural modal inputs"):
            propagate_order(spec, build_kernel_weights(spec, 0.05), inputs)

    @staticmethod
    def _hypot_rule(Z):
        """The policy as first written: one magnitude pass over Z, with
        the later refusal of a residue that is not finite."""
        resid = np.abs(Z.imag).max(initial=0.0)
        if not np.isfinite(resid):
            raise RealnessCheckFailed(f"test: imaginary residue {resid} is not finite")
        scale = np.abs(Z).max(initial=0.0)
        if scale > 0.0 and resid > 1e-10 * scale:
            raise RealnessCheckFailed(
                f"test: imaginary residue {resid:.3e} exceeds 1e-10 x scale {scale:.3e}"
            )
        return np.ascontiguousarray(Z.real)

    @pytest.mark.parametrize("case", [
        np.zeros((2, 3), complex),
        np.array([[1.0 + 1e-10j, 0.5]]),
        np.array([[1.0 + 1.0000001e-10j, 0.5]]),
        np.array([[1.0, 3.0 + 2.9999999e-10j]]),
        np.array([[0.0, 1e-300j]]),
        np.array([[1.0, 1j]]),
        np.array([[np.nan, 1.0 + 1j]]),
        np.array([[1.0, complex(0.0, np.nan)]]),
        np.array([[np.inf, 1.0 + 1j]]),
        np.array([[1e308 + 1e308j, 1e308 - 1e308j]]),
        np.array([[1.7e308 + 1.7e308j]]),
    ], ids=["zeros", "at-bound", "above-bound", "below-bound", "imaginary", "failing",
            "nan-real", "nan-imag", "inf", "large", "magnitude-overflows"])
    def test_same_verdicts_as_hypot_rule(self, case):
        try:
            want = self._hypot_rule(case)
        except RealnessCheckFailed as exc:
            with pytest.raises(RealnessCheckFailed) as caught:
                _enforce_real(case, "test")
            assert str(caught.value) == str(exc)
        else:
            got = _enforce_real(case, "test")
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, want, equal_nan=True)


def _general_2dof():
    # non-proportional damping: the qp path runs on complex modes
    M = np.diag([1.0, 1.5])
    K = np.array([[3.0, -1.0], [-1.0, 2.0]])
    C = np.diag([0.3, 0.05])
    return build_system(M, C, K, damping="general")


def _linear_response(system, harmonics, t):
    """Exact steady (x, v) of M x'' + C x' + K x = sum Re(f e^{i kappa t})."""
    z = np.zeros((2 * system.n, len(t)))
    for kappa, f in harmonics:
        H = np.linalg.solve(system.K - kappa**2 * system.M + 1j * kappa * system.C, f)
        phase = np.exp(1j * kappa * t)
        z[: system.n] += np.real(np.outer(H, phase))
        z[system.n :] += np.real(np.outer(1j * kappa * H, phase))
    return z


def _qp_trajectory(system, samples, dt, base_frequencies, **kwargs):
    forcing = load_forcing(samples, dt=dt)
    expansion = compute_taylor_gss(
        system, forcing, order=1, backend="qp", base_frequencies=base_frequencies, **kwargs
    )
    return evaluate_at_amplitude(expansion, forcing.max_magnitude), forcing.times()


class TestQuasiperiodicStep:
    """The qp backend's per-order step (gss._qp_propagate) on linear systems."""

    def test_frozen_constant_forcing(self):
        # the k = 0 harmonic of a constant force is the static deflection
        M = np.eye(2)
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        sys_ = build_system(M, 0.1 * M + 0.05 * K, K)
        f = np.array([1.0, -0.5])
        Z, _ = _qp_trajectory(sys_, np.tile(f, (400, 1)), 0.05, (1.0,))
        static = np.linalg.solve(K, f)
        assert np.abs(Z[:2] - static[:, None]).max() < 1e-12
        assert np.abs(Z[2:]).max() < 1e-12

    def test_single_harmonic_orbit(self):
        sys_ = _general_2dof()
        kappa = 1.3
        dt = 0.01
        t = np.arange(4000) * dt
        samples = np.zeros((4000, 2))
        samples[:, 0] = 0.8 * np.cos(kappa * t)
        Z, times = _qp_trajectory(sys_, samples, dt, (kappa,))
        ref = _linear_response(sys_, [(kappa, np.array([0.8, 0.0]))], times)
        assert np.abs(Z - ref).max() < 1e-10 * np.abs(ref).max()

    def test_multifrequency_indices(self):
        # harmonics at the index vectors (1, -1) and (0, 2) of two base
        # frequencies, one on each degree of freedom
        sys_ = _general_2dof()
        base = (1.0, 0.618)
        k1, k2 = 1.0 - 0.618, 2 * 0.618
        dt = 0.02
        t = np.arange(6000) * dt
        samples = np.column_stack([0.3 * np.cos(k1 * t), 0.1 * np.sin(k2 * t)])
        Z, times = _qp_trajectory(sys_, samples, dt, base)
        ref = _linear_response(
            sys_, [(k1, np.array([0.3, 0.0])), (k2, np.array([0.0, -0.1j]))], times
        )
        assert np.abs(Z - ref).max() < 1e-9 * np.abs(ref).max()

    def test_near_resonance_payload(self):
        omega, zeta = 1.0, 0.01
        sys_ = build_system(
            np.eye(1), np.array([[2 * zeta * omega]]), np.array([[omega**2]]),
            damping="general",
        )
        t = np.arange(2000) * 0.05
        lam = complex(-zeta * omega, omega * math.sqrt(1.0 - zeta**2))
        with pytest.raises(NearResonance) as info:
            _qp_trajectory(sys_, np.cos(t)[:, None], 0.05, (1.0,), resonance_tol=0.05)
        assert info.value.distance == pytest.approx(abs(1j - lam), rel=1e-9)
