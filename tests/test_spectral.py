import dataclasses

import numpy as np
import pytest

from steadystate import (
    build_duffing,
    build_gyroscopic_2dof,
    build_oscillator_chain,
    build_system,
    check_contraction,
    compute_taylor_gss,
    decompose_general,
    decompose_structural,
    field_jacobian,
    first_order_blocks,
    gss,
    load_forcing,
    select_modes,
    with_retained,
)
from steadystate.errors import (
    DefectiveSpectrum,
    InvalidParameters,
    NearResonance,
    NotStructural,
    UnstableLinearPart,
)
from steadystate.spectral import SpectralData, _oscillator_root_pairs, _oscillator_roots
from tests.conftest import random_system

# underdamped, both sides of critical by an ulp-scale step, critical, overdamped
_ZETAS = (0.3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0)


def _mode_roots(omega, zeta):
    """One oscillator's roots, written per mode: the reference of the
    array expressions."""
    if zeta < 1.0:
        wd = omega * np.sqrt(1.0 - zeta * zeta)
        return (complex(-zeta * omega, wd), complex(-zeta * omega, -wd))
    s = omega * np.sqrt(zeta * zeta - 1.0)
    return (complex(-zeta * omega + s), complex(-zeta * omega - s))


class TestGeneralDecomposition:
    def test_modal_normalization(self, rng):
        # modal_input @ B @ V = I for any damping; with symmetric damping
        # this is the one-sided identity V^T B V = I
        for _ in range(5):
            sys_ = random_system(rng, 3, structural=False, n_terms=0)
            spec = decompose_general(sys_)
            B, A = first_order_blocks(sys_)
            G = spec.modal_input @ B @ spec.V
            assert np.abs(G - np.eye(6)).max() < 1e-8

    def test_symmetric_damping_self_dual(self, rng):
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        spec = decompose_general(
            build_system(sys_.M, sys_.C, sys_.K, damping="general")
        )
        assert np.array_equal(spec.modal_input, spec.V.T)
        B, _ = first_order_blocks(sys_)
        assert np.abs(spec.V.T @ B @ spec.V - np.eye(6)).max() < 1e-8

    def test_eigenpairs_solve_pencil(self, rng):
        sys_ = random_system(rng, 2, structural=False, n_terms=0)
        spec = decompose_general(sys_)
        B, A = first_order_blocks(sys_)
        for j in range(4):
            lam, v = spec.eigenvalues[j], spec.V[:, j]
            assert np.abs(A @ v - lam * (B @ v)).max() < 1e-8

    def test_conjugate_pairs_exact(self, rng):
        sys_ = random_system(rng, 3, structural=False, n_terms=0)
        spec = decompose_general(sys_)
        lams = spec.eigenvalues
        for j in range(len(lams)):
            if lams[j].imag > 0:
                # the paired column must be the exact conjugate
                k = next(
                    i
                    for i in range(len(lams))
                    if i != j and lams[i] == np.conj(lams[j])
                )
                assert np.array_equal(spec.V[:, k], np.conj(spec.V[:, j]))

    @pytest.mark.parametrize("kind", ["general", "structural"])
    def test_modal_input_inverts_B(self, rng, kind):
        # B^{-1} (g, 0) through the modal pair over every unit, so
        # diagonalization never forms B^{-1}: general modes take the
        # modal input as it is, oscillators take it as their velocity
        sys_ = random_system(rng, 2, structural=kind == "structural", n_terms=0)
        B, _ = first_order_blocks(sys_)
        g = np.eye(4, 2)  # (I_n, 0): every force direction
        if kind == "general":
            spec = decompose_general(sys_)
            X = spec.project(g)
        else:
            spec = decompose_structural(sys_)
            u = spec.project(g)
            X = np.stack([np.zeros_like(u), u / spec.omega[:, None]])
        got = spec.reconstruct(X).real
        ref = np.linalg.solve(B, g)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_gyroscopic_diagonalization(self):
        # non-symmetric damping: full diagonalization B^{-1}A = V Lam (BV)^{-1}
        sys_ = build_gyroscopic_2dof(g=0.4)
        spec = decompose_general(sys_)
        B, A = first_order_blocks(sys_)
        lhs = np.linalg.solve(B, A)
        rhs = (spec.V @ np.diag(spec.eigenvalues) @ spec.modal_input @ B).real
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(lhs).max())

    def test_unstable_part_rejected(self):
        # negative damping on a mode makes Re(lambda) > 0
        M = np.eye(1)
        K = np.eye(1)
        C = np.array([[-0.1]])
        with pytest.raises((UnstableLinearPart, Exception)):
            sys_ = build_system(M, C, K)
            decompose_general(sys_)

    def test_gamma_is_slowest_decay(self):
        sys_ = build_duffing(omega=2.0, zeta=0.25)
        spec = decompose_general(build_system(sys_.M, sys_.C, sys_.K, damping="general"))
        assert spec.gamma == pytest.approx(1.0 / (0.25 * 2.0), rel=1e-9)


class TestStructuralDecomposition:
    def test_requires_structural_class(self):
        sys_ = build_gyroscopic_2dof()
        with pytest.raises(NotStructural):
            decompose_structural(sys_)

    def test_modal_quantities_single_dof(self):
        sys_ = build_duffing(omega=3.0, zeta=0.12)
        spec = decompose_structural(sys_)
        assert spec.omega[0] == pytest.approx(3.0, rel=1e-12)
        assert spec.zeta[0] == pytest.approx(0.12, rel=1e-12)

    def test_mass_orthonormal_modes(self, rng):
        sys_ = random_system(rng, 4, structural=True, n_terms=0)
        spec = decompose_structural(sys_)
        UMU = spec.U.T @ sys_.M @ spec.U
        UKU = spec.U.T @ sys_.K @ spec.U
        assert np.abs(UMU - np.eye(4)).max() < 1e-10
        assert np.abs(UKU - np.diag(spec.omega**2)).max() < 1e-9

    def test_first_order_eigenvalues_match_general_route(self, rng):
        sys_ = random_system(rng, 3, structural=True, n_terms=0)
        spec_s = decompose_structural(sys_)
        spec_g = decompose_general(build_system(sys_.M, sys_.C, sys_.K, damping="general"))
        roots = [r for w, z in zip(spec_s.omega, spec_s.zeta) for r in _oscillator_roots(w, z)]
        a = np.sort_complex(np.array(roots))
        b = np.sort_complex(spec_g.eigenvalues)
        assert np.abs(a - b).max() < 1e-8 * np.abs(b).max()

    def test_zero_damping_rejected(self):
        M = np.eye(1)
        K = np.eye(1)
        C = np.zeros((1, 1))
        sys_ = build_system(M, C, K)
        with pytest.raises(UnstableLinearPart):
            decompose_structural(sys_)


class TestOscillatorRootArrays:
    """The array expressions against the roots written per mode, bit for bit."""

    @staticmethod
    def _spectral(omega, zeta):
        n = len(omega)
        return SpectralData(kind="structural", state_dim=2 * n, retained=tuple(range(n)),
                            omega=np.asarray(omega), zeta=np.asarray(zeta), U=np.eye(n))

    def test_root_pairs(self):
        omega, zeta = np.meshgrid([0.37, 1.0, 13.1], _ZETAS)
        pairs = _oscillator_root_pairs(omega.ravel(), zeta.ravel())
        for got, w, z in zip(pairs, omega.ravel(), zeta.ravel()):
            want = np.array(_mode_roots(w, z), dtype=complex)
            assert got.tobytes() == want.tobytes(), (w, z)
            one = np.array(_oscillator_roots(w, z), dtype=complex)
            assert one.tobytes() == want.tobytes(), (w, z)

    def test_slow_real_parts(self):
        omega = np.array([0.37, 1.0, 13.1, 2.5, 0.8])
        spec = self._spectral(omega, _ZETAS)
        want = np.array([max(r.real for r in _mode_roots(w, z))
                         for w, z in zip(omega, _ZETAS)])
        assert spec.slow_real_parts().tobytes() == want.tobytes()

    def test_guard_roots(self):
        # a tolerance that every mode trips: the guard reports the first
        # mode's distance to its nearest harmonic, from its roots
        omega, kappas = np.array([0.37, 1.0, 13.1, 2.5, 0.8]), np.arange(-3.0, 4.0)
        for j, (w, z) in enumerate(zip(omega, _ZETAS)):
            spec = self._spectral(omega[j:], _ZETAS[j:])
            roots = np.array(_mode_roots(w, z))
            want = np.abs(1j * kappas[:, None] - roots[None, :]).min(axis=1).min()
            (found,) = gss._qp_guard(spec, kappas[None], gss._harmonic_ball(1, 3), 1e3)
            assert isinstance(found, NearResonance)
            assert found.distance == float(want), (w, z)


class TestSelectModes:
    def test_threshold_semantics(self):
        sys_ = build_system(
            np.eye(2), np.diag([0.2, 40.0]), np.diag([1.0, 400.0])
        )
        spec = decompose_structural(sys_)
        # slow mode decay ~ e^{-0.1 dt}; fast mode decays like e^{-10 dt}
        kept = select_modes(spec, dt=1.0, eps=1e-3)
        decays = np.exp(1.0 * np.asarray(spec.slow_real_parts()))
        for j in range(len(spec.omega)):
            if decays[j] > 1e-3:
                assert j in kept
            else:
                assert j not in kept

    def test_slowest_mode_always_kept(self):
        sys_ = build_duffing(omega=50.0, zeta=0.9)
        spec = decompose_structural(sys_)
        kept = select_modes(spec, dt=10.0, eps=0.5)
        assert len(kept) >= 1

    def test_slowest_conjugate_pair_kept_whole(self):
        # at dt 8 every mode decays below eps: the slowest pair is kept,
        # both members, so it folds into one real unit and propagates
        sys_ = build_gyroscopic_2dof(c=2.0, g=0.4)
        spec = decompose_general(sys_)
        assert np.all(np.exp(8.0 * spec.eigenvalues.real) <= 1e-3)
        kept = select_modes(spec, dt=8.0)
        assert kept == (0, 1)
        assert spec.eigenvalues[0] == np.conj(spec.eigenvalues[1])
        assert with_retained(spec, kept)._folded[0] == (0,)
        forcing = load_forcing(np.sin(0.3 * 8.0 * np.arange(50))[:, None] * [1.0, 0.0], dt=8.0)
        exp = compute_taylor_gss(sys_, forcing, order=1)
        assert exp.spectral.retained == (0, 1)
        assert np.abs(exp.tensor.order_slice(1)).max() > 0.0

    def test_with_retained_roundtrip(self):
        sys_ = build_duffing()
        spec = decompose_structural(sys_)
        spec2 = with_retained(spec, (0,))
        assert spec2.retained == (0,)
        assert spec2.omega is spec.omega

    @pytest.mark.parametrize("kind", ["structural", "general"])
    def test_retained_set_is_validated(self, kind):
        # a repeated unit would add its response twice and a negative
        # index would wrap to the last unit: every decomposition refuses a
        # set that is not distinct unit indices, however it is made
        if kind == "structural":
            spec = decompose_structural(build_oscillator_chain(3))
        else:
            spec = decompose_general(build_gyroscopic_2dof())
        units = len(spec.omega if kind == "structural" else spec.eigenvalues)
        for bad in [(0, 0), (0, 1, 0, 1), (-1,), (5,), (units,), (), (True,), (0, 1.0)]:
            with pytest.raises(InvalidParameters, match="retained"):
                with_retained(spec, bad)
            with pytest.raises(InvalidParameters, match="retained"):
                dataclasses.replace(spec, retained=bad)
        assert with_retained(spec, (np.int64(units - 1), 0)).retained == (units - 1, 0)


class TestContraction:
    def test_duffing_sampled_lipschitz_matches_analytic(self):
        # f = kappa x^3 on the ball |z| <= delta: sup |df| = 3 kappa delta^2
        sys_ = build_duffing(omega=1.0, zeta=0.1, kappa3=1.0)
        spec = decompose_structural(sys_)
        delta = 0.1
        rep = check_contraction(sys_, spec, delta=delta, forcing_delta=0.05)
        expected = 3.0 * delta**2
        assert rep.lipschitz_F == pytest.approx(expected, rel=0.1)
        assert rep.lipschitz_F <= expected * (1 + 1e-9)

    def test_factor_and_bound_relationships(self):
        sys_ = build_duffing(omega=1.0, zeta=0.1, kappa3=1.0)
        spec = decompose_structural(sys_)
        rep = check_contraction(sys_, spec, delta=0.05, forcing_delta=0.02)
        assert rep.contraction_factor == pytest.approx(
            2.0 * rep.vnorm_product * rep.gamma * (rep.lipschitz_F + rep.lipschitz_G)
        )
        assert rep.admissible_delta_bound >= 0.0
        assert rep.lipschitz_G == 0.0

    def test_small_amplitude_satisfies(self):
        sys_ = build_duffing(omega=1.0, zeta=0.3, kappa3=0.1)
        spec = decompose_structural(sys_)
        rep = check_contraction(sys_, spec, delta=1e-3, forcing_delta=1e-5)
        assert rep.satisfied

    def test_large_amplitude_fails(self):
        sys_ = build_duffing(omega=1.0, zeta=0.05, kappa3=5.0)
        spec = decompose_structural(sys_)
        rep = check_contraction(sys_, spec, delta=2.0, forcing_delta=1.0)
        assert not rep.satisfied

    def test_sampling_is_deterministic(self):
        sys_ = build_duffing(omega=1.0, zeta=0.1, kappa3=1.0)
        spec = decompose_structural(sys_)
        a = check_contraction(sys_, spec, delta=0.3, forcing_delta=0.1)
        b = check_contraction(sys_, spec, delta=0.3, forcing_delta=0.1)
        assert a.lipschitz_F == b.lipschitz_F

    @pytest.mark.parametrize(
        "system, delta, worst",
        [
            # the spring stretches x0 and x2 - x1 peak together off every
            # axis: a sampled sup over the ball missed this point
            (build_oscillator_chain(3, kappa3=0.2), 0.1, (-1, 2, -1, 0, 0, 0)),
            (build_duffing(omega=1.0, zeta=0.1, kappa3=1.0), 0.3, (1, 0)),
            (build_gyroscopic_2dof(kappa3=0.7), 0.5, (1, 0, 0, 0)),
            (random_system(np.random.default_rng(5), 2, max_degree=4, n_terms=5), 0.4, None),
            (random_system(np.random.default_rng(6), 3, structural=False), 0.2, None),
        ],
    )
    def test_lipschitz_bounds_jacobian_on_ball(self, system, delta, worst):
        spec = (decompose_structural if system.damping_class.kind == "structural"
                else decompose_general)(system)
        rep = check_contraction(system, spec, delta=delta, forcing_delta=0.0)
        rng = np.random.default_rng(11)
        directions = rng.standard_normal((400, system.state_dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        points = directions * delta * rng.random((400, 1)) ** (1.0 / system.state_dim)
        points[::2] = directions[::2] * delta  # half of them on the sphere
        if worst is not None:
            points = np.vstack([points, delta * np.array(worst) / np.linalg.norm(worst)])
        for z in points:
            jac = field_jacobian(system.nonlinearity, z)
            assert np.linalg.norm(jac, 2) <= rep.lipschitz_F

    def test_defective_basis_gives_unsatisfied_certificate(self):
        # at zeta = 1 the first-order eigenbasis is defective, so ||V|| has
        # no finite value: the certificate fails without a NaN in it
        sys_ = build_duffing(omega=1.0, zeta=1.0, kappa3=1.0)
        with pytest.raises(DefectiveSpectrum):
            decompose_general(sys_)
        for kappa3 in (1.0, 0.0):
            sys_ = build_duffing(omega=1.0, zeta=1.0, kappa3=kappa3)
            rep = check_contraction(sys_, decompose_structural(sys_), delta=0.3, forcing_delta=0.3)
            assert not rep.satisfied and not rep.strict_satisfied
            assert rep.contraction_factor == np.inf
            assert rep.admissible_delta_bound == 0.0
            values = [v for v in vars(rep).values() if isinstance(v, float)]
            assert not any(np.isnan(values))
