import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steadystate import (
    DampingClass,
    build_system,
    evaluate_field,
    field_jacobian,
    first_order_blocks,
    load_forcing,
    polynomial_field,
    reduced_model,
)
from steadystate.model import _check_int
from steadystate.errors import (
    DampingIndefinite,
    DimensionMismatch,
    EmptySignal,
    InvalidParameters,
    NonlinearTermDegreeTooLow,
    NonuniformInput,
    NotPositiveDefinite,
    NotStructural,
    NotSymmetric,
)


def duffing_matrices(omega=1.0, zeta=0.1):
    M = np.array([[1.0]])
    K = np.array([[omega * omega]])
    C = np.array([[2.0 * zeta * omega]])
    return M, C, K


class TestPolynomialField:
    def test_terms_sorted_and_merged(self):
        fld = polynomial_field(
            2,
            1,
            [((1, 1), np.array([2.0])), ((2, 0), np.array([1.0])), ((1, 1), np.array([3.0]))],
        )
        assert fld.n_terms == 2
        exps = [e for e, _ in fld.terms]
        assert exps == sorted(exps)
        d = dict(fld.terms)
        assert d[(1, 1)][0] == pytest.approx(5.0)

    def test_degree_guard(self):
        with pytest.raises(NonlinearTermDegreeTooLow):
            polynomial_field(2, 1, [((1, 0), np.array([1.0]))], min_degree=2)

    @staticmethod
    def _coeffs(rng, out, kind):
        c = rng.standard_normal(out)
        return c + 1j * rng.standard_normal(out) if kind == "complex" else c

    @staticmethod
    def _naive(terms, z):
        # per-term sum; z is one point or a (dim, T) batch
        z = np.asarray(z)
        lead = (slice(None),) + (None,) * (z.ndim - 1)
        return sum(
            c[lead] * np.prod([z[i] ** e for i, e in enumerate(m)], axis=0)
            for m, c in terms
        )

    @pytest.mark.parametrize("terms, forms, error, match", [
        ([((1,), [1.0])], np.array([[1.0, 1j]]), InvalidParameters, "forms must be real"),
        ([((2, 0), [1.0, 2.0])], None, DimensionMismatch, r"shape \(2,\), expected \(1,\)"),
        ([((2, 0), 1, 1.0)], None, DimensionMismatch, r"target_dof 1 outside \[0, 1\)"),
        ([((2, 0), -1, 1.0)], None, DimensionMismatch, "target_dof -1"),
        ([((2, 0),)], None, DimensionMismatch, "2- or 3-tuples"),
        ([((2, 0), 0, 1.0, 2.0)], None, DimensionMismatch, "2- or 3-tuples"),
        ([((3, -1), [1.0])], None, InvalidParameters, "negative exponent"),
        ([((2, 0), [np.nan])], None, InvalidParameters, "non-finite coefficient"),
        ([((1, 1), 0, np.inf)], None, InvalidParameters, "non-finite coefficient"),
        ([((2, 0), [complex(1.0, np.nan)])], None, InvalidParameters, "non-finite coefficient"),
    ], ids=["complex-forms", "vector-shape", "dof-above", "dof-below", "one-tuple",
            "four-tuple", "negative-exponent", "nan", "inf", "complex-nan"])
    def test_bad_terms_refused(self, terms, forms, error, match):
        with pytest.raises(error, match=match):
            polynomial_field(2, 1, terms, forms=forms)

    @pytest.mark.parametrize("evaluate, z", [
        (evaluate_field, np.zeros(3)),
        (evaluate_field, np.zeros((3, 5))),
        (evaluate_field, np.zeros((2, 5, 1))),
        (evaluate_field, np.zeros(())),
        (field_jacobian, np.zeros(3)),
        (field_jacobian, np.zeros((2, 1))),
    ], ids=["field-vector", "field-grid", "field-3d", "field-scalar", "jacobian-vector",
            "jacobian-column"])
    def test_state_of_the_wrong_shape_refused(self, evaluate, z):
        fld = polynomial_field(2, 1, [((2, 0), [1.0]), ((1, 1), [0.5])])
        with pytest.raises(DimensionMismatch, match="state has shape"):
            evaluate(fld, z)

    def test_evaluate_matches_naive(self, rng):
        # real coefficients, and complex ones as reduced models carry
        dim, out = 4, 2
        for kind in ("real", "complex"):
            terms = [
                ((2, 0, 1, 0), self._coeffs(rng, out, kind)),
                ((0, 3, 0, 0), self._coeffs(rng, out, kind)),
                ((1, 1, 0, 1), self._coeffs(rng, out, kind)),
                ((1, 0, 0, 0), self._coeffs(rng, out, kind)),
            ]
            fld = polynomial_field(dim, out, terms, min_degree=1)
            z = rng.standard_normal(dim)
            assert evaluate_field(fld, z) == pytest.approx(self._naive(terms, z))
            Z = rng.standard_normal((dim, 9))
            assert evaluate_field(fld, Z) == pytest.approx(self._naive(terms, Z))

    def test_evaluate_grid_shape(self, rng):
        for kind in ("real", "complex"):
            fld = polynomial_field(
                2,
                2,
                [((2, 0), self._coeffs(rng, 2, kind)), ((1, 2), self._coeffs(rng, 2, kind))],
            )
            Z = rng.standard_normal((2, 7))
            out = evaluate_field(fld, Z)
            assert out.shape == (2, 7)
            for t in range(7):
                assert out[:, t] == pytest.approx(evaluate_field(fld, Z[:, t]))

    @given(seed=st.integers(0, 2**31), complex_coeffs=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_jacobian_matches_finite_differences(self, seed, complex_coeffs):
        r = np.random.default_rng(seed)
        dim = int(r.integers(2, 5))
        terms = []
        for _ in range(int(r.integers(1, 4))):
            e = [0] * dim
            for _ in range(int(r.integers(1, 4))):
                e[int(r.integers(0, dim))] += 1
            coeff = r.standard_normal(dim)
            if complex_coeffs:
                coeff = coeff + 1j * r.standard_normal(dim)
            terms.append((tuple(e), coeff))
        fld = polynomial_field(dim, dim, terms, min_degree=1)
        z = r.standard_normal(dim)
        J = field_jacobian(fld, z)
        h = 1e-7
        for j in range(dim):
            dz = np.zeros(dim)
            dz[j] = h
            fd = (evaluate_field(fld, z + dz) - evaluate_field(fld, z - dz)) / (2 * h)
            assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-7)

    def test_field_without_terms(self, rng):
        fld = polynomial_field(4, 2, [])
        z = rng.standard_normal(4)
        assert np.array_equal(evaluate_field(fld, z), np.zeros(2))
        assert np.array_equal(evaluate_field(fld, rng.standard_normal((4, 5))), np.zeros((2, 5)))
        assert np.array_equal(field_jacobian(fld, z), np.zeros((2, 4)))

    def test_replace_evaluates_new_terms(self, rng):
        # the evaluation form is cached on the instance: a field made by
        # dataclasses.replace must not reuse the one of the field it copies
        fld = polynomial_field(2, 1, [((2, 0), np.array([1.0])), ((1, 1), np.array([2.0]))])
        z = np.array([0.5, -1.5])
        assert evaluate_field(fld, z) == pytest.approx([0.25 - 1.5])
        cubic = dataclasses.replace(fld, form_terms=(((0, 3), np.array([3.0])),))
        assert evaluate_field(cubic, z) == pytest.approx([3.0 * (-1.5) ** 3])
        assert field_jacobian(cubic, z) == pytest.approx(np.array([[0.0, 9.0 * 1.5**2]]))
        assert evaluate_field(fld, z) == pytest.approx([0.25 - 1.5])

    @pytest.mark.parametrize("forms", [None, [[1.0, -1.0], [0.0, 1.0], [2.0, 0.0]]],
                             ids=["identity", "forms"])
    def test_replace_derives_degree_and_terms(self, rng, forms):
        # form_terms is the stored field: a replace of it moves max_degree,
        # degrees and terms with it, however much of the old field was read
        width = 2 if forms is None else 3
        cubic = polynomial_field(2, 2, [((3,) + (0,) * (width - 1), 0, 1.0),
                                        ((1, 2) + (0,) * (width - 2), 1, 0.5)], forms=forms)
        z = rng.standard_normal(2)
        assert (cubic.max_degree, cubic.degrees) == (3, (3,))
        assert {sum(m) for m, _ in cubic.terms} == {3} and evaluate_field(cubic, z).any()
        quartic = (((0,) * (width - 1) + (4,), np.array([2.0, 0.0])),
                   ((1, 3) + (0,) * (width - 2), np.array([0.0, -1.0])))
        fld = dataclasses.replace(cubic, form_terms=quartic)
        assert (fld.max_degree, fld.degrees) == (4, (4,))
        y = z if forms is None else np.asarray(forms) @ z
        want = [2.0 * y[-1] ** 4, -y[0] * y[1] ** 3]
        assert evaluate_field(fld, z) == pytest.approx(want, rel=1e-13)
        if forms is None:
            assert fld.terms is fld.form_terms is quartic
        assert {sum(m) for m, _ in fld.terms} == {4}
        monomials = sum(c * np.prod(z ** np.array(m)) for m, c in fld.terms)
        assert monomials == pytest.approx(want, rel=1e-13)
        assert dataclasses.replace(cubic, form_terms=()).max_degree == 0


class TestBuildSystem:
    def test_structural_detection(self):
        M, C, K = duffing_matrices()
        sys_ = build_system(M, C, K)
        assert sys_.damping_class.kind == "structural"

    def test_structural_coefficients(self):
        n = 3
        M = np.diag([1.0, 2.0, 3.0])
        K = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        C = 0.03 * M + 0.07 * K
        sys_ = build_system(M, C, K)
        assert sys_.damping_class.kind == "structural"
        assert sys_.damping_class.c_M == pytest.approx(0.03, abs=1e-12)
        assert sys_.damping_class.c_K == pytest.approx(0.07, abs=1e-12)

    def test_general_damping(self):
        M = np.eye(2)
        K = np.diag([1.0, 4.0])
        C = np.array([[0.2, 0.1], [-0.1, 0.2]])
        sys_ = build_system(M, C, K)
        assert sys_.damping_class.kind == "general"
        with pytest.raises(NotStructural):
            build_system(M, C, K, damping="structural")

    def test_damping_override_general(self):
        M, C, K = duffing_matrices()
        sys_ = build_system(M, C, K, damping="general")
        assert sys_.damping_class.kind == "general"

    def test_asymmetric_mass_rejected(self):
        M = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            build_system(M, np.eye(2), np.eye(2))

    def test_indefinite_stiffness_rejected(self):
        K = np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveDefinite):
            build_system(np.eye(2), 0.1 * np.eye(2), K)

    def test_zero_stiffness_rejected(self):
        # a zero K passes the symmetry check (it has no scale) and is
        # then refused as not positive definite
        with pytest.raises(NotPositiveDefinite, match="K"):
            build_system(np.eye(2), 0.1 * np.eye(2), np.zeros((2, 2)))

    def test_indefinite_damping_rejected(self):
        C = np.diag([0.1, -0.3])
        with pytest.raises(DampingIndefinite):
            build_system(np.eye(2), C, np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_system(np.eye(2), np.eye(2), np.eye(3))

    @pytest.mark.parametrize("which, bad, error, match", [
        ("M", np.ones((1, 2)), DimensionMismatch, "M has shape"),
        ("M", np.ones(2), DimensionMismatch, "M has shape"),
        ("M", np.ones((2, 2, 2)), DimensionMismatch, "M has shape"),
        ("M", np.array([[1.0, 0.0], [0.0, np.nan]]), InvalidParameters, "M contains non-finite"),
        ("C", np.array([[np.inf, 0.0], [0.0, 0.1]]), InvalidParameters, "C contains non-finite"),
        ("K", np.array([[1.0, -np.inf], [0.0, 1.0]]), InvalidParameters, "K contains non-finite"),
    ], ids=["M-wide", "M-vector", "M-3d", "M-nan", "C-inf", "K-inf"])
    def test_bad_matrices_refused(self, which, bad, error, match):
        matrices = {"M": np.eye(2), "C": 0.1 * np.eye(2), "K": np.eye(2)}
        matrices[which] = bad
        with pytest.raises(error, match=match):
            build_system(matrices["M"], matrices["C"], matrices["K"])

    def test_term_exponent_length_checked(self):
        M, C, K = duffing_matrices()
        with pytest.raises(DimensionMismatch):
            build_system(M, C, K, terms=[((3,), 0, 1.0)])

    def test_first_order_blocks(self):
        M, C, K = duffing_matrices(omega=2.0, zeta=0.25)
        sys_ = build_system(M, C, K)
        B, A = first_order_blocks(sys_)
        n = 1
        assert B[:n, :n] == pytest.approx(C)
        assert B[:n, n:] == pytest.approx(M)
        assert B[n:, :n] == pytest.approx(M)
        assert B[n:, n:] == pytest.approx(np.zeros((n, n)))
        assert A[:n, :n] == pytest.approx(-K)
        assert A[n:, n:] == pytest.approx(M)
        assert A[:n, n:] == pytest.approx(np.zeros((n, n)))

    def test_matrices_frozen(self):
        M, C, K = duffing_matrices()
        sys_ = build_system(M, C, K)
        with pytest.raises(ValueError):
            sys_.M[0, 0] = 5.0

    @pytest.mark.parametrize("term", [((3, 0), [1 + 2j]), ((3, 0), 0, 1 + 2j)])
    def test_complex_force_coefficient_rejected(self, term):
        with pytest.raises(InvalidParameters, match="imaginary"):
            build_system(np.eye(1), [[0.1]], [[1.0]], terms=[term])

    def test_complex_coefficient_without_imaginary_part_stored_real(self):
        sys_ = build_system(np.eye(1), [[0.1]], [[1.0]], terms=[((3, 0), np.array([2 + 0j]))])
        (m, coeff), = sys_.nonlinearity.terms
        assert coeff.dtype == np.float64 and coeff.tolist() == [2.0]

    def test_reduced_fields_keep_complex_coefficients(self):
        # R and W of a reduced model are complex, in either term format
        for term in (((2,), [1 + 2j]), ((2,), 0, 1 + 2j)):
            fld = polynomial_field(1, 1, [term], min_degree=1)
            assert fld.terms[0][1].tolist() == [1 + 2j]


class TestForcingSignal:
    def test_pad_prepends_zeros_and_shifts_t0(self):
        samples = np.ones((10, 2))
        sig = load_forcing(samples, dt=0.5, pad_length=4)
        assert sig.length == 14
        assert np.all(sig.samples[:4] == 0.0)
        assert sig.t0 == pytest.approx(-2.0)
        assert sig.times()[4] == pytest.approx(0.0)

    def test_max_magnitude_is_sup_row_norm(self):
        samples = np.array([[3.0, 4.0], [1.0, 0.0]])
        sig = load_forcing(samples, dt=1.0)
        assert sig.max_magnitude == pytest.approx(5.0)

    def test_norm_overflow_refused(self):
        # finite entries whose row norm squares past float64: refused
        # without a NumPy overflow warning, as is a scale that overflows it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match="overflows"):
                load_forcing(np.full((5, 2), 1e200), dt=0.1)
            sig = load_forcing(np.full((5, 2), 1e150), dt=0.1)
            assert sig.max_magnitude == np.linalg.norm(sig.samples, axis=1).max()
            for factor in (1e10, 1e300):
                with pytest.raises(InvalidParameters, match="overflows"):
                    sig.scaled(factor)

    @pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_refused(self, factor):
        # nan, and inf times the pad's zeros, would read as an overflow
        sig = load_forcing(np.ones((5, 1)), dt=1.0, pad_length=2)
        with pytest.raises(InvalidParameters, match=f"scale factor must be finite, got {factor!r}"):
            sig.scaled(factor)

    def test_scaled(self):
        sig = load_forcing(np.ones((5, 1)), dt=1.0).scaled(2.5)
        assert sig.max_magnitude == pytest.approx(2.5)
        assert np.all(sig.samples == 2.5)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_record_is_one_frozen_copy(self, rng, order):
        samples = np.asarray(rng.standard_normal((300, 7)) + 0.1, order=order)
        sig = load_forcing(samples, dt=0.1, pad_length=5)
        padded = np.vstack([np.zeros((5, 7)), samples])
        assert sig.samples.dtype == np.float64
        assert sig.samples.flags.c_contiguous and not sig.samples.flags.writeable
        assert not np.shares_memory(sig.samples, samples)
        assert np.array_equal(sig.samples, padded)
        assert not np.signbit(sig.samples[:5]).any()  # +0.0, not -0.0
        # every column nonzero: the sup over the full rows, bit for bit
        assert sig.max_magnitude == np.linalg.norm(padded, axis=1).max()
        for factor in (-1.7, 0.3):
            scaled = sig.scaled(factor)
            assert scaled.max_magnitude == np.linalg.norm(sig.samples * factor, axis=1).max()
            assert scaled.samples.flags.c_contiguous and not scaled.samples.flags.writeable
            assert (scaled.dt, scaled.t0, scaled.pad_length) == (sig.dt, sig.t0, 5)

    def test_record_and_scaled_make_one_copy(self, rng):
        # the record, the norm's squares, and no second copy of either
        samples = rng.standard_normal((20_000, 10))
        tracemalloc.start()
        try:
            sig = load_forcing(samples, dt=0.1, pad_length=100)
            held, loaded = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sig.scaled(2.0)
            _, scaled = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded < 2.5 * samples.nbytes
        assert scaled - held < 2.5 * samples.nbytes

    def test_time_column_sets_grid(self):
        time = 0.25 * np.arange(8) + 3.0
        sig = load_forcing(np.ones((8, 1)), time=time)
        assert sig.dt == pytest.approx(0.25)
        assert sig.t0 == pytest.approx(3.0)

    def test_nonuniform_time_rejected(self):
        time = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(NonuniformInput):
            load_forcing(np.ones((4, 1)), time=time)

    def test_decreasing_time_rejected(self):
        time = np.array([0.0, -0.1, -0.2])
        with pytest.raises(NonuniformInput):
            load_forcing(np.ones((3, 1)), time=time)

    def test_too_short_rejected(self):
        with pytest.raises(EmptySignal):
            load_forcing(np.ones((1, 1)), dt=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones((6, 2))
        samples[3, 1] = bad
        with pytest.raises(InvalidParameters, match="non-finite"):
            load_forcing(samples, dt=0.1)
        with pytest.raises(InvalidParameters, match="non-finite"):
            load_forcing(samples, time=0.1 * np.arange(6))

    @pytest.mark.parametrize("samples, time, match", [
        (np.ones((4, 2, 1)), None, r"samples must be 2-d, got shape \(4, 2, 1\)"),
        (np.ones((4, 1)), 0.1 * np.arange(5), "time column length"),
        (np.ones((4, 1)), 0.1 * np.arange(3), "time column length"),
        (np.ones((4, 1)), 0.1 * np.arange(4)[:, None], "time column length"),
    ], ids=["samples-3d", "time-long", "time-short", "time-column-2d"])
    def test_bad_shapes_refused(self, samples, time, match):
        with pytest.raises(DimensionMismatch, match=match):
            load_forcing(samples, dt=None if time is not None else 0.1, time=time)

    def test_one_dimensional_input_becomes_column(self):
        sig = load_forcing(np.arange(6.0), dt=0.1)
        assert sig.samples.shape == (6, 1)

    def test_damping_class_frozen_defaults(self):
        d = DampingClass(kind="general")
        assert d.c_M == 0.0 and d.c_K == 0.0


class TestIntegerCheck:
    def test_accepts_integers_in_range(self):
        for value in (0, 3, np.int64(3), np.uint8(2)):
            _check_int(value, "k", 0, 3)
        _check_int(10**30, "k", 1)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, np.bool_(True), None, "2", -1, 4])
    def test_refuses_the_rest(self, value):
        with pytest.raises(InvalidParameters, match="k must be an integer in 0..3"):
            _check_int(value, "k", 0, 3)


class TestReducedModel:
    @staticmethod
    def _parts(d=2, full=4):
        """A linear R on R^d and the lift of r into the first d of full coordinates."""
        R = polynomial_field(d, d, [((1, 0), [0.0, -1.0]), ((0, 1), [1.0, -0.1])], min_degree=1)
        W = polynomial_field(d, full, [((1, 0), 0, 1.0), ((0, 1), 1, 1.0)], min_degree=1)
        return R, W, np.eye(d, full), np.eye(full, d)

    def test_valid_parts_assemble(self):
        model = reduced_model(*self._parts())
        assert model.d == 2 and model.W.out_dim == 4

    @pytest.mark.parametrize("case, match", [
        ("R-out-dim", r"R must map R\^d to R\^d"),
        ("R-constant", "must vanish at the origin"),
        ("W-constant", "must vanish at the origin"),
        ("W-dim", r"W must be a map from R\^d"),
        ("rows-shape", "tangent matrices have shapes"),
        ("cols-shape", "tangent matrices have shapes"),
        ("not-inverse", "deviates from the identity"),
    ])
    def test_bad_parts_refused(self, case, match):
        R, W, rows, cols = self._parts()
        if case == "R-out-dim":
            R = polynomial_field(2, 3, [((1, 0), 0, 1.0)], min_degree=1)
        elif case == "R-constant":
            R = polynomial_field(2, 2, [((1, 0), [0.0, -1.0]), ((0, 1), [1.0, -0.1])],
                                 min_degree=0)
        elif case == "W-constant":
            W = polynomial_field(2, 4, [((1, 0), 0, 1.0)], min_degree=0)
        elif case == "W-dim":
            W = polynomial_field(3, 4, [((1, 0, 0), 0, 1.0)], min_degree=1)
        elif case == "rows-shape":
            rows = np.eye(2, 3)
        elif case == "cols-shape":
            cols = np.eye(4, 3)
        else:
            rows = 2.0 * rows
        with pytest.raises(DimensionMismatch, match=match):
            reduced_model(R, W, rows, cols)
