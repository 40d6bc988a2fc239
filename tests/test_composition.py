import operator
from dataclasses import replace

import numpy as np
import pytest

from steadystate import (
    CoefficientTensor,
    CompositionCache,
    assemble_H,
    assemble_phi,
    build_duffing,
    build_oscillator_chain,
    build_system,
    compose_field,
    composition,
    decompose_general,
    decompose_structural,
    evaluate_field,
    faadibruno_phi,
    field_jacobian,
)
from steadystate.errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidParameters,
    OrderUnavailable,
)
from steadystate.gss import _harmonic_ball, _lattice_product
from steadystate.model import polynomial_field
from tests.conftest import random_system


def _filled_tensor(rng, state_dim, order_max, length, orders=None):
    tensor = CoefficientTensor.empty(state_dim, order_max, length, dt=0.1)
    for nu in range(1, (orders or order_max) + 1):
        tensor.insert_slice(nu, rng.normal(size=(state_dim, length)))
    return tensor


class TestCoefficientTensor:
    def test_empty_refuses_unfilled_orders(self):
        # the slots are zeros, not a marker: the reads check the filled orders
        t = CoefficientTensor.empty(4, 3, 10, dt=0.1)
        assert t.orders_complete == 0
        for nu in (1, 2, 3):
            with pytest.raises(OrderUnavailable):
                t.order_slice(nu)
        with pytest.raises(OrderUnavailable):
            assemble_phi(build_oscillator_chain(2), t, 2)

    def test_insert_zeros_fills_the_order(self, rng):
        t = CoefficientTensor.empty(2, 3, 10, dt=0.1)
        t.insert_slice(1, rng.normal(size=(2, 10)))
        t.insert_zeros(2)
        assert t.orders_complete == 2
        assert np.array_equal(t.order_slice(2), np.zeros((2, 10)))
        assert not np.signbit(t.order_slice(2)).any()
        with pytest.raises(OrderUnavailable):
            t.order_slice(3)
        with pytest.raises(OrderUnavailable):
            assemble_phi(build_duffing(), t, 4)
        with pytest.raises(OrderUnavailable):
            t.insert_zeros(4)

    def test_insert_and_read(self, rng):
        t = CoefficientTensor.empty(4, 3, 10, dt=0.1)
        grid = rng.normal(size=(4, 10))
        t.insert_slice(1, grid)
        assert np.array_equal(t.order_slice(1), grid)
        assert np.array_equal(t.component(2, 1), grid[2])
        assert t.orders_complete == 1

    def test_orders_complete_requires_contiguity(self, rng):
        t = CoefficientTensor.empty(2, 3, 10, dt=0.1)
        t.insert_slice(2, rng.normal(size=(2, 10)))
        assert t.orders_complete == 0
        t.insert_slice(1, rng.normal(size=(2, 10)))
        assert t.orders_complete == 2

    def test_unfilled_read_raises(self):
        t = CoefficientTensor.empty(2, 3, 10, dt=0.1)
        with pytest.raises(OrderUnavailable):
            t.order_slice(1)
        with pytest.raises(OrderUnavailable):
            t.order_slice(4)

    def test_bad_slice_shape(self):
        t = CoefficientTensor.empty(2, 3, 10, dt=0.1)
        with pytest.raises(GridMismatch):
            t.insert_slice(1, np.zeros((2, 9)))
        with pytest.raises(OrderUnavailable):
            t.insert_slice(0, np.zeros((2, 10)))

    def test_stored_orders_have_slots(self, rng):
        t = CoefficientTensor.empty(2, 5, 10, dt=0.1, stored=(1, 3, 5))
        assert t.data.shape == (2, 3, 10)
        assert t.order_max == 5 and t.stored == (1, 3, 5)
        grid = rng.normal(size=(2, 10))
        t.insert_slice(3, grid)
        assert np.array_equal(t.data[:, 1], grid)
        assert np.array_equal(t.component(1, 3), grid[1])
        t.insert_zeros(2)
        z = t.order_slice(2)
        assert z.shape == (2, 10) and not z.flags.writeable
        assert not np.any(z) and not np.signbit(z).any()
        assert not np.any(t.component(0, 4))
        with pytest.raises(OrderUnavailable):
            t.insert_slice(2, grid)
        with pytest.raises(OrderUnavailable):
            t.insert_slice(6, grid)

    def test_window_keeps_the_stored_orders(self, rng):
        t = CoefficientTensor.empty(2, 4, 10, dt=0.1, stored=(1, 3))
        w = t.window(slice(4, 7))
        assert w.stored == (1, 3) and w.order_max == 4 and w.data.shape == (2, 2, 3)
        grid = rng.normal(size=(2, 3))
        w.insert_slice(3, grid)
        assert np.array_equal(t.data[:, 1, 4:7], grid)
        with pytest.raises(OrderUnavailable):
            w.insert_slice(2, grid)

    @pytest.mark.parametrize("stored", [(1, 1), (3, 1), (0, 1), (1, 6), (1,)])
    def test_stored_orders_checked(self, stored):
        with pytest.raises(DimensionMismatch):
            CoefficientTensor(np.zeros((2, 2, 10)), 0.1, 0.0, 0, stored=stored, order_max=5)

    def test_times_grid(self):
        t = CoefficientTensor.empty(2, 1, 5, dt=0.5, t0=-1.0, pad_length=2)
        assert np.array_equal(t.times(), [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestAssembleH:
    def test_degree_one_is_component(self, rng):
        t = _filled_tensor(rng, 3, 4, 20)
        cache = CompositionCache(max_degree=3)
        H = assemble_H((0, 1, 0), 3, t.component, 20, cache)
        assert np.array_equal(H, t.component(1, 3))

    def test_below_degree_is_zero(self, rng):
        t = _filled_tensor(rng, 2, 4, 20)
        cache = CompositionCache(max_degree=3)
        H = assemble_H((2, 1), 2, t.component, 20, cache)
        assert np.all(H == 0.0)

    def test_bilinear_product(self, rng):
        # H[(1,1), 2] = z^0_1 z^1_1
        t = _filled_tensor(rng, 2, 4, 20)
        cache = CompositionCache(max_degree=3)
        H = assemble_H((1, 1), 2, t.component, 20, cache)
        assert np.abs(H - t.component(0, 1) * t.component(1, 1)).max() < 1e-15

    def test_square_at_order_three(self, rng):
        # H[(2,0), 3] = 2 z^0_1 z^0_2
        t = _filled_tensor(rng, 2, 4, 20)
        cache = CompositionCache(max_degree=3)
        H = assemble_H((2, 0), 3, t.component, 20, cache)
        byhand = 2.0 * t.component(0, 1) * t.component(0, 2)
        assert np.abs(H - byhand).max() < 1e-14 * max(np.abs(byhand).max(), 1.0)

    def test_cube_base_case(self, rng):
        # H[(3,0), 3] = (z^0_1)^3
        t = _filled_tensor(rng, 2, 4, 20)
        cache = CompositionCache(max_degree=4)
        H = assemble_H((3, 0), 3, t.component, 20, cache)
        assert np.abs(H - t.component(0, 1) ** 3).max() < 1e-14

    def test_invalid_monomials(self, rng):
        t = _filled_tensor(rng, 2, 2, 10)
        cache = CompositionCache(max_degree=3)
        with pytest.raises(DimensionMismatch):
            assemble_H((0, 0), 1, t.component, 10, cache)
        with pytest.raises(DimensionMismatch):
            assemble_H((-1, 2), 1, t.component, 10, cache)


class TestCompositionCache:
    def test_prefixes_are_reused(self, rng):
        t = _filled_tensor(rng, 2, 5, 20)
        cache = CompositionCache(max_degree=4)
        assemble_H((2, 1), 4, t.component, 20, cache)
        first = cache.stats()
        assert first["misses"] > 0 and first["entries"] > 0
        assemble_H((2, 1), 4, t.component, 20, cache)
        second = cache.stats()
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]

    def test_top_degree_not_stored(self, rng):
        t = _filled_tensor(rng, 2, 4, 20)
        cache = CompositionCache(max_degree=3)
        assemble_H((2, 1), 3, t.component, 20, cache)
        assert cache._store
        for (factors, _nu) in cache._store:
            assert len(factors) < 3


class TestComposeField:
    def test_matches_manual_sum(self, rng):
        fld = polynomial_field(
            2,
            2,
            [
                ((2, 0), np.array([1.0, -0.5])),
                ((1, 1), np.array([0.0, 2.0])),
            ],
        )
        t = _filled_tensor(rng, 2, 3, 15)
        cache = CompositionCache(max_degree=2)
        out = compose_field(fld, t.component, 2, 15, cache)
        h_sq = t.component(0, 1) ** 2
        h_xy = t.component(0, 1) * t.component(1, 1)
        assert np.abs(out[0] - h_sq).max() < 1e-14
        assert np.abs(out[1] - (-0.5 * h_sq + 2.0 * h_xy)).max() < 1e-13

    def test_complex_coefficients_and_components(self, rng):
        # the reduced-model path composes complex fields along complex
        # modal coordinates
        fld = polynomial_field(
            2,
            2,
            [
                ((1, 0), np.array([0.5 - 1.0j, 0.0])),
                ((1, 2), np.array([1.0 + 2.0j, -0.5j])),
                ((0, 2), np.array([0.0, 3.0 - 0.5j])),
            ],
            min_degree=1,
        )
        grids = [
            rng.normal(size=(2, 15)) + 1j * rng.normal(size=(2, 15)) for _ in range(3)
        ]

        def z(i, m):
            return grids[m - 1][i]

        cache = CompositionCache(max_degree=3)
        out = compose_field(fld, z, 3, 15, cache, dtype=complex)
        # order-3 coefficients: z0_3 for x, x y^2 needs three first-order
        # factors, y^2 pairs orders (1, 2) both ways
        h_x = z(0, 3)
        h_xyy = z(0, 1) * z(1, 1) ** 2
        h_yy = 2.0 * z(1, 1) * z(1, 2)
        c = dict(fld.terms)
        want = c[(1, 0)][:, None] * h_x + c[(1, 2)][:, None] * h_xyy + c[(0, 2)][:, None] * h_yy
        assert out.dtype == complex
        assert np.abs(out - want).max() < 1e-13 * np.abs(want).max()


def _form_system(rng, n, r, degrees=(2, 3)):
    """A small random system whose field is a polynomial in r random
    forms of its state: one term of each degree in degrees plus a
    cross term, like the strain powers of an element."""
    M = np.diag(1.0 + rng.random(n))
    K = 2.0 * np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    forms = rng.standard_normal((r, 2 * n))
    forms[rng.random(forms.shape) < 0.4] = 0.0  # sparse, as element strains are
    terms = []
    for d in degrees:
        e = [0] * r
        e[int(rng.integers(r))] = d
        terms.append((e, 0.3 * rng.standard_normal(n)))
        e = [0] * r
        for _ in range(d):
            e[int(rng.integers(r))] += 1
        terms.append((e, 0.3 * rng.standard_normal(n)))
    return build_system(M, 0.05 * M + 0.02 * K, K, terms=terms, forms=forms)


def _expanded(fld):
    """The same field on the identity forms, built from its terms."""
    return polynomial_field(fld.dim, fld.out_dim, fld.terms, min_degree=fld.min_degree)


def _old_chain_terms(n, kappa3):
    """The chain's monomials as build_oscillator_chain wrote them before
    its springs were forms: each cube expanded into the state, summed
    per (monomial, dof), exact zeros dropped, merged by polynomial_field."""
    dim = 2 * n
    terms: dict = {}

    def add(exponents, dof, coeff):
        key = (tuple(exponents), dof)
        terms[key] = terms.get(key, 0.0) + coeff

    def cubic_pair(i, j):
        for a, sign in (((3, 0), 1.0), ((2, 1), -3.0), ((1, 2), 3.0), ((0, 3), -1.0)):
            e = [0] * dim
            e[i] = a[0]
            e[j] = a[1]
            add(e, i, kappa3 * sign)
            add(e, j, -kappa3 * sign)

    def cubic_ground(i):
        e = [0] * dim
        e[i] = 3
        add(e, i, kappa3)

    cubic_ground(0)
    for i in range(n - 1):
        cubic_pair(i, i + 1)
    cubic_ground(n - 1)
    packed = [(list(e), dof, c) for (e, dof), c in terms.items() if c != 0.0]
    return polynomial_field(dim, n, packed).terms


# (n, forms): fewer forms than state coordinates, and more
_FORM_SHAPES = ((2, 3), (2, 7), (3, 4), (1, 3))


class TestFormFields:
    """A field on forms against direct enumeration and against the same
    field expanded into monomials of the state."""

    @pytest.mark.parametrize("n, r", _FORM_SHAPES)
    def test_matches_direct_enumeration(self, rng, n, r):
        # criterion 2's check on a quadratic-plus-cubic field on forms
        sys_ = _form_system(rng, n, r)
        assert sys_.nonlinearity.degrees == (2, 3)
        t = _filled_tensor(rng, 2 * n, 5, 9, orders=4)
        for nu in range(2, 6):
            a = assemble_phi(sys_, t, nu)
            b = faadibruno_phi(sys_, t, nu)
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    def test_harmonic_product_matches_direct_enumeration(self, rng):
        # complex harmonic coefficients through the 'qp' lattice product:
        # each order holds harmonics -1, 0, 1 only and the ball reaches 5,
        # so no product is truncated and the composed coefficients,
        # summed on a time grid, are the enumeration on the real grids
        sys_ = _form_system(rng, 2, 5)
        ks = np.array(_harmonic_ball(1, 5))[:, 0]
        times = np.linspace(0.0, 6.0, 13)
        phases = np.exp(1j * np.outer(ks, times))
        harmonics = CoefficientTensor(np.zeros((4, 5, len(ks)), dtype=complex), 0.1, 0.0, 0)
        grids = CoefficientTensor.empty(4, 5, len(times), dt=0.5)
        for nu in range(1, 5):
            c = np.zeros((4, len(ks)), dtype=complex)
            c[:, ks == 0] = rng.standard_normal((4, 1))
            one = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c[:, ks == 1] = one[:, None]
            c[:, ks == -1] = one.conj()[:, None]
            harmonics.insert_slice(nu, c)
            grids.insert_slice(nu, (c @ phases).real)
        product = _lattice_product(1, 5)
        for nu in range(2, 6):
            a = (assemble_phi(sys_, harmonics, nu, product=product) @ phases).real
            b = faadibruno_phi(sys_, grids, nu)
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    @pytest.mark.parametrize("n, r", _FORM_SHAPES)
    def test_agrees_with_expanded_field(self, rng, n, r):
        fld = _form_system(rng, n, r).nonlinearity
        flat = _expanded(fld)
        assert flat.forms is None and fld.forms.shape == (r, 2 * n)
        for z in (rng.standard_normal(2 * n), rng.standard_normal((2 * n, 7))):
            want = evaluate_field(flat, z)
            assert np.abs(evaluate_field(fld, z) - want).max() <= 1e-13 * np.abs(want).max()
        z = rng.standard_normal(2 * n)
        want = field_jacobian(flat, z)
        assert np.abs(field_jacobian(fld, z) - want).max() <= 1e-13 * np.abs(want).max()
        t = _filled_tensor(rng, 2 * n, 5, 11, orders=4)
        cache = CompositionCache(max_degree=3)
        for nu in range(2, 6):
            want = compose_field(flat, t.component, nu, 11, CompositionCache(max_degree=3))
            got = compose_field(fld, t.component, nu, 11, cache)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # one form grid per order read, dropped with the products
        assert sorted(cache._forms) == [1, 2, 3, 4]
        cache.clear()
        assert not cache._forms and not cache._store

    def test_chain_springs_are_forms(self):
        fld = build_oscillator_chain(20).nonlinearity
        assert fld.forms.shape == (21, 40)
        assert fld.n_terms == 21 and fld.degrees == (3,)
        assert len(fld.terms) == 58

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("kappa3", [0.5, 0.1, -2.5])
    def test_chain_terms_match_the_monomial_builder(self, n, kappa3):
        # at n = 1 both ground springs sit on the one dof
        got = build_oscillator_chain(n, kappa3=kappa3).nonlinearity.terms
        want = _old_chain_terms(n, kappa3)
        assert [m for m, _ in got] == [m for m, _ in want]
        for (_, c), (_, w) in zip(got, want):
            assert c.dtype == w.dtype and c.tobytes() == w.tobytes()

    def test_forms_read_only_their_columns(self, rng):
        # forms on the positions x0 and x2 and the velocity v1 of a
        # 3-dof state, skipping x1 between them: each order's forms are
        # the product of those three columns, with the bits of the whole
        # form matrix's product
        forms = np.zeros((3, 6))
        forms[0, [0, 2]] = (1.0, -1.0)
        forms[1, [2, 4]] = (0.5, 2.0)
        forms[2, 4] = -1.5
        terms = [((3, 0, 0), rng.standard_normal(3)), ((1, 1, 0), rng.standard_normal(3)),
                 ((0, 1, 2), rng.standard_normal(3))]
        fld = polynomial_field(6, 3, terms, forms=forms)
        columns, read = fld._read_forms
        assert np.array_equal(columns, [0, 2, 4]) and not columns.flags.writeable
        assert np.array_equal(read, forms[:, [0, 2, 4]])
        whole = replace(fld)
        whole.__dict__["_read_forms"] = (slice(None), fld.forms)
        t = _filled_tensor(rng, 6, 5, 23, orders=4)
        for nu in range(2, 6):
            got = compose_field(fld, t.component, nu, 23, CompositionCache(max_degree=3))
            want = compose_field(whole, t.component, nu, 23, CompositionCache(max_degree=3))
            assert np.array_equal(got, want), nu
        # a chain's springs read the positions, a slice of each grid
        assert build_oscillator_chain(20).nonlinearity._read_forms[0] == slice(0, 20)

    def test_forms_validated(self):
        with pytest.raises(DimensionMismatch):
            polynomial_field(4, 2, [((3, 0), np.ones(2))], forms=np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            polynomial_field(4, 2, [((3, 0, 0), np.ones(2))], forms=np.ones((2, 4)))
        with pytest.raises(InvalidParameters):
            polynomial_field(4, 2, [((3, 0), np.ones(2))], forms=np.full((2, 4), np.nan))


# monomial degrees of a field, and the orders the cascade it drives can
# reach (through order 12)
_LIVE = {
    (3,): (1, 3, 5, 7, 9, 11),
    (4,): (1, 4, 7, 10),
    (3, 5): (1, 3, 5, 7, 9, 11),
    (2, 3): tuple(range(1, 13)),
    (): (1,),
}


def _field_of_degrees(degrees):
    """A two-variable field with one or two terms of each degree."""
    terms = []
    for d in degrees:
        terms.append(((d, 0), np.array([0.7, -0.2])))
        terms.append(((1, d - 1), np.array([0.0, 0.4])))
    return polynomial_field(2, 2, terms)


def _cascade_tensor(rng, live, order_max, length):
    """Random grids at the live orders, explicit zeros elsewhere."""
    tensor = CoefficientTensor.empty(2, order_max, length, dt=0.1)
    for nu in range(1, order_max + 1):
        grid = rng.normal(size=(2, length)) if nu in live else np.zeros((2, length))
        tensor.insert_slice(nu, grid)
    return tensor


class TestLiveOrders:
    @pytest.mark.parametrize("degrees", list(_LIVE), ids=str)
    def test_live_orders(self, degrees):
        cache = CompositionCache(max_degree=max(degrees, default=2), degrees=degrees)
        assert tuple(nu for nu in range(1, 13) if cache.reaches(1, nu)) == _LIVE[degrees]
        assert _field_of_degrees(degrees).degrees == degrees

    def test_products_reach_sums_of_live_orders(self):
        cache = CompositionCache(max_degree=4, degrees=(4,))
        assert [nu for nu in range(1, 13) if cache.reaches(2, nu)] == [2, 5, 8, 11]
        assert [nu for nu in range(1, 13) if cache.reaches(3, nu)] == [3, 6, 9, 12]
        assert not any(cache.reaches(5, nu) for nu in range(1, 5))
        # the memoized splits are the brute-force walk over reaches, built
        # in any order of lookup and kept across clear()
        for degrees in [(2,), (3,), (4,), (2, 3), (3, 5)]:
            cache = CompositionCache(max_degree=max(degrees), degrees=degrees)
            pairs = [(d, nu) for d in range(1, max(degrees)) for nu in range(1, 16)]
            got = {pair: cache.splits(*pair) for pair in reversed(pairs)}
            cache.clear()
            for d, nu in pairs:
                brute = tuple(
                    a for a in range(1, nu) if cache.reaches(d, a) and cache.reaches(1, nu - a)
                )
                assert got[d, nu] == brute == cache.splits(d, nu), (degrees, d, nu)

    def test_default_reaches_every_order(self):
        cache = CompositionCache(max_degree=3)
        assert all(cache.reaches(d, nu) for d in range(1, 4) for nu in range(d, 13))
        assert not any(cache.reaches(d, d - 1) for d in range(1, 4))

    @pytest.mark.parametrize("degrees", [(3,), (4,), (3, 5), (2, 3)], ids=str)
    def test_skipped_splits_change_no_bit(self, rng, degrees):
        # the full recursion fed the explicit zero grids of the orders
        # that are not live gives the same bits at every order, and zeros
        # at the orders that are not live
        fld = _field_of_degrees(degrees)
        live = _LIVE[degrees]
        order_max, length = 11, 17
        t = _cascade_tensor(rng, live, order_max, length)
        calls = {}

        def counted(key):
            def product(a, b):
                calls[key] = calls.get(key, 0) + 1
                return a * b
            return product

        skip = CompositionCache(max_degree=fld.max_degree, degrees=fld.degrees)
        full = CompositionCache(max_degree=fld.max_degree)
        for nu in range(2, order_max + 1):
            # products are counted at the live orders only, where every
            # term runs and only the splits can be skipped
            key = "" if nu in live else "dead "
            got = compose_field(fld, t.component, nu, length, skip, product=counted(key + "skip"))
            ref = compose_field(fld, t.component, nu, length, full, product=counted(key + "full"))
            assert np.array_equal(got, ref), nu
            assert np.any(got != 0.0) == (nu in live), nu
        if 2 in degrees:
            assert calls["skip"] == calls["full"]
        else:
            assert calls["skip"] < calls["full"]

    def test_assemble_h_below_reach_is_zero(self, rng):
        t = _cascade_tensor(rng, _LIVE[(3,)], 6, 20)
        cache = CompositionCache(max_degree=3, degrees=(3,))
        assert np.array_equal(assemble_H((2, 0), 5, t.component, 20, cache), np.zeros(20))
        assert np.array_equal(
            assemble_H((2, 0), 4, t.component, 20, cache),
            assemble_H((2, 0), 4, t.component, 20, CompositionCache(max_degree=3)),
        )


class TestAssemblePhi:
    def test_order_one_stacks_forcing(self, rng):
        sys_ = build_duffing()
        t = CoefficientTensor.empty(2, 3, 12, dt=0.1)
        grid = rng.normal(size=(12, 1))
        g = assemble_phi(sys_, t, 1, forcing_grid=grid)
        assert g.shape == (1, 12)
        assert np.array_equal(g[0], grid[:, 0])

    def test_order_one_requires_grid(self):
        sys_ = build_duffing()
        t = CoefficientTensor.empty(2, 3, 12, dt=0.1)
        with pytest.raises(DimensionMismatch):
            assemble_phi(sys_, t, 1)
        with pytest.raises(GridMismatch):
            assemble_phi(sys_, t, 1, forcing_grid=np.zeros((5, 1)))

    def test_cubic_has_no_order_two_forcing(self, rng):
        sys_ = build_duffing(kappa3=2.0)
        t = _filled_tensor(rng, 2, 3, 12, orders=1)
        g = assemble_phi(sys_, t, 2)
        assert g.shape == (1, 12)
        assert np.all(g == 0.0)

    def test_duffing_order_three_identity(self, rng):
        # Phi_3 = (-kappa3 x_1^3, 0) for the cubic oscillator: its force
        # block g_3 = -kappa3 x_1^3
        kappa = 1.7
        sys_ = build_duffing(kappa3=kappa)
        t = _filled_tensor(rng, 2, 3, 12, orders=2)
        g = assemble_phi(sys_, t, 3)
        assert g.shape == (1, 12)
        assert np.abs(g[0] + kappa * t.component(0, 1) ** 3).max() < 1e-13

    def test_missing_orders_raise(self, rng):
        sys_ = build_duffing()
        t = _filled_tensor(rng, 2, 4, 12, orders=1)
        with pytest.raises(OrderUnavailable):
            assemble_phi(sys_, t, 3)

    def test_dimension_mismatch(self, rng):
        sys_ = build_duffing()
        t = _filled_tensor(rng, 4, 2, 12, orders=1)
        with pytest.raises(DimensionMismatch):
            assemble_phi(sys_, t, 2)

    @pytest.mark.parametrize("kind", ["structural", "general"])
    def test_basis_gives_the_projected_force_block(self, rng, kind):
        # P g_nu in one contraction equals P applied to g_nu, on every
        # route of the modal pair: U^T, the complex modal-input rows, and
        # the folded real rows; on the complex rows it equals project of
        # the state (g_nu, 0)
        sys_ = random_system(rng, 3, structural=kind == "structural")
        spec = (decompose_structural if kind == "structural" else decompose_general)(sys_)
        assert kind == "structural" or spec._folded is not None
        t = _filled_tensor(rng, 6, 4, 17, orders=3)
        grid = rng.normal(size=(17, 3))
        for real in (False, True):
            basis = spec.force_rows(real)
            for nu in range(1, 5):
                g = assemble_phi(sys_, t, nu, forcing_grid=grid)
                assert g.shape == (3, 17)
                want = basis @ g
                got = assemble_phi(sys_, t, nu, forcing_grid=grid, basis=basis)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (real, nu)
                if not real:
                    phi = np.vstack([g, np.zeros_like(g)])
                    assert np.abs(got - spec.project(phi)).max() <= 1e-13 * np.abs(want).max()
        with pytest.raises(DimensionMismatch):
            assemble_phi(sys_, t, 2, basis=np.ones((2, 6)))


class TestAgainstDirectEnumeration:
    """The peeling recursion must reproduce the multivariate chain-rule
    sum over integer compositions, for arbitrary coefficient grids."""

    def test_random_systems(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 3))
            sys_ = random_system(rng, n, max_degree=4, n_terms=3)
            nu_max = 5
            t = _filled_tensor(rng, 2 * n, nu_max, 9, orders=nu_max - 1)
            for nu in range(2, nu_max + 1):
                a = assemble_phi(sys_, t, nu)
                b = faadibruno_phi(sys_, t, nu)
                scale = max(np.abs(b).max(), 1.0)
                assert np.abs(a - b).max() <= 1e-12 * scale

    def test_duffing_order_five(self, rng):
        sys_ = build_duffing(kappa3=0.8)
        t = _filled_tensor(rng, 2, 5, 9, orders=4)
        a = assemble_phi(sys_, t, 5)
        b = faadibruno_phi(sys_, t, 5)
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


def _per_term(factors, nu, component, cache, product=operator.mul):
    """H[factors, nu] of one factor list by the recursion written per
    term, without a cache: the reference the batches must match."""
    pivot, rest = factors[0], factors[1:]
    if not rest:
        return np.asarray(component(pivot, nu))
    splits = cache.splits(len(rest), nu)
    out = product(_per_term(rest, splits[0], component, cache, product),
                  component(pivot, nu - splits[0]))
    for a in splits[1:]:
        out += product(_per_term(rest, a, component, cache, product), component(pivot, nu - a))
    return out


def _mixed_field(rng, n, r=None, terms=9):
    """A random field on 2n state coordinates, on r random forms (the
    identity for None), with terms of degrees 2 to 4 in random order."""
    width = 2 * n if r is None else r
    raw = []
    for k in range(terms):
        e = [0] * width
        for _ in range(2 + k % 3):
            e[int(rng.integers(width))] += 1
        raw.append((e, rng.standard_normal(n) + 0.5j * rng.standard_normal(n)))
    forms = None if r is None else rng.standard_normal((r, 2 * n))
    return polynomial_field(2 * n, n, raw, forms=forms)


def _harmonic_tensor(rng, dim, order_max):
    """Complex coefficients on the budget-5 ball of one frequency."""
    shape = (dim, order_max, 11)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return CoefficientTensor(data, 0.1, 0.0, 0)


class TestBatchedRecursion:
    """The batched recursion keeps the bits of the recursion run term by
    term, for any batch of rows and either product."""

    @pytest.mark.parametrize("r", [None, 5], ids=["identity", "forms"])
    @pytest.mark.parametrize("harmonic", [False, True], ids=["grid", "lattice"])
    @pytest.mark.parametrize("size", ["one", "all"])
    def test_compose_field_matches_per_term(self, rng, monkeypatch, r, harmonic, size):
        n, order = 3, 7
        fld = _mixed_field(rng, n, r)
        assert fld.degrees == (2, 3, 4)
        if harmonic:
            t, product = _harmonic_tensor(rng, 2 * n, order - 1), _lattice_product(1, 5)
        else:
            t, product = _filled_tensor(rng, 2 * n, order - 1, 23), operator.mul
        length = t.length
        # the batch size is max(1, _BATCH_SAMPLES // length) rows
        monkeypatch.setattr(composition, "_BATCH_SAMPLES", length if size == "one" else 10**6)
        if fld.forms is None:
            component = t.component
        else:
            def component(k, m):
                return (fld.forms @ t.component(slice(None), m))[k]
        cache = CompositionCache(max_degree=4)
        for nu in range(2, order + 1):
            got = compose_field(fld, t.component, nu, length, cache, dtype=complex,
                                product=product)
            live = [f for f in fld._factors if len(f) <= nu]
            H = np.array([_per_term(f, nu, component, cache, product) for f in live])
            coef = fld._coef[:, [k for k, f in enumerate(fld._factors) if len(f) <= nu]]
            want = np.matmul(coef, H, out=np.empty((n, length), dtype=complex))
            assert got.tobytes() == want.tobytes(), nu

    @pytest.mark.parametrize("harmonic", [False, True], ids=["grid", "lattice"])
    def test_consecutive_and_gathered_rows(self, rng, harmonic):
        dim, order = 7, 6
        if harmonic:
            t, product = _harmonic_tensor(rng, dim, order), _lattice_product(1, 5)
        else:
            t, product = _filled_tensor(rng, dim, order, 19), operator.mul
        batches = {
            "consecutive": [(2, 2, 5), (3, 3, 0), (4, 4, 1), (5, 5, 6)],
            "gathered": [(6, 1, 1), (0, 2, 3), (4, 0, 0), (1, 6, 2)],
            "one row": [(3, 1, 4)],
        }
        for name, lists in batches.items():
            columns = tuple(zip(*lists))
            cache = CompositionCache(max_degree=3)
            for nu in range(3, order + 1):
                got = composition._product(columns, nu, t.component, cache, product)
                assert got.shape == (len(lists), t.length)
                for row, f in zip(got, lists):
                    want = _per_term(f, nu, t.component, cache, product)
                    assert row.tobytes() == want.tobytes(), (name, nu, f)
            # the rest of a batch is stored once per order, keyed by its columns
            assert {key for key, _ in cache._store} == {columns[1:]}

    def test_assemble_h_is_the_one_row_batch(self, rng):
        t = _filled_tensor(rng, 4, 5, 20)
        cache = CompositionCache(max_degree=4)
        for gamma in [(2, 0, 1, 0), (0, 1, 0, 3), (1, 1, 1, 0), (0, 0, 2, 0)]:
            factors = tuple(i for i, e in enumerate(gamma) for _ in range(e))
            for nu in range(len(factors), 6):
                got = assemble_H(gamma, nu, t.component, 20, cache)
                want = _per_term(factors, nu, t.component, cache)
                assert got.shape == (20,) and got.tobytes() == want.tobytes()
