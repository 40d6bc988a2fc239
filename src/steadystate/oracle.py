"""Independent reference computations.

Everything here exists to check the main pipeline from a second route:

  newmark_full           nonlinear time integration of the physical
                         equations (Newton in each step); shares no code
                         with the kernel or composition stages, only
                         model.NewmarkStep and model's field evaluator
  picard_gss             fixed-point iteration on the full nonlinear
                         balance; deliberately reuses the kernel
                         propagation and its modal input map for its
                         linear solves, so it checks the composition/
                         expansion stages, not the kernel
  quadrature_weight_reference
                         Gauss quadrature of the defining weight
                         integrals in long double, no closed forms of
                         the weights involved
  faadibruno_phi         inhomogeneity assembly by direct enumeration of
                         order compositions, no shared-product recursion

Expected values in the test suite that are not analytic identities come
from these routes.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .composition import CoefficientTensor
from .errors import (
    DimensionMismatch,
    GridMismatch,
    InstanceTooLarge,
    InvalidParameters,
    NewtonDivergence,
    NoConvergence,
    QuadratureFailure,
)
from .gss import _decompose
from .kernel import build_kernel_weights, propagate_order
from .model import (
    ForcingSignal,
    MechanicalSystem,
    NewmarkStep,
    _check_dt,
    evaluate_field,
    field_jacobian,
)
from .spectral import (
    _oscillator_roots,
    check_contraction,
    select_modes,
    with_retained,
)

__all__ = [
    "newmark_full",
    "PicardResult",
    "picard_gss",
    "quadrature_weight_reference",
    "faadibruno_phi",
]


def newmark_full(
    system: MechanicalSystem,
    forcing: ForcingSignal,
    newton_tol: float = 1e-10,
    max_newton: int = 25,
) -> np.ndarray:
    """Average-acceleration integration of the full nonlinear system.

    Solves M x'' + C x' + K x + f(x, x') = g(t) from rest, Newton
    iteration in every step until the residual is at most newton_tol x
    max(initial residual, sup |g|) or the increment is at the rounding
    level of x (4 eps |x|), below which the residual, about c0 eps |x|,
    cannot fall. Returns the (2n, T) trajectory on the forcing grid. The
    Newton matrix uses the analytic polynomial Jacobian (field_jacobian).

    Raises NewtonDivergence (with step index and last residual) when an
    increment fails to converge.
    """
    n = system.n
    if forcing.n != n:
        raise DimensionMismatch(f"forcing has {forcing.n} columns, system needs {n}")
    g = forcing.samples  # (T, n), physical amplitude
    dt = forcing.dt
    T = g.shape[0]

    nm = NewmarkStep(dt)
    c1 = nm.c1
    M, C, K = system.M, system.C, system.K
    K_eff = nm.c0 * M + c1 * C + K  # Newton matrix without the field
    fld = system.nonlinearity

    def force(x, v):
        return evaluate_field(fld, np.concatenate([x, v]))

    x = np.zeros(n)
    v = np.zeros(n)
    a = np.linalg.solve(M, g[0] - force(x, v))
    out = np.zeros((2 * n, T))
    g_scale = float(np.linalg.norm(g, axis=1).max())
    rounding = 4.0 * np.finfo(float).eps

    for k in range(T - 1):
        target = g[k + 1]
        xn = x + dt * v + 0.5 * dt * dt * a  # explicit predictor

        def residual(xn_):
            vn_, an_ = nm.advance(x, v, a, xn_)
            return M @ an_ + C @ vn_ + K @ xn_ + force(xn_, vn_) - target, vn_, an_

        r, vn, an = residual(xn)
        rn = np.linalg.norm(r)
        floor = newton_tol * max(rn, g_scale, 1e-300)
        it = 0
        while rn > floor:
            if it >= max_newton:
                raise NewtonDivergence(
                    f"step {k + 1}: Newton stalled at residual {rn:.3e}",
                    step=k + 1,
                    residual=float(rn),
                )
            Jf = field_jacobian(fld, np.concatenate([xn, vn]))
            dx = np.linalg.solve(K_eff + Jf[:, :n] + c1 * Jf[:, n:], r)
            xn = xn - dx
            r, vn, an = residual(xn)
            rn = np.linalg.norm(r)
            it += 1
            if rn > floor and np.linalg.norm(dx) <= rounding * np.linalg.norm(xn):
                break  # xn is settled; r sits at its rounding level
        x, v, a = xn, vn, an
        out[:n, k + 1] = x
        out[n:, k + 1] = v
    return out


@dataclass(frozen=True)
class PicardResult:
    """Fixed-point solve outcome: trajectory (2n, T), iteration count,
    and the observed contraction ratio (last successive-difference
    quotient; nan if fewer than two correction steps happened)."""

    trajectory: np.ndarray
    iterations: int
    contraction_estimate: float
    tol: float


def picard_gss(
    system: MechanicalSystem,
    forcing: ForcingSignal,
    tol: float = 1e-10,
    max_iter: int = 60,
    eps_trunc: float = 1e-12,
) -> PicardResult:
    """Picard iteration for the steady state at the forcing's amplitude.

    z_{l+1} solves the linear steady problem with inhomogeneity
    (g - f(z_l), 0); iteration stops when sup_t |z_{l+1} - z_l|_2 < tol.
    The linear solves reuse the kernel propagation on purpose: this
    oracle exists to check the amplitude-expansion bookkeeping, and a
    fixed point of the iteration is exact for the propagated dynamics.
    Each sweep hands propagate_order the modal inputs P (g - f(z_l)),
    P = SpectralData.force_rows(real=True), the map the cascades
    contract with too: so the modal input map and the filters are
    shared with the expansion, and what this oracle checks independently
    is the field, evaluated by evaluate_field on the whole iterate
    rather than composed order by order.

    Warns when the contraction certificate (check_contraction, on a ball
    of twice the linear response's sup) does not hold at the forcing
    amplitude. Raises NoConvergence after max_iter sweeps, carrying the
    last iterate, or at the first sweep whose correction is not finite
    (the iterate has overflowed), carrying the last finite iterate.
    """
    n = system.n
    if forcing.n != n:
        raise DimensionMismatch(f"forcing has {forcing.n} columns, system needs {n}")
    spectral = _decompose(system)
    spectral = with_retained(spectral, select_modes(spectral, forcing.dt, eps=eps_trunc))
    weights = build_kernel_weights(spectral, forcing.dt)

    g = forcing.samples.T
    fld = system.nonlinearity
    basis = spectral.force_rows(real=True)

    inputs = basis @ g
    z = propagate_order(spectral, weights, inputs)

    ball = 2.0 * float(np.linalg.norm(z, axis=0).max())
    if ball > 0.0:
        report = check_contraction(
            system, spectral, delta=ball, forcing_delta=forcing.max_magnitude
        )
        if not report.satisfied:
            warnings.warn(
                "contraction certificate not satisfied at this amplitude "
                f"(factor {report.contraction_factor:.3g}); Picard may diverge",
                UserWarning,
            )

    diffs = []
    for it in range(1, max_iter + 1):
        if fld.n_terms:
            inputs = basis @ (g - evaluate_field(fld, z))
        z_new = propagate_order(spectral, weights, inputs)
        d = float(np.linalg.norm(z_new - z, axis=0).max())
        if not math.isfinite(d):
            raise NoConvergence(
                f"no fixed point: sweep {it} gave a non-finite correction ({d}); "
                "the iteration diverged",
                last_iterate=z,
            )
        diffs.append(d)
        z = z_new
        if d < tol:
            ratio = diffs[-1] / diffs[-2] if len(diffs) >= 2 and diffs[-2] > 0 else float("nan")
            return PicardResult(
                trajectory=z, iterations=it, contraction_estimate=ratio, tol=tol
            )
        if fld.n_terms == 0:
            return PicardResult(
                trajectory=z, iterations=it, contraction_estimate=0.0, tol=tol
            )
    raise NoConvergence(
        f"no fixed point after {max_iter} sweeps (last correction {diffs[-1]:.3e})",
        last_iterate=z,
    )


def _gauss_rule(n):
    """The n-point Gauss-Legendre nodes and weights on [0, 1] in long
    double: numpy's double-precision nodes polished by Newton steps on
    P_n, whose last moves them far below their rounding."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(4):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1)
        x = x - p / dp
    return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


def _expm(A, tau):
    """exp(A tau) of a 2 x 2 matrix at each tau, shape (len(tau), 2, 2),
    in long double: a degree-20 Taylor sum of A tau / 2^k, each tau's k
    taking the 1-norm to 1/2 or below, then k squarings."""
    X = np.multiply.outer(tau, A.astype(np.longdouble))
    k = np.maximum(np.frexp(2.0 * np.abs(X).sum(axis=1).max(axis=1).astype(float))[1], 0)
    X = np.ldexp(X, -k[:, None, None])
    E = eye = np.eye(2, dtype=np.longdouble)
    for j in range(20, 0, -1):
        E = eye + X @ E / j
    for step in range(int(k.max())):
        E = np.where((k > step)[:, None, None], E @ E, E)
    return E


def _hat_integrals(kernel, dt, edges):
    """The integrals over [0, dt] of kernel(tau) times 1 - s/dt and s/dt,
    s = dt - tau, shape (rows of kernel, 2), by the 20- and the 10-point
    Gauss rule on each piece between consecutive edges, in long double."""
    width = np.diff(edges)[:, None]
    for nodes in (20, 10):
        x, w = _gauss_rule(nodes)
        tau = (edges[:-1, None] + width * x).ravel()
        weight = (width * w).ravel()
        hat = tau / dt
        yield kernel(tau) @ np.stack([weight * hat, weight * (1 - hat)], axis=1)


def quadrature_weight_reference(dt, lam=None, omega=None, zeta=None):
    """Weight pair / matrix by Gauss quadrature of the kernel integral.

    Either lam (complex scalar mode) or omega and zeta (structural
    oscillator) must be given. Returns a complex (2,) array or a real
    (2, 2) array in the layout of qvec_general and qmat_structural.
    The kernel (exp(lam tau), or the oscillator's matrix exponential on
    the state (omega x, x')) is evaluated and summed in long double: the
    weights can be 1e-6 of the integral of its magnitude, where double
    sums keep only 1e-10 of them. Raises QuadratureFailure when the 20-
    and 10-node rules differ by more than 1e-11 x the largest weight.
    """
    _check_dt(dt)
    if (lam is None) == (omega is None):
        raise InvalidParameters("give exactly one of lam or (omega, zeta)")

    if lam is not None:
        lam = complex(lam)

        def kernel(tau):
            return np.exp(np.clongdouble(lam) * tau)[None]

    else:
        if zeta is None:
            raise InvalidParameters("structural reference needs both omega and zeta")
        if omega <= 0 or zeta <= 0:
            raise InvalidParameters("need omega > 0 and zeta > 0")
        balanced = np.array([[0.0, omega], [-omega, -2.0 * zeta * omega]])

        def kernel(tau):
            E = _expm(balanced, tau)
            return np.stack([E[:, 0, 1] / np.longdouble(omega), E[:, 1, 1]])

    # pieces of at most a radian and an e-fold (at most 1024 per decay)
    # where the kernel exceeds e^-46; the slowest and the fastest decay
    # place theirs, so a stiff overdamped root's layer at tau = 0 is too
    roots = [lam] if lam is not None else _oscillator_roots(omega, zeta)
    freq = max(abs(r.imag) for r in roots)
    edges = {0.0, float(dt)}
    for decay in {min(abs(r.real) for r in roots), max(abs(r.real) for r in roots)}:
        span = dt if decay * dt <= 46.0 else 46.0 / decay
        pieces = min(1024, max(1, math.ceil(span * max(freq, decay))))
        edges.update(np.linspace(0.0, span, pieces + 1).tolist())
    edges = np.array(sorted(edges), dtype=np.longdouble)
    val, coarse = _hat_integrals(kernel, dt, edges)
    err = np.abs(val - coarse).max()
    if not err <= 1e-11 * np.abs(val).max():
        raise QuadratureFailure(f"Gauss rules differ by {float(err):.3e}")
    if lam is not None:
        return val[0].astype(complex)
    return val.astype(float)


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegatives."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def faadibruno_phi(system: MechanicalSystem, tensor: CoefficientTensor, nu: int):
    """Order-nu force block g_nu of Phi_nu = (g_nu, 0) by direct
    enumeration, shape (n, T).

    For every monomial gamma of the internal force and every way of
    assigning expansion orders to its factors, accumulates

        gamma! * F_gamma * prod_{j,i} (z^i_{l_j})^{k_ji} / k_ji!

    over the set {(k, l): rows of k nonzero, l strictly increasing,
    column sums k = gamma, order-weighted sum = nu}. No shared-product
    recursion, no caching: this is the reference the fast assembly is
    checked against. Same sign and shape conventions as the fast path,
    assemble_phi without a basis (negated, force block only; order 1 is
    not handled here).

    Guards: state dimension at most 8, nu at most 6, degree at most 4;
    anything larger raises InstanceTooLarge.
    """
    n = system.n
    if 2 * n > 8:
        raise InstanceTooLarge(f"state dimension {2 * n} exceeds the oracle guard (8)")
    if nu > 6:
        raise InstanceTooLarge(f"order {nu} exceeds the oracle guard (6)")
    if system.nonlinearity.max_degree > 4:
        raise InstanceTooLarge(
            f"degree {system.nonlinearity.max_degree} exceeds the oracle guard (4)"
        )
    if nu < 2:
        raise InvalidParameters("direct enumeration covers orders >= 2")
    if tensor.state_dim != 2 * n:
        raise DimensionMismatch("tensor does not match the system")
    if tensor.orders_complete < nu - 1:
        raise GridMismatch(f"needs orders 1..{nu - 1} filled")

    T = tensor.length
    dim = 2 * n
    out = np.zeros((n, T))

    for gamma, coeff in system.nonlinearity.terms:
        degree = sum(gamma)
        gamma_factorial = 1.0
        for gi in gamma:
            gamma_factorial *= math.factorial(gi)
        accum = np.zeros(T)
        for q in range(1, min(nu, degree) + 1):
            for l in itertools.combinations(range(1, nu), q):
                # distribute each gamma_i over the q chosen orders
                per_var = [list(_compositions(gamma[i], q)) for i in range(dim)]
                for choice in itertools.product(*per_var):
                    k = np.array(choice).T  # (q, dim): k[j, i]
                    if np.any(k.sum(axis=1) == 0):
                        continue
                    if int(np.dot(k.sum(axis=1), l)) != nu:
                        continue
                    term = np.ones(T)
                    weight = gamma_factorial
                    for j in range(q):
                        for i in range(dim):
                            kji = int(k[j, i])
                            if kji == 0:
                                continue
                            term = term * tensor.component(i, l[j]) ** kji
                            weight /= math.factorial(kji)
                    accum += weight * term
        out -= np.asarray(coeff)[:, None] * accum[None, :]
    return out
