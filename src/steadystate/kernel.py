"""Exponential-kernel convolution: per-step weights and order propagation.

The order equations are linear with inhomogeneity Phi_nu(t). Each
retained mode is a linear system x' = L x + b u(t) driven by its modal
input u: on the general path a scalar with L = lambda and b = 1, on the
structural (Rayleigh) path a (position, velocity) oscillator with
L = [[0, 1], [-omega^2, -2 zeta omega]] and b = (0, 1). For forcing
that is piecewise linear between grid points the exact one-step
relation is

    x(t+dt) = e^{L dt} x(t) + Q[:, 0] u(t) + Q[:, 1] u(t+dt),

    Q[:, 0] = int_0^dt e^{L (dt-s)} b (1 - s/dt) ds,
    Q[:, 1] = int_0^dt e^{L (dt-s)} b (s/dt) ds.

One routine evaluates these integrals for both kinds: a power series on
a base step short enough for it to converge fast, then interval doubling
up to dt. It works for every eigenvalue and every zeta, including
exactly 1, and never divides by an eigenvalue or an eigenvalue
difference.

Both kinds then take one path: SpectralData.project, one sosfilt per
mode started so that its state is zero at the first sample,
SpectralData.reconstruct, and _enforce_real, the one realness policy of
every modal sum in the package. A general mode is one first-order
section. An oscillator whose roots are a complex pair lambda+-, with zeta
below a cut-over, is one first-order section too: its positive-frequency
mode y, scaled by -i/omega_d so that Re y is the position and Re(mu y),
mu = lambda+/omega, the velocity over omega (the input is real, so the
conjugate mode adds nothing else). A near-critical or overdamped
oscillator, whose two roots come close, is one complex filter of two
sections whose real part is the position and whose imaginary part is
the velocity over omega. The kernel route writes the reconstruction
straight into the caller's grid (propagate_order's out).

Every propagator is a causal filter, so a grid can be propagated in
consecutive time blocks: a Carry hands the filter state at the end of
one block to the next. The filters run sample by sample, so the blocks
reproduce the whole-grid recursion exactly; only the modal matrix
products round differently on blocks of other lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.signal import sosfilt

from .errors import (
    GridMismatch,
    InvalidParameters,
    RealnessCheckFailed,
    SingularEffectiveStiffness,
    ZeroEigenvalue,
)
from .model import MechanicalSystem, NewmarkStep, _check_dt
from .spectral import SpectralData, _oscillator_roots

__all__ = [
    "Carry",
    "KernelWeights",
    "qvec_general",
    "qmat_structural",
    "build_kernel_weights",
    "propagate_order",
    "propagate_order_newmark",
]

_SERIES_SWITCH = 0.25
_CRITICAL_TAG = 1e-9  # reported branch tag
# oscillators with zeta below this run as one first-order section; closer
# to zeta = 1 the 1/omega_d scaling of that form loses digits, so the
# two-section filter takes over
_ONE_SECTION_ZETA = 0.99
_REALNESS_TOL = 1e-10


def _series_doubling(L: np.ndarray, b: np.ndarray, fast: float, dt: float) -> np.ndarray:
    """The (dim, 2) weights [Q0, Q1] of x' = L x + b u over one step dt.

    fast bounds the magnitude of L's eigenvalues. The base step
    h = dt / 2^halvings keeps fast * h <= 0.25, so the series converges
    fast. The doubling identity for piecewise-linear forcing over a
    doubled step (midpoint value is the endpoint average) is
        Q0(2h) = E Q0 + (E Q1 + Q0)/2,   Q1(2h) = Q1 + (E Q1 + Q0)/2.
    """
    halvings = 0
    h = dt
    while fast * h > _SERIES_SWITCH:
        h *= 0.5
        halvings += 1
    u = b * h  # L^k b h^{k+1} / k!
    q0 = u / 2.0
    q1 = u / 2.0
    for k in range(1, 64):
        u = (L @ u) * (h / k)
        q0 = q0 + u / (k + 2)
        q1 = q1 + u / ((k + 1) * (k + 2))
        if np.abs(u).max() < 1e-22 * max(np.abs(q0).max(), 1e-300):
            break
    E = scipy.linalg.expm(L * h)
    for _ in range(halvings):
        mid = 0.5 * (E @ q1 + q0)
        q0 = E @ q0 + mid
        q1 = q1 + mid
        E = E @ E
    return np.column_stack([q0, q1])


def qvec_general(lam: complex, dt: float) -> np.ndarray:
    """Piecewise-linear forcing weights for one complex eigenvalue.

    Returns the complex pair (weight on Phi(t), weight on Phi(t+dt))
    defined by the kernel integrals in the module docstring, by the same
    series-plus-doubling evaluation as the structural weights. Verified
    against Gauss quadrature to better than 1e-12 relative across
    |lambda dt| in [1e-6, 1e4].

    Raises ZeroEigenvalue when Re(lambda) == 0.
    """
    lam = complex(lam)
    _check_dt(dt)
    if lam.real == 0.0:
        raise ZeroEigenvalue("weights require Re(lambda) != 0")
    return _series_doubling(np.array([[lam]]), np.array([1.0]), abs(lam), dt)[0]


def _block_matrix(omega: float, zeta: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [-omega * omega, -2.0 * zeta * omega]])


def qmat_structural(omega: float, zeta: float, dt: float):
    """2x2 piecewise-linear weights for one damped modal oscillator.

    Rows are the (position, velocity) increments of (y, y'), columns the
    weights on the modal force at the step start and end. Returns
    (Q, branch) with branch in {'underdamped', 'critical', 'overdamped'};
    the tag is critical for |zeta - 1| <= 1e-9 and only reports the
    regime: every zeta is computed the same way, by the series-plus-
    doubling evaluation of the kernel integrals, which is continuous
    through zeta = 1 without substituting zeta = 1.

    Raises InvalidParameters for omega <= 0 or zeta <= 0.
    """
    branch = _regime(omega, zeta)
    _check_dt(dt)
    fast = max(abs(r) for r in _oscillator_roots(omega, zeta))
    Q = _series_doubling(_block_matrix(omega, zeta), np.array([0.0, 1.0]), fast, dt)
    return Q, branch


def _regime(omega: float, zeta: float) -> str:
    """The branch tag of qmat_structural, after its parameter check."""
    if omega <= 0.0 or zeta <= 0.0:
        raise InvalidParameters(f"need omega > 0 and zeta > 0, got ({omega}, {zeta})")
    if abs(zeta - 1.0) <= _CRITICAL_TAG:
        return "critical"
    return "underdamped" if zeta < 1.0 else "overdamped"


@dataclass(frozen=True)
class KernelWeights:
    """Per retained mode: the filter that propagates it.

    sos[j] is mode j's (sections, 6) complex sosfilt filter, built once
    so that every time block reuses it: one first-order section for a
    general mode and for an oscillator with zeta below the cut-over (see
    _exponent_filter), two sections for any other oscillator (see
    _oscillator_filter). start[j] holds the two taps of its first
    section that a fresh start cancels. On the structural path Re y of
    the filter output y is the position and Re(mu[j] y) the velocity
    over omega: mu = lambda+/omega for one section, -1j for two (whose
    Im y is taken as it is). branches[j] tags an oscillator's regime;
    mu and branches are None on the general path.
    """

    kind: str
    retained: tuple
    sos: tuple  # per mode, (1, 6) or (2, 6) complex
    start: np.ndarray  # (m, 2) complex
    mu: np.ndarray | None = None  # (m,) complex
    branches: tuple | None = None


def build_kernel_weights(spectral: SpectralData, dt: float) -> KernelWeights:
    """Weights for every retained mode of a decomposition."""
    _check_dt(dt)
    retained = tuple(spectral.retained)
    cols = list(retained)
    mu = branches = None
    if spectral.kind == "general":
        lams = spectral.eigenvalues[cols]
        filters = [
            _exponent_filter(qvec_general(lam, dt), pole)
            for lam, pole in zip(lams, np.exp(lams * dt))
        ]
    else:
        branches, filters, mu = [], [], []
        for w, z in zip(spectral.omega[cols], spectral.zeta[cols]):
            branches.append(_regime(w, z))
            roots = _oscillator_roots(w, z)
            if z < _ONE_SECTION_ZETA:
                lam = roots[0]  # -zeta omega + i omega_d
                q = qvec_general(lam, dt) * (-1j / lam.imag)
                filters.append(_exponent_filter(q, np.exp(lam * dt)))
                mu.append(lam / w)
            else:
                Q, _ = qmat_structural(w, z, dt)
                E = scipy.linalg.expm(_block_matrix(w, z) * dt)
                filters.append(_oscillator_filter(E, Q, np.exp(np.array(roots) * dt), w))
                mu.append(-1j)
        branches, mu = tuple(branches), np.array(mu, dtype=complex)
    sos, start = zip(*filters)
    return KernelWeights(
        kind=spectral.kind, retained=retained, sos=sos, start=np.array(start), mu=mu,
        branches=branches,
    )


@dataclass
class Carry:
    """One order's propagation state from one time block to the next.

    A fresh Carry starts the grid: the recursion runs from the zero state
    at its first sample. Handing the same Carry to propagate_order (or
    propagate_order_newmark) with each following block of the same order
    continues the recursion where the previous block ended; the call
    updates it in place. state is None until the first block has run,
    then what the propagator needs: the list of the retained modes'
    (sections, 2) sosfilt states, or for Newmark the last (x, v, a).
    """

    state: object = None


def _exponent_filter(q: np.ndarray, pole: complex):
    """The one-section filter that runs w[k] = pole w[k-1] + q[0] u[k-1]
    + q[1] u[k] for one general mode, pole = e^{lambda dt}.

    Unstarted, it gives w[0] = q[1] u[0], which the fresh state
    -start u[0], start = (q[1], 0), cancels. An underdamped oscillator
    runs it on its root lambda+ with q scaled by -i/omega_d (see
    build_kernel_weights).
    """
    sos = np.array([[q[1], q[0], 0.0, 1.0, -pole, 0.0]])
    return sos, np.array([q[1], 0.0])


def _oscillator_filter(E: np.ndarray, Q: np.ndarray, poles, omega: float):
    """The filter that runs x[k] = E x[k-1] + Q0 u[k-1] + Q1 u[k] as
    y = x[0] + 1j x[1] / omega.

    With w the one-step delay, (I - w E)^{-1} = (I - w adj E) / D(w) and
    D(w) = (1 - p+ w)(1 - p- w), where poles = (p+, p-) are the
    eigenvalues of E. Each row of x is a real 3-tap numerator over D(w),
    (I - w adj E)(Q1 + w Q0); D(w) and the taps are real, so one complex
    numerator carries both rows, and the 1/omega keeps the velocity's
    rounding out of the position. sos is that numerator over the two
    complex first-order sections, so nothing divides by p+ - p-.

    Unstarted, the filter gives x[0] = Q1 u[0] and its homogeneous tail
    E^k Q1 u[0] = (I - w adj E) Q1 / D(w) applied to u[0]; start holds
    the two taps of (I - w adj E) Q1 in the same packing, which the first
    block's initial state subtracts.
    """
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    q0, q1 = Q[:, 0], Q[:, 1]
    pack = np.array([1.0, 1.0j / omega])
    sos = np.zeros((2, 6), dtype=complex)
    sos[0, :3] = pack @ np.column_stack([q1, q0 - adj @ q1, -(adj @ q0)])
    sos[1, 0] = 1.0
    sos[:, 3] = 1.0
    sos[:, 4] = -np.asarray(poles)
    return sos, pack @ np.column_stack([q1, -(adj @ q1)])


def _modal_response(
    spectral: SpectralData,
    weights: KernelWeights,
    phi: np.ndarray,
    carry: Carry,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """project, filter each retained mode, reconstruct: complex on the
    general path, real on the structural one, whose filter outputs go
    straight into the real (2, m, B) stack of positions and velocities
    over omega that reconstruct takes (into out, if given, on that path).

    A fresh carry starts each filter's first section from -start u[0],
    which makes the mode's state zero at the first sample.
    """
    modal_u = spectral.project(phi)  # (m, B)
    if carry.state is None:
        carry.state = [np.zeros((len(sos), 2), dtype=complex) for sos in weights.sos]
        for zi, start, u0 in zip(carry.state, weights.start, modal_u[:, 0]):
            zi[0] = -start * u0
    structural = spectral.kind == "structural"
    X = np.empty((2,) + modal_u.shape) if structural else np.empty(modal_u.shape, complex)
    for j, (sos, zi) in enumerate(zip(weights.sos, carry.state)):
        y, carry.state[j] = sosfilt(sos, modal_u[j], zi=zi)
        if not structural:
            X[j] = y
        elif len(sos) == 2:
            X[0, j], X[1, j] = y.real, y.imag
        else:
            # Re(mu y), elementwise: a matrix product would round it
            # differently on blocks of other lengths
            mu = weights.mu[j]
            X[0, j] = y.real
            np.multiply(y.imag, -mu.imag, out=X[1, j])
            X[1, j] += mu.real * X[0, j]
    return spectral.reconstruct(X, out=out)


def _enforce_real(Z: np.ndarray, context: str) -> np.ndarray:
    """The one realness policy of every modal sum: a real Z is returned
    unchanged, a complex one as its real part unless its largest imaginary
    part exceeds 1e-10 x its largest magnitude (RealnessCheckFailed).

    The largest magnitude is at least the largest real part, so a residue
    within 1e-10 x the latter passes without the magnitude pass."""
    if not np.iscomplexobj(Z):
        return Z
    resid = np.abs(Z.imag).max(initial=0.0)
    if resid > _REALNESS_TOL * np.abs(Z.real).max(initial=0.0):
        scale = np.abs(Z).max()
        if scale > 0.0 and resid > _REALNESS_TOL * scale:
            raise RealnessCheckFailed(
                f"{context}: imaginary residue {resid:.3e} exceeds "
                f"{_REALNESS_TOL:g} x scale {scale:.3e}"
            )
    return np.ascontiguousarray(Z.real)


def propagate_order(
    spectral: SpectralData,
    weights: KernelWeights,
    phi: np.ndarray,
    carry: Carry | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate one order's inhomogeneity grid to its coefficient grid.

    Parameters
    ----------
    spectral : SpectralData
        Decomposition whose retained set matches the weights.
    weights : KernelWeights
        Output of build_kernel_weights at the grid step.
    phi : (state_dim, B) array
        Inhomogeneity sampled on the forcing grid, or on one time block
        of it (for mechanical systems the lower block is identically zero
        and, on the structural path, only the top block is consumed).
    carry : Carry, optional
        The order's state between time blocks (see Carry). None, or a
        fresh Carry, makes phi the start of the grid (at least 2 samples);
        the blocks' results equal the whole grid's up to the rounding of
        the modal matrix products.
    out : (state_dim, B) real array, optional
        Where to write the result, for instance a block of a coefficient
        tensor's slot; the structural path reconstructs into it with no
        temporary, with the same bits as a call without out.

    Returns
    -------
    (state_dim, B) real array (out, if given): _modal_response, one path
    for both kinds, through _enforce_real, the one realness policy.
    """
    phi = np.asarray(phi)
    carry = Carry() if carry is None else carry
    if phi.ndim != 2 or phi.shape[0] != spectral.state_dim:
        raise GridMismatch(
            f"phi has shape {phi.shape}, expected ({spectral.state_dim}, T)"
        )
    if phi.shape[1] < (2 if carry.state is None else 1):
        raise GridMismatch("grid needs at least 2 samples")
    if weights.kind != spectral.kind or tuple(weights.retained) != tuple(spectral.retained):
        raise GridMismatch("weights were built for a different retained set")
    if out is not None and out.shape != phi.shape:
        raise GridMismatch(f"out has shape {out.shape}, expected {phi.shape}")
    Z = _enforce_real(_modal_response(spectral, weights, phi, carry, out), "modal assembly")
    if out is None or Z is out:
        return Z
    out[...] = Z
    return out


def propagate_order_newmark(
    system: MechanicalSystem, phi: np.ndarray, dt: float, carry: Carry | None = None
) -> np.ndarray:
    """Average-acceleration Newmark solution of M x'' + C x' + K x = phi.

    phi is the n-row top block of the order inhomogeneity (a (2n, B)
    grid with a zero lower block is also accepted). Zero initial
    conditions at the first block; carry, as in propagate_order, hands
    the last (x, v, a) to the next block. Output contract matches
    propagate_order. Raises SingularEffectiveStiffness if the effective
    matrix cannot be factorized.
    """
    phi = np.asarray(phi, dtype=float)
    carry = Carry() if carry is None else carry
    n = system.n
    if phi.ndim != 2:
        raise GridMismatch(f"phi must be 2-d, got shape {phi.shape}")
    if phi.shape[0] == 2 * n:
        if np.any(phi[n:] != 0.0):
            raise GridMismatch("lower block of phi must be zero for a mechanical system")
        phi = phi[:n]
    elif phi.shape[0] != n:
        raise GridMismatch(f"phi has {phi.shape[0]} rows, expected {n} or {2 * n}")
    _check_dt(dt)
    T = phi.shape[1]

    nm = NewmarkStep(dt)
    c0, c1, c2, c3, c4, c5 = nm.c0, nm.c1, nm.c2, nm.c3, nm.c4, nm.c5
    S = system.K + c1 * system.C + c0 * system.M
    try:
        lu = scipy.linalg.lu_factor(S)
    except scipy.linalg.LinAlgError as exc:
        raise SingularEffectiveStiffness(str(exc)) from None
    if not np.all(np.isfinite(lu[0])) or np.any(np.abs(np.diag(lu[0])) == 0.0):
        raise SingularEffectiveStiffness("effective stiffness factorization is singular")

    M, C = system.M, system.C
    out = np.zeros((2 * n, T))
    if carry.state is None:
        x = np.zeros(n)
        v = np.zeros(n)
        a = np.linalg.solve(M, phi[:, 0])
        first = 1  # out[:, 0] is the zero initial state
    else:
        x, v, a = carry.state
        first = 0
    for k in range(first, T):
        rhs = phi[:, k] + M @ (c0 * x + c2 * v + c3 * a) + C @ (c1 * x + c4 * v + c5 * a)
        x_new = scipy.linalg.lu_solve(lu, rhs)
        v, a = nm.advance(x, v, a, x_new)
        x = x_new
        out[:n, k] = x
        out[n:, k] = v
    carry.state = (x, v, a)
    return out
