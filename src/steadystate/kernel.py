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

One routine evaluates these integrals for both kinds, together with
e^{L dt}: they are blocks of the exponential of one block matrix, which
scipy.linalg.expm computes by scaling and squaring. It works for every
eigenvalue and every zeta, including exactly 1, and never divides by an
eigenvalue or an eigenvalue difference.

Both kinds then take one path: SpectralData.project, one sosfilt per
unit started so that its state is zero at the first sample,
SpectralData.reconstruct, and _enforce_real, the one realness policy of
every modal sum in the package. A general mode is one first-order
section. When the input is real and every retained mode has its exact
conjugate beside it (SpectralData._folded), a conjugate pair runs as one
unit, the section of its positive-imaginary member, whose response the
real sum 2 Re(V+ y) adds, and a real eigenvalue as its own unit;
otherwise (a split pair, the complex input of reduced coordinates) every
member runs and the complex modal sum goes through _enforce_real. An
oscillator whose roots are a complex pair lambda+-, with zeta below a
cut-over, is one first-order section too: its positive-frequency mode
y, scaled by -i/omega_d so that Re y is the position and Re(mu y), mu =
lambda+/omega, the velocity over omega (the input is real, so the
conjugate mode adds nothing else). A near-critical or overdamped
oscillator, whose two roots come close, is one complex filter of two
sections whose real part is the position and whose imaginary part is
the velocity over omega. Both real sums, the folded general one and the
structural one, are written straight into the caller's grid
(propagate_order's out).

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

from .errors import GridMismatch, InvalidParameters, RealnessCheckFailed, ZeroEigenvalue
from .model import _check_dt
from .spectral import SpectralData, _oscillator_roots

__all__ = [
    "Carry",
    "KernelWeights",
    "qvec_general",
    "qmat_structural",
    "build_kernel_weights",
    "propagate_order",
]

_CRITICAL_TAG = 1e-9  # reported branch tag
# oscillators with zeta below this run as one first-order section; closer
# to zeta = 1 the 1/omega_d scaling of that form loses digits, so the
# two-section filter takes over
_ONE_SECTION_ZETA = 0.99
_REALNESS_TOL = 1e-10


def _step_weights(L: np.ndarray, b: np.ndarray, dt: float):
    """The (dim, 2) weights Q = [Q0, Q1] of x' = L x + b u over one step
    dt, and the step propagator E = e^{L dt}, from one exponential.

    F = expm([[L dt, b dt, 0], [0, 0, 1], [0, 0, 0]]) is E in its leading
    block; its next two columns are the responses from x = 0 to a unit
    input and to the unit ramp s/dt, Q0 + Q1 and Q1 (Van Loan 1978).
    """
    d = len(b)
    A = np.zeros((d + 2, d + 2), dtype=np.result_type(L, float))
    A[:d, :d] = L * dt
    A[:d, d] = b * dt
    A[d, d + 1] = 1.0
    F = scipy.linalg.expm(A)
    return np.column_stack([F[:d, d] - F[:d, d + 1], F[:d, d + 1]]), F[:d, :d]


def qvec_general(lam: complex, dt: float) -> np.ndarray:
    """Piecewise-linear forcing weights for one complex eigenvalue.

    Returns the complex pair (weight on Phi(t), weight on Phi(t+dt))
    defined by the kernel integrals in the module docstring, by the same
    block exponential as the structural weights. Verified against Gauss
    quadrature to better than 1e-12 relative across |lambda dt| in
    [1e-6, 1e4].

    Raises ZeroEigenvalue when Re(lambda) == 0.
    """
    lam = complex(lam)
    _check_dt(dt)
    if lam.real == 0.0:
        raise ZeroEigenvalue("weights require Re(lambda) != 0")
    return _step_weights(np.array([[lam]]), np.array([1.0]), dt)[0][0]


_VELOCITY = np.array([0.0, 1.0])  # an oscillator's input vector b


def _block_matrix(omega: float, zeta: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [-omega * omega, -2.0 * zeta * omega]])


def qmat_structural(omega: float, zeta: float, dt: float):
    """2x2 piecewise-linear weights for one damped modal oscillator.

    Rows are the (position, velocity) increments of (y, y'), columns the
    weights on the modal force at the step start and end. Returns
    (Q, branch) with branch in {'underdamped', 'critical', 'overdamped'};
    the tag is critical for |zeta - 1| <= 1e-9 and only reports the
    regime: every zeta is computed the same way, by the block
    exponential of the kernel integrals, which is continuous through
    zeta = 1 without substituting zeta = 1.

    Raises InvalidParameters for omega <= 0 or zeta <= 0.
    """
    branch = _regime(omega, zeta)
    _check_dt(dt)
    return _step_weights(_block_matrix(omega, zeta), _VELOCITY, dt)[0], branch


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
    mu and branches are None on the general path. units, on the general
    path, holds the positions of the folded units' first members (see
    SpectralData._folded) when every pair's filters are exact conjugates
    too and a real eigenvalue's filter is real; a real input then runs
    only those filters. It is None when the retained set does not fold.
    """

    kind: str
    retained: tuple
    sos: tuple  # per mode, (1, 6) or (2, 6) complex
    start: np.ndarray  # (m, 2) complex
    mu: np.ndarray | None = None  # (m,) complex
    branches: tuple | None = None
    units: tuple | None = None


def build_kernel_weights(spectral: SpectralData, dt: float) -> KernelWeights:
    """Weights for every retained mode of a decomposition."""
    _check_dt(dt)
    retained = tuple(spectral.retained)
    cols = list(retained)
    mu = branches = units = None
    if spectral.kind == "general":
        lams = spectral.eigenvalues[cols]
        filters = [
            _exponent_filter(qvec_general(lam, dt), pole)
            for lam, pole in zip(lams, np.exp(lams * dt))
        ]
        folded = spectral._folded
        # a pair's second member sits next to its first; a real
        # eigenvalue is its own conjugate
        if folded is not None and all(
            np.array_equal(filters[p + (lams[p].imag > 0.0)][0], np.conj(filters[p][0]))
            for p in folded[0]
        ):
            units = folded[0]
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
                Q, E = _step_weights(_block_matrix(w, z), _VELOCITY, dt)
                filters.append(_oscillator_filter(E, Q, np.exp(np.array(roots) * dt), w))
                mu.append(-1j)
        branches, mu = tuple(branches), np.array(mu, dtype=complex)
    sos, start = zip(*filters)
    return KernelWeights(
        kind=spectral.kind, retained=retained, sos=sos, start=np.array(start), mu=mu,
        branches=branches, units=units,
    )


@dataclass
class Carry:
    """One order's propagation state from one time block to the next.

    A fresh Carry starts the grid: the recursion runs from the zero state
    at its first sample. Handing the same Carry to propagate_order with
    each following block of the same order continues the recursion where
    the previous block ended; the call updates it in place. state is None
    until the first block has run, then the list of the propagated units'
    (sections, 2) sosfilt states (one per folded unit, see KernelWeights,
    else one per retained mode).
    """

    state: list | None = None


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
    """project, filter each unit, reconstruct. The structural path and,
    for a real phi, the folded general path (weights.units) are real:
    their filter outputs go straight into the real (2, m, B) stack that
    reconstruct takes, positions and velocities over omega or [Re y; Im
    y] of the units' first members, and reconstruct writes into out,
    if given. Otherwise every retained general mode runs and the modal
    sum is complex.

    A fresh carry starts each filter's first section from -start u[0],
    which makes the unit's state zero at the first sample.
    """
    folded = weights.units is not None and not np.iscomplexobj(phi)
    members = weights.units if folded else range(len(weights.sos))
    modal_u = spectral.project(phi, folded)  # (units, B)
    if carry.state is None:
        carry.state = [np.zeros((len(weights.sos[j]), 2), dtype=complex) for j in members]
        for zi, j, u0 in zip(carry.state, members, modal_u[:, 0]):
            zi[0] = -weights.start[j] * u0
    elif len(carry.state) != len(members):
        raise GridMismatch("carry was started on a phi of the other dtype")
    stacked = folded or spectral.kind == "structural"
    X = np.empty((2,) + modal_u.shape) if stacked else np.empty(modal_u.shape, complex)
    for k, j in enumerate(members):
        sos = weights.sos[j]
        y, carry.state[k] = sosfilt(sos, modal_u[k], zi=carry.state[k])
        if not stacked:
            X[k] = y
        elif weights.mu is None or len(sos) == 2:
            X[0, k], X[1, k] = y.real, y.imag
        else:
            # Re(mu y), elementwise: a matrix product would round it
            # differently on blocks of other lengths
            mu = weights.mu[j]
            X[0, k] = y.real
            np.multiply(y.imag, -mu.imag, out=X[1, k])
            X[1, k] += mu.real * X[0, k]
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
        The response of a real system to a real phi is real, so phi
        takes the realness policy on entry: a complex phi runs as its
        real part, or raises RealnessCheckFailed if its imaginary part
        is not negligible.
    carry : Carry, optional
        The order's state between time blocks (see Carry). None, or a
        fresh Carry, makes phi the start of the grid (at least 2 samples);
        the blocks' results equal the whole grid's up to the rounding of
        the modal matrix products.
    out : (state_dim, B) real array, optional
        Where to write the result, for instance a block of a coefficient
        tensor's slot. The structural path and the folded general path
        (a real phi, every retained pair exact conjugates: see
        KernelWeights.units) reconstruct into it with no temporary, with
        the same bits as a call without out; the complex route copies
        its real part in.

    Returns
    -------
    (state_dim, B) real array (out, if given): _modal_response, one path
    for both kinds, through _enforce_real, the one realness policy (a
    real sum passes as it is).

    Raises GridMismatch if phi, out, the weights or the carry do not fit
    the grid, and RealnessCheckFailed if phi or the modal sum keeps an
    imaginary part above 1e-10 x its scale.
    """
    phi = _enforce_real(np.asarray(phi), "phi")
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
