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

Both kinds then take one path from the units' modal inputs, the one
format in which an inhomogeneity reaches the kernel: one filter per
unit started so that its state is zero at the first sample,
SpectralData.reconstruct, and _enforce_real, the one realness policy of
every modal sum in the package. The inputs are P g_nu, the image of the
order's force block under P = SpectralData.force_rows: the cascades
map order 1's forcing block by P, compose each order from 2 on straight
into them (composition.assemble_phi with P as its basis) and hand them
to propagate_order, and the Picard oracle applies P to each time block
of its force block. A filter is three numerator taps over
one or two poles: the taps give v[k] = b0 u[k] + b1 u[k-1] + b2 u[k-2]
of the unit's input u, and each pole p in turn a first-order section
y[k] = p y[k-1] + v[k], the first on v and a second on the first's
output. NumPy applies the taps, and each section is a unit
lower-bidiagonal solve, BLAS ztbsv on a band with -p below its diagonal
(Dongarra, Du Croz, Hammarling & Hanson, ACM TOMS 14, 1988). A general
mode is one pole. When the input is real and every retained mode
has its exact conjugate beside it (SpectralData._folded, the one record
of that decision, which force_rows and reconstruct read too), a conjugate
pair runs as one unit, the filter of its positive-imaginary member,
whose response the real sum 2 Re(V+ y) adds, and a real eigenvalue as
its own unit; otherwise (a split pair, the complex input of reduced
coordinates) every member runs and the complex modal sum goes through
_enforce_real. An oscillator whose roots are a complex pair lambda+-,
with zeta below a cut-over, is one pole too: its positive-frequency
mode y, scaled by -i/omega_d so that Re y is the position and Re(mu y),
mu = lambda+/omega, the velocity over omega (the input is real, so the
conjugate mode adds nothing else). A
near-critical or overdamped oscillator, whose two roots come close, is
one complex filter of two poles whose real part is the position and
whose imaginary part is the velocity over omega. Both real sums, the
folded general one and the structural one, are written straight into
the caller's grid (propagate_order's out).

Every propagator is a causal filter, so a grid can be propagated in
consecutive time blocks: a Carry hands the last two inputs and each
pole's last output at the end of one block to the next.
propagate_order filters the grid it is given in one pass, so its
temporaries are as long as that grid; the callers with long records
(the cascades and the Picard oracle) hand it one time block of
gss._BLOCK samples at a time with a Carry. A ztbsv call solves at most
_SOLVE rows. Each solve starts from the output before its rows as its
row 0, so every row takes the same BLAS step as in one pass, and the
blocks reproduce the whole-grid recursion exactly; only the modal
matrix products round differently on blocks of other lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ztbsv

from .errors import GridMismatch, InvalidParameters, RealnessCheckFailed, ZeroEigenvalue
from .model import _check_dt
from .spectral import SpectralData

__all__ = [
    "Carry",
    "KernelWeights",
    "qvec_general",
    "qmat_structural",
    "build_kernel_weights",
    "propagate_order",
]

_CRITICAL_TAG = 1e-9  # reported branch tag
# oscillators with zeta below this run on one pole; closer to zeta = 1
# the 1/omega_d scaling of that form loses digits, so the two-pole
# filter takes over
_ONE_SECTION_ZETA = 0.99
_REALNESS_TOL = 1e-10
# rows per ztbsv call: the length of the band each _modal_response call
# fills per pole with its -p. A band as long as a block (256 KiB) made
# glibc malloc trim and refault heap pages every solve, and its fill cost
# more than the calls it saved; a 2,048-row band (64 KiB) costs a few calls
_SOLVE = 2048


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

    Mode j's filter is its numerator taps[j] = (b0, b1, b2) over
    poles[j], built once so that every time block reuses it: one pole
    for a general mode and for an oscillator with zeta below the
    cut-over (see _exponent_filter), two for any other oscillator (see
    _oscillator_filter). start[j] holds the two taps that a fresh start
    cancels. On the structural path Re y of the filter output y is the
    position and Re(mu[j] y) the velocity over omega: mu = lambda+/omega
    for one pole, -1j for two (whose Im y is taken as it is).
    branches[j] tags an oscillator's regime; mu and branches are None
    on the general path. A conjugate pair's members get filters that
    are exact conjugates, and a real eigenvalue a real one (np.exp and
    the block exponential are conjugate-equivariant), so whether a real
    input runs only the folded units' first members is decided by
    SpectralData._folded alone.
    """

    kind: str
    retained: tuple
    taps: np.ndarray  # (m, 3) complex
    poles: tuple  # per mode, (p,) or (p+, p-)
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
        # Python complex roots: lam / w divides, where NumPy multiplies by 1 / w
        for w, z, roots in zip(spectral.omega[cols], spectral.zeta[cols],
                               spectral._roots[cols].tolist()):
            branches.append(_regime(w, z))
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
    taps, poles, start = zip(*filters)
    return KernelWeights(
        kind=spectral.kind, retained=retained, taps=np.array(taps), poles=poles,
        start=np.array(start), mu=mu, branches=branches,
    )


@dataclass
class Carry:
    """One order's propagation state from one time block to the next.

    A fresh Carry starts the grid: the recursion runs from the zero state
    at its first sample. Handing the same Carry to propagate_order with
    each following block of the same order continues the recursion where
    the previous block ended; the call updates it in place. state and
    weights are None until the first block has run. Then weights is the
    KernelWeights that block ran under, and a block under any other
    weights raises GridMismatch. state is the list of the propagated
    units' complex states, one per folded unit (see
    SpectralData._folded) or else per retained mode: the unit's last two
    inputs u[-2] and u[-1], then each pole's last output.
    """

    state: list | None = None
    weights: KernelWeights | None = None


def _exponent_filter(q: np.ndarray, pole: complex):
    """(taps, poles, start) of the filter that runs w[k] = pole w[k-1]
    + q[0] u[k-1] + q[1] u[k] for one general mode, pole = e^{lambda dt}:
    the taps (q[1], q[0], 0) over the one pole.

    Unstarted, it gives w[0] = q[1] u[0], which a fresh start cancels:
    it subtracts start u[0], start = (q[1], 0), from the taps at the
    first two samples. An underdamped oscillator runs it on its root
    lambda+ with q scaled by -i/omega_d (see build_kernel_weights).
    """
    return np.array([q[1], q[0], 0.0]), (pole,), np.array([q[1], 0.0])


def _oscillator_filter(E: np.ndarray, Q: np.ndarray, poles, omega: float):
    """(taps, poles, start) of the filter that runs x[k] = E x[k-1]
    + Q0 u[k-1] + Q1 u[k] as y = x[0] + 1j x[1] / omega.

    With w the one-step delay, (I - w E)^{-1} = (I - w adj E) / D(w) and
    D(w) = (1 - p+ w)(1 - p- w), where poles = (p+, p-) are the
    eigenvalues of E. Each row of x is a real 3-tap numerator over D(w),
    (I - w adj E)(Q1 + w Q0); D(w) and the taps are real, so one complex
    numerator carries both rows, and the 1/omega keeps the velocity's
    rounding out of the position. The filter is that numerator over
    the pole p+, then a second section on p- alone, so nothing divides
    by p+ - p-.

    Unstarted, the filter gives x[0] = Q1 u[0] and its homogeneous tail
    E^k Q1 u[0] = (I - w adj E) Q1 / D(w) applied to u[0]; start holds
    the two taps of (I - w adj E) Q1, packed as the numerator is, which
    a fresh start subtracts, times u[0], from the taps at the first two
    samples.
    """
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    q0, q1 = Q[:, 0], Q[:, 1]
    pack = np.array([1.0, 1.0j / omega])
    taps = pack @ np.column_stack([q1, q0 - adj @ q1, -(adj @ q0)])
    return taps, tuple(poles), pack @ np.column_stack([q1, -(adj @ q1)])


def _modal_response(
    spectral: SpectralData,
    weights: KernelWeights,
    u: np.ndarray,
    carry: Carry,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Filter each unit on its modal inputs u, then reconstruct: the one
    core of propagate_order and of reduced_gss. u holds the rows
    SpectralData.force_rows maps a force block to: (m, B) real on the
    structural path; on the general path, real, the folded stack [Re
    u+; Im u+] of 2 x units rows when the retained set folds
    (SpectralData._folded), or complex, the inputs of every retained
    mode.
    The structural path and the folded one are real: their filter
    outputs go straight into the real (2, m, B) stack that reconstruct
    takes, positions and velocities over omega or [Re y; Im y] of the
    units' first members, and reconstruct writes into out, if given.
    Otherwise every retained general mode runs and the modal sum is
    complex.

    Each unit's inputs go into one buffer v behind its two carried
    ones (a folded unit's as the real and imaginary parts of v), so the
    taps take one product per tap of a shifted view of v, the carried
    inputs and the block's alike, which rounds the same at every
    length. The taps' sum goes into rows 1.. of a buffer x whose row 0
    holds a pole's carried output; each pole in turn fills the call's
    one band with its -p and solves x in place, _SOLVE rows per ztbsv,
    each solve's row 0 the output before its rows. So every row takes
    the same BLAS step wherever a block or a solve starts. A fresh
    carry subtracts u[0] start from the taps at the first two samples,
    which makes the unit's state zero at the first sample. Raises
    GridMismatch if u does not have the rows of its route, or if the
    carry was started under other weights or on inputs of the other
    route.
    """
    general = spectral.kind == "general"
    folded = general and not np.iscomplexobj(u) and spectral._folded is not None
    members = spectral._folded[0] if folded else range(len(weights.poles))
    m = len(members)
    if u.ndim != 2 or u.shape[0] != (2 * m if folded else m):
        raise GridMismatch(
            f"modal inputs have shape {u.shape}, expected ({2 * m if folded else m}, B)"
        )
    fresh = carry.state is None
    if fresh:
        carry.weights = weights
        carry.state = [np.zeros(2 + len(weights.poles[j]), dtype=complex) for j in members]
    elif carry.weights is not weights:
        raise GridMismatch("carry was started under other weights")
    elif len(carry.state) != m:
        raise GridMismatch("carry was started on inputs of the other route")
    stacked = folded or not general
    B = u.shape[1]
    X = np.empty((2, m, B)) if stacked else np.empty((m, B), complex)
    v = np.empty(B + 2, dtype=complex)  # the two carried inputs, then the block's
    x = np.empty(B + 1, dtype=complex)  # a pole's carried output, then its rows
    tap = np.empty(B, dtype=complex)  # the inputs lag samples back, times a tap
    # y[k] - p y[k-1] as a unit lower-bidiagonal band, Fortran-ordered so
    # that band[:, :n] is too, -p in row 1; row 0, the diagonal, is unread
    # at diag=1, so one contiguous fill of both rows sets it (a strided
    # fill of row 1 alone takes about 4x as long)
    band = np.empty((2, _SOLVE + 1), dtype=complex, order="F")
    y = x[1:]
    for k, j in enumerate(members):
        b, state = weights.taps[j], carry.state[k]
        v[:2] = state[:2]
        if folded:
            v.real[2:], v.imag[2:] = u[k], u[m + k]
        else:
            v[2:] = u[k]
        np.multiply(v[2:], b[0], out=y)
        for lag in (1, 2):
            if b[lag] != 0.0:
                y += np.multiply(v[2 - lag : B + 2 - lag], b[lag], out=tap)
        if fresh:
            y[:2] -= v[2] * weights.start[j]
        state[:2] = v[B:]
        for i, pole in enumerate(weights.poles[j], start=2):
            band.fill(-pole)
            x[0] = state[i]
            for r in range(0, B, _SOLVE):
                n = min(_SOLVE, B - r)
                # rows r .. r + n of x, row r the output before them; the
                # arguments after x: incx, offx, lower, trans, diag, overwrite_x
                ztbsv(1, band[:, : n + 1], x, 1, r, 1, 0, 1, 1)
            state[i] = x[B]
        if not stacked:
            X[k] = y
        elif weights.mu is None or len(weights.poles[j]) == 2:
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
    unchanged, a complex one as its real part unless its largest
    imaginary part exceeds 1e-10 x its largest magnitude, which raises
    RealnessCheckFailed. So does an imaginary part that is not finite
    (NaN or inf), which no comparison with the scale would catch.

    The largest magnitude is at least the largest real part, so a residue
    within 1e-10 x the latter passes without the magnitude pass."""
    if not np.iscomplexobj(Z):
        return Z
    resid = np.abs(Z.imag).max(initial=0.0)
    if not np.isfinite(resid):
        raise RealnessCheckFailed(f"{context}: imaginary residue {resid} is not finite")
    if resid > _REALNESS_TOL * np.abs(Z.real).max(initial=0.0):
        scale = np.abs(Z).max()
        if resid > _REALNESS_TOL * scale:
            raise RealnessCheckFailed(
                f"{context}: imaginary residue {resid:.3e} exceeds "
                f"{_REALNESS_TOL:g} x scale {scale:.3e}"
            )
    return np.ascontiguousarray(Z.real)


def propagate_order(
    spectral: SpectralData,
    weights: KernelWeights,
    inputs: np.ndarray,
    carry: Carry | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate one order's modal inputs to its coefficient grid.

    Parameters
    ----------
    spectral : SpectralData
        Decomposition whose retained set matches the weights.
    weights : KernelWeights
        Output of build_kernel_weights at the grid step.
    inputs : (k, B) array
        The modal inputs of the order's inhomogeneity, sampled on the
        forcing grid or on one time block of it: P g_nu, the image of
        its force block under P = SpectralData.force_rows, as
        assemble_phi(..., basis=P) composes it from order 2 on (order 1
        is P applied to the normalized forcing). On the structural path
        they are (m, B) and real, since the response of a real system to
        a real force is real: complex inputs take the realness policy on
        entry, running as their real part, or raising
        RealnessCheckFailed if their imaginary part is not negligible.
        On the general path real inputs are the folded stack of
        force_rows(real=True) when the retained set folds
        (SpectralData._folded), and complex ones run every retained mode.
    carry : Carry, optional
        The order's state between time blocks (see Carry). None, or a
        fresh Carry, makes the block the start of the grid (at least 2
        samples); the blocks' results equal the whole grid's up to the
        rounding of the modal matrix products. A carry belongs to the
        weights it was started with.
    out : (state_dim, B) real array, optional
        Where to write the result, for instance a block of a coefficient
        tensor's slot. The structural path and the folded general path
        reconstruct into it with no temporary, with the same bits as a
        call without out; the complex route copies its real part in.

    Returns
    -------
    (state_dim, B) real array (out, if given): one _modal_response call,
    the core of both kinds, over the whole grid; a complex modal sum
    takes the realness policy of _enforce_real (a real sum passes as it
    is). Its modal temporaries are as long as the grid, so a caller
    with a long record hands it one time block at a time with a Carry
    (the cascades and picard_gss run blocks of gss._BLOCK samples).

    Raises GridMismatch if inputs, out, the weights or the carry do not
    fit the grid, and RealnessCheckFailed if structural inputs or the
    modal sum keep an imaginary part above 1e-10 x its scale.
    """
    carry = Carry() if carry is None else carry
    if weights.kind != spectral.kind or tuple(weights.retained) != tuple(spectral.retained):
        raise GridMismatch("weights were built for a different retained set")
    inputs = np.asarray(inputs)
    if spectral.kind == "structural":
        inputs = _enforce_real(inputs, "structural modal inputs")
    if inputs.ndim != 2:
        raise GridMismatch(f"inputs have shape {inputs.shape}, expected (k, B)")
    length = inputs.shape[1]
    if length < (2 if carry.state is None else 1):
        raise GridMismatch("grid needs at least 2 samples")
    if out is not None and out.shape != (spectral.state_dim, length):
        raise GridMismatch(
            f"out has shape {out.shape}, expected ({spectral.state_dim}, {length})"
        )
    Z = _enforce_real(_modal_response(spectral, weights, inputs, carry, out), "modal assembly")
    if out is None or Z is out:
        return Z
    out[...] = Z
    return out
