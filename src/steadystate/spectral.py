"""Diagonalization of the linear part and convergence diagnostics.

General damping solves the generalized eigenproblem (A - lambda B) v = 0
by QZ, without forming B^{-1}. With a symmetric damping matrix both A and
B are symmetric, eigenvectors of distinct eigenvalues are orthogonal in
the bilinear form u^T B v, and the columns are normalized to V^T B V = I;
the modal input map (B V)^{-1} then equals V^T, and B^{-1} = V V^T.

A non-symmetric damping matrix (gyroscopic coupling) makes B non-symmetric
and the one-sided identity unattainable; the biorthogonal generalization
uses bilinear left eigenvectors W (rows of W^T solve w^T A = lambda w^T B)
normalized to W^T B V = I, so modal_input = W^T = (B V)^{-1} and
B^{-1} = V W^T. The symmetric case is recovered with W = V.

Note the sesquilinear variant v* B v is identically zero for underdamped
modes of the symmetric pencil (lambda != conj(lambda) forces bilinear
orthogonality against the conjugate partner), so only the transpose
normalization is available.

Structural (Rayleigh) damping reduces to the real modal problem
(K - omega^2 M) u = 0 with U^T M U = I and per-mode damping ratios
zeta_j = (c_M + c_K omega_j^2) / (2 omega_j).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DefectiveSpectrum,
    InvalidParameters,
    NotStructural,
    UnstableLinearPart,
)
from .model import MechanicalSystem, _check_dt, first_order_blocks

__all__ = [
    "SpectralData",
    "ContractionReport",
    "decompose_general",
    "decompose_structural",
    "select_modes",
    "check_contraction",
]

_STABILITY_TOL = 1e-12
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SpectralData:
    """Eigenstructure of the linear part.

    kind 'general': eigenvalues (descending real part, conjugate pairs
    adjacent with the positive-imaginary member first), eigenvector matrix
    V, and modal_input = (B V)^{-1} (equal to V^T when the damping matrix
    is symmetric, the bilinear left-eigenvector rows W^T otherwise). kind
    'structural': natural frequencies (ascending), damping ratios and the
    mass-normalized mode matrix U. retained indexes eigenvalues (general)
    or oscillators (structural). gamma = max_j 1 / |Re lambda_j|.
    force_rows, project and reconstruct are the modal basis of the
    retained units.
    """

    kind: str
    state_dim: int
    retained: tuple
    eigenvalues: np.ndarray | None = None  # (2n,) complex
    V: np.ndarray | None = None  # (2n, 2n) complex
    modal_input: np.ndarray | None = None  # (2n, 2n) complex
    omega: np.ndarray | None = None  # (n,) ascending
    zeta: np.ndarray | None = None  # (n,)
    U: np.ndarray | None = None  # (n, n) real

    def __post_init__(self):
        """InvalidParameters unless retained is a non-empty set of
        distinct unit indices: integers, not bools, in 0..units-1."""
        units = len(self.eigenvalues if self.kind == "general" else self.omega)
        r = self.retained
        if not (
            len(r) > 0
            and all(isinstance(j, (int, np.integer)) and not isinstance(j, bool) for j in r)
            and len(set(r)) == len(r)
            and all(0 <= j < units for j in r)
        ):
            raise InvalidParameters(
                f"retained must be distinct unit indices in 0..{units - 1}, got {r}"
            )

    @cached_property
    def _roots(self):
        """Per unit, retained or not, its roots, the slower first, built
        once per instance and read-only: (2n, 1), each eigenvalue, on the
        general path; (n, 2), each oscillator's two
        (_oscillator_root_pairs), on the structural one."""
        if self.kind == "general":
            roots = self.eigenvalues[:, None]
        else:
            roots = _oscillator_root_pairs(self.omega, self.zeta)
        roots.flags.writeable = False
        return roots

    def slow_real_parts(self) -> np.ndarray:
        """Per unit, retained or not, the slowest real part (closest to zero)."""
        return self._roots[:, 0].real.copy()

    @property
    def gamma(self) -> float:
        """max_j 1 / |Re lambda_j| over every mode, retained or not."""
        return float(np.max(1.0 / np.abs(self.slow_real_parts())))

    @cached_property
    def _maps(self):
        """The retained columns of the modal pair, built once per
        instance: (modal_input rows, V columns) on the general path, (U
        columns, U columns times omega) on the structural one."""
        cols = list(self.retained)
        if self.kind == "general":
            return self.modal_input[cols], self.V[:, cols]
        return self.U[:, cols], self.U[:, cols] * self.omega[cols]

    @cached_property
    def _folded(self):
        """The retained eigenvalues as real units, built once per
        instance, or None (structural, or a retained member without its
        exact conjugate beside it).

        A unit is a pair, positive-imaginary member first, whose
        eigenvalues, V columns and modal-input rows are exact
        conjugates, or a real eigenvalue whose V column and modal-input
        row are both real or both imaginary: for a real input its
        response is then exactly f Re(V+ y+), f = 2 for a pair and 1 for
        a real eigenvalue. The one record of the fold: force_rows,
        reconstruct and the kernel's filters (kernel._modal_response)
        read it. Returns (members, rows, cols): the positions in
        retained of the units' first members, their modal-input rows W+
        as the real stack [Re W+; Im W+], and their V columns V+ as the
        real map [f Re V+, -f Im V+].
        """
        if self.kind != "general":
            return None
        lams, V, W = self.eigenvalues, self.V, self.modal_input
        retained, members, factors, p = list(self.retained), [], [], 0
        while p < len(retained):
            i = retained[p]
            k = retained[p + 1] if p + 1 < len(retained) else i
            vw = np.concatenate([V[:, i], W[i]])
            if lams[i].imag == 0.0 and not (vw.real.any() and vw.imag.any()):
                factors.append(1.0)
            elif (
                lams[i].imag > 0.0
                and lams[k] == np.conj(lams[i])
                and np.array_equal(V[:, k], np.conj(V[:, i]))
                and np.array_equal(W[k], np.conj(W[i]))
            ):
                factors.append(2.0)
            else:
                return None
            members.append(p)
            p += int(factors[-1])
        first, f = [retained[p] for p in members], np.array(factors)
        rows = np.concatenate([W[first].real, W[first].imag])
        cols = np.hstack([V[:, first].real * f, V[:, first].imag * -f])
        return tuple(members), rows, cols

    def project(self, phi: np.ndarray) -> np.ndarray:
        """Modal inputs of the retained units, unfolded: (m, ...)
        modal_input @ phi (general), U^T @ phi[:n], the force block
        (structural)."""
        if self.kind == "general":
            return self._maps[0] @ phi
        return self._maps[0].T @ phi[: self.state_dim // 2]

    def force_rows(self, real: bool = False) -> np.ndarray:
        """The (k, n) map P from a force block g to the modal inputs of
        the state (g, 0), the rows the kernel filters take: U^T
        (structural); on the general path the first n columns of
        modal_input's retained rows, or, for a real input (real) when
        the retained set folds (_folded), of the real stack [Re W+; Im
        W+], whose inputs [Re u+; Im u+] are those of the folded units'
        first members. A retained set that does not fold takes the
        complex rows for a real input too. A view of the modal pair, so
        a solver that composes straight into modal inputs contracts with
        it once per order."""
        n = self.state_dim // 2
        if self.kind == "general":
            folded = self._folded if real else None
            return (self._maps[0] if folded is None else folded[1])[:, :n]
        return self._maps[0].T

    def reconstruct(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(state_dim, ...) state of retained modal coordinates: V @ X for
        complex modal coordinates (general); a real X on the general path
        is the (2, m, ...) stack [Re y; Im y] of the folded units (see
        _folded), summed in real arithmetic as [f Re V+, -f Im V+] @ X; U
        @ X[0] and U omega @ X[1] written into the two halves for a (2, m,
        ...) stack of positions and velocities over omega (structural).
        The real sums are written into out when it is given, and out is
        returned."""
        if self.kind == "general":
            if np.iscomplexobj(X):
                return self._maps[1] @ X
            return np.matmul(self._folded[2], X.reshape((-1,) + X.shape[2:]), out=out)
        n = self.state_dim // 2
        Z = np.empty((2 * n,) + X.shape[2:], dtype=X.dtype) if out is None else out
        positions, velocities = self._maps
        np.matmul(positions, X[0], out=Z[:n])
        np.matmul(velocities, X[1], out=Z[n:])
        return Z


def _oscillator_roots(omega: float, zeta: float):
    """The two roots of s^2 + 2 zeta omega s + omega^2, the slower first:
    the one-oscillator case of _oscillator_root_pairs."""
    return tuple(complex(r) for r in _oscillator_root_pairs(omega, zeta))


def _oscillator_root_pairs(omega: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """The roots of every oscillator (omega, zeta) at once, shape
    omega.shape + (2,): -zeta omega +- i omega sqrt(1 - zeta^2) below
    critical damping, -zeta omega +- omega sqrt(zeta^2 - 1) from it on.
    Column 0 holds the root with the larger real part (the slower one)."""
    omega, zeta = np.asarray(omega, dtype=float), np.asarray(zeta, dtype=float)
    under = zeta < 1.0
    center = -zeta * omega
    spread = omega * np.sqrt(np.where(under, 1.0 - zeta * zeta, zeta * zeta - 1.0))
    roots = np.empty(omega.shape + (2,), dtype=complex)
    roots.real[..., 0] = np.where(under, center, center + spread)
    roots.real[..., 1] = np.where(under, center, center - spread)
    roots.imag[..., 0] = np.where(under, spread, 0.0)
    roots.imag[..., 1] = np.where(under, -spread, 0.0)
    return roots


def _sign_fix(v: np.ndarray) -> np.ndarray:
    # only a +-1 freedom survives the bilinear normalization; pick the sign
    # making the largest-magnitude entry's real part positive
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if pivot.real < 0.0 or (pivot.real == 0.0 and pivot.imag < 0.0):
        return -v
    return v


def decompose_general(system: MechanicalSystem) -> SpectralData:
    """All 2n eigenpairs of (A - lambda B) v = 0 with (BV)^{-1} as rows.

    Eigenvalues sorted by descending real part; complex conjugate pairs
    adjacent, positive-imaginary member first; the conjugate member's
    eigenvector is the exact conjugate of its partner. Columns are scaled
    so modal_input @ B @ V = I: for symmetric damping that is V^T B V = I
    with modal_input = V^T; a non-symmetric damping matrix uses bilinear
    left eigenvectors W with W^T B V = I and modal_input = W^T. Raises
    UnstableLinearPart if any Re(lambda) >= -1e-12 and DefectiveSpectrum
    if the eigenvector matrix is ill conditioned (semisimplicity check).
    """
    B, A = first_order_blocks(system)
    c_scale = max(1.0, float(np.abs(system.C).max()))
    self_dual = bool(np.abs(system.C - system.C.T).max() <= 1e-13 * c_scale)
    vals, vl, vecs = scipy.linalg.eig(A, B, left=True, right=True)
    if np.any(vals.real >= -_STABILITY_TOL):
        worst = vals.real.max()
        raise UnstableLinearPart(
            f"eigenvalue with real part {worst:.3e} >= -1e-12"
        )

    dim = system.state_dim
    scale = np.abs(vals).max()

    # explicit conjugate pairing: sort-key ties are unreliable because the
    # two members of a solver-packed pair can differ in the last ulp
    pos = [i for i in range(dim) if vals[i].imag > 0.0]
    neg_pool = {i for i in range(dim) if vals[i].imag < 0.0}
    real_idx = [i for i in range(dim) if vals[i].imag == 0.0]
    if len(pos) != len(neg_pool):
        raise DefectiveSpectrum(
            "conjugate pairing failed: unbalanced complex half-planes"
        )
    units: list[tuple[int, ...]] = [(i,) for i in real_idx]
    for i in pos:
        j = min(neg_pool, key=lambda k: abs(vals[k] - np.conj(vals[i])))
        if abs(vals[j] - np.conj(vals[i])) > 1e-8 * scale:
            raise DefectiveSpectrum(
                f"no conjugate partner found for lambda={vals[i]:.6g}"
            )
        neg_pool.remove(j)
        units.append((i, j))
    units.sort(key=lambda u: (-vals[u[0]].real, abs(vals[u[0]].imag)))
    order = [k for u in units for k in u]

    vals = vals[order]
    vecs = vecs[:, order]
    # bilinear left eigenvectors satisfy w^T A = lambda w^T B; the solver
    # returns the sesquilinear convention vl^H A = lambda vl^H B
    lefts = np.conj(vl[:, order])
    V = np.zeros((dim, dim), dtype=complex)
    W = np.zeros((dim, dim), dtype=complex)
    lam_out = np.array(vals)

    # representatives: real eigenvalues and the positive-imaginary pair member
    reps = [i for i in range(dim) if vals[i].imag >= 0.0]
    # bilinear Gram-Schmidt inside clusters of (numerically) equal eigenvalues
    done: list[int] = []
    for i in reps:
        v = vecs[:, i].astype(complex)
        w = v if self_dual else lefts[:, i].astype(complex)
        for j in done:
            if abs(vals[j] - vals[i]) <= 1e-8 * scale:
                v = v - (W[:, j] @ (B @ v)) * V[:, j]
                if self_dual:
                    w = v
                else:
                    w = w - (w @ (B @ V[:, j])) * W[:, j]
        s = w @ (B @ v)
        if abs(s) < 1e-14 * (
            np.linalg.norm(w) * np.linalg.norm(v) * np.linalg.norm(B)
        ):
            raise DefectiveSpectrum(
                f"eigenvector for lambda={vals[i]:.6g} cannot be B-normalized"
            )
        v = v / np.sqrt(s)
        flipped = _sign_fix(v)
        if self_dual:
            w = flipped
        else:
            # flipping both columns preserves w^T B v = 1
            w = w / np.sqrt(s)
            if flipped is not v:
                w = -w
        V[:, i] = flipped
        W[:, i] = w
        done.append(i)
    for i in range(dim):
        if vals[i].imag < 0.0:
            # exact conjugate of the adjacent partner keeps pair symmetry
            V[:, i] = np.conj(V[:, i - 1])
            W[:, i] = np.conj(W[:, i - 1])
            lam_out[i] = np.conj(lam_out[i - 1])

    resid = np.linalg.norm(W.T @ B @ V - np.eye(dim))
    if resid > 1e-8:
        raise DefectiveSpectrum(
            f"modal normalization residual {resid:.3e} > 1e-8"
        )
    if np.linalg.cond(V) > _COND_LIMIT:
        raise DefectiveSpectrum(
            f"eigenvector condition number exceeds {_COND_LIMIT:.0e}"
        )

    return SpectralData(
        kind="general",
        state_dim=dim,
        retained=tuple(range(dim)),
        eigenvalues=lam_out,
        V=V,
        modal_input=W.T.copy(),
    )


def decompose_structural(system: MechanicalSystem) -> SpectralData:
    """Real modal data (omega, zeta, U) for Rayleigh-damped systems."""
    if system.damping_class.kind != "structural":
        raise NotStructural("system damping is not a mass/stiffness combination")
    w2, U = scipy.linalg.eigh(system.K, system.M)
    if w2.min() <= 0.0:
        raise UnstableLinearPart(f"nonpositive squared frequency {w2.min():.3e}")
    omega = np.sqrt(w2)
    c_M = system.damping_class.c_M
    c_K = system.damping_class.c_K
    zeta = (c_M + c_K * omega**2) / (2.0 * omega)
    if zeta.min() <= _STABILITY_TOL:
        raise UnstableLinearPart(
            f"modal damping ratio {zeta.min():.3e} <= 0; system is not asymptotically stable"
        )
    # each mode's sign: its largest-magnitude entry positive
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])] < 0.0
    U[:, flip] = -U[:, flip]
    return SpectralData(
        kind="structural",
        state_dim=system.state_dim,
        retained=tuple(range(system.n)),
        omega=omega,
        zeta=zeta,
        U=U,
    )


def select_modes(spectral: SpectralData, dt: float, eps: float = 1e-3) -> tuple:
    """Retained index set { j : exp(dt * Re lambda_j) > eps }.

    The slowest unit is always kept, with every unit tied at its real
    part, so the selection is never empty and never splits a conjugate
    pair (decompose_general makes pairs exact conjugates). For structural
    data the criterion uses each oscillator's slowest root, so conjugate
    pairs are retained or dropped jointly in both kinds.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidParameters(f"eps must lie in (0, 1), got {eps}")
    _check_dt(dt)
    reals = spectral.slow_real_parts()
    keep = (np.exp(dt * reals) > eps) | (reals == reals.max())
    return tuple(np.flatnonzero(keep).tolist())


def with_retained(spectral: SpectralData, retained: tuple) -> SpectralData:
    """Copy of the spectral data with the retained set replaced."""
    return replace(spectral, retained=tuple(retained))


@dataclass(frozen=True)
class ContractionReport:
    """Evaluation of the two Picard-contraction inequalities.

    contraction_factor a = 2 ||V|| ||V*|| Gamma (L^F + L^G) must stay
    below 1, and the forcing amplitude must not exceed
    admissible_delta_bound = delta (1/(||V|| ||V*|| Gamma) - 2(L^F+L^G))
    - sup_ball ||F||, which reduces to delta / (||V|| ||V*|| Gamma) for a
    linear system. The stricter variant 4 ||V|| ||V*|| Gamma (L^F + L^G)
    <= 1 is reported alongside as strict_satisfied. lipschitz_F bounds
    the Jacobian norm over the ball.
    """

    delta: float
    lipschitz_F: float
    lipschitz_G: float
    gamma: float
    vnorm_product: float
    admissible_delta_bound: float
    contraction_factor: float
    satisfied: bool
    sup_F: float
    strict_satisfied: bool


def check_contraction(
    system: MechanicalSystem,
    spectral: SpectralData,
    delta: float,
    forcing_delta: float,
) -> ContractionReport:
    """Lipschitz bound and contraction verdict on a delta-ball.

    L^F = sum_m |m| ||F_m|| delta^{|m|-1} over the monomials of the
    nonlinearity in the state, and sup_ball ||F|| = sum_m ||F_m||
    delta^{|m|}: on the ball each gradient of z^m has 1-norm at most
    |m| delta^{|m|-1}, so L^F bounds the Jacobian's spectral norm at
    every point of it. L^G is zero for the pure-time forcing exercised
    here. When the first-order eigenbasis is defective (a critically
    damped mode), ||V|| is unbounded and the certificate is returned
    unsatisfied: factor inf, admissible bound 0.
    """
    if delta <= 0.0:
        raise InvalidParameters("delta must be positive")
    try:
        V = spectral.V if spectral.kind == "general" else decompose_general(system).V
        vnorm_product = float(np.linalg.norm(V, 2)) ** 2  # ||V*||_2 == ||V||_2
    except DefectiveSpectrum:  # no eigenbasis: ||V|| is unbounded
        vnorm_product = np.inf
    gamma = spectral.gamma

    lip_F = sup_f = 0.0
    for m, coeff in system.nonlinearity.terms:
        deg = sum(m)
        cn = float(np.linalg.norm(coeff))
        lip_F += deg * cn * delta ** (deg - 1)
        sup_f += cn * delta**deg

    if vnorm_product == np.inf:
        factor, bound = np.inf, 0.0
    else:  # L^G = 0: the factors carry L^F alone
        factor = 2.0 * vnorm_product * gamma * lip_F
        bound = max(delta * (1.0 / (vnorm_product * gamma) - 2.0 * lip_F) - sup_f, 0.0)
    return ContractionReport(
        delta=float(delta),
        lipschitz_F=float(lip_F),
        lipschitz_G=0.0,
        gamma=float(gamma),
        vnorm_product=vnorm_product,
        admissible_delta_bound=float(bound),
        contraction_factor=float(factor),
        satisfied=bool(factor < 1.0 and forcing_delta <= bound),
        sup_F=float(sup_f),
        strict_satisfied=bool(2.0 * factor <= 1.0),
    )
