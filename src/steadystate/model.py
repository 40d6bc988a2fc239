"""System definition: matrices, polynomial nonlinearities, forcing signals.

State convention: the second-order system

    M x'' + C x' + K x + f(x, x') = g(t)

is recast in first order for the state z = (x, x') as

    B z' = A z + F(z) + G(t),
    B = [[C, M], [M, 0]],  A = [[-K, 0], [0, M]],
    F(z) = (-f(z), 0),     G(t) = (g(t), 0).

The nonlinearity f is stored as it appears on the left-hand side above;
downstream assembly applies the sign flip. Trajectories are arrays of
shape (state_dim, T); forcing samples are (T, n).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
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

__all__ = [
    "PolynomialField",
    "DampingClass",
    "MechanicalSystem",
    "ForcingSignal",
    "ReducedModel",
    "polynomial_field",
    "build_system",
    "evaluate_field",
    "field_jacobian",
    "load_forcing",
    "first_order_blocks",
    "reduced_model",
]

_SYM_TOL = 1e-10
_STRUCTURAL_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def _check_dt(dt):
    """Raise InvalidParameters unless the grid step dt is finite and > 0."""
    if dt is None or not 0.0 < dt < np.inf:
        raise InvalidParameters(f"dt must be finite and > 0, got {dt}")


def _check_int(value, name, low, high=None):
    """Raise InvalidParameters unless value is an integer, not a bool, in
    low..high (from low up when high is None)."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidParameters(f"{name} must be an integer {span}, got {value!r}")


def _check_real(value, name, positive=False):
    """Raise InvalidParameters unless value is a finite real, not a bool,
    > 0 (positive) or >= 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise InvalidParameters(f"{name} must be a finite value {bound}, got {value!r}")


def _factor_list(exponents):
    """State indices of an exponent vector, each repeated as often as its exponent."""
    return tuple(i for i, e in enumerate(exponents) for _ in range(e))


def _padded(factor_lists, width):
    """The factor lists as one (len, max degree) index array, each row
    padded with width, the index of the constant 1."""
    most = max(map(len, factor_lists), default=0)
    padded = [f + (width,) * (most - len(f)) for f in factor_lists]
    return np.reshape(np.array(padded, dtype=np.intp), (len(padded), most))


class _Polynomial(NamedTuple):
    """coef @ monomials(y), each monomial the product of the entries of
    y its row of factors names; the index len(y) stands for the
    constant 1 and pads rows of lower degree."""

    coef: np.ndarray  # (rows, n_monomials)
    factors: np.ndarray  # (n_monomials, max degree) indices into y

    def monomials(self, y):
        """Each monomial's value at y of shape (width,) or (width, T)."""
        y = np.concatenate([y, np.ones((1,) + y.shape[1:])])
        return y[self.factors].prod(axis=1)


@dataclass(frozen=True)
class PolynomialField:
    """Sparse multivariate polynomial map R^dim -> C^out_dim, written in
    linear forms: F(z) = C m(y) with y = forms @ z.

    forms is the (r, dim) form matrix Lambda; None stands for the
    identity (r = dim, y = z), and such a field pays no product with it.
    form_terms maps each exponent multi-index m over the r forms to a
    coefficient vector F_m (a column of C), so the field value is
    sum_m F_m * prod_k y_k^{m_k}. forms and form_terms are the stored
    field; everything else is derived from them on first read and
    cached on the instance, so dataclasses.replace of form_terms (or of
    forms) changes the field and its derived values together. terms is
    the same field in the state coordinates, monomials in z: form_terms
    itself for the identity, otherwise their expansion through the
    forms. max_degree is the largest total degree (0 without terms).
    A finite-element force is a few powers of each element's strains,
    so its form terms are far fewer than its expanded monomials;
    composition and evaluation run on the forms. Multi-indices are
    stored in lexicographic order; iteration order is therefore
    deterministic and all downstream sums are reproducible.
    """

    dim: int
    out_dim: int
    min_degree: int
    form_terms: tuple = ()  # ((exponents over y, coeff ndarray), ...) lexicographic
    forms: np.ndarray | None = None  # (r, dim); None is the identity

    def __post_init__(self):
        for m, c in self.form_terms:
            c.flags.writeable = False

    @cached_property
    def terms(self):
        """((exponents over z, coeff ndarray), ...): the monomials in the
        state coordinates, lexicographic."""
        return self.form_terms if self.forms is None else self._expand()

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def n_terms(self) -> int:
        """The number of form terms (the monomials for the identity)."""
        return len(self.form_terms)

    @property
    def n_forms(self) -> int:
        return self.dim if self.forms is None else self.forms.shape[0]

    @cached_property
    def _factors(self):
        """Each form term's factor list, in the order of form_terms; cached like _packed."""
        return tuple(_factor_list(m) for m, _ in self.form_terms)

    @cached_property
    def degrees(self):
        """The total degrees of the terms, ascending, each once."""
        return tuple(sorted({len(f) for f in self._factors}))

    @cached_property
    def _read_forms(self):
        """(columns, forms[:, columns]) of a field on forms: the state
        coordinates some form reads (the nonzero columns of forms), as a
        slice when they are consecutive, else a read-only index array,
        and the forms on them, so that forms @ z is the second times
        z[columns]; cached like _packed."""
        columns = np.flatnonzero(self.forms.any(axis=0))  # ascending
        if columns.size == 0:
            columns = slice(0, 0)
        elif columns[-1] - columns[0] == columns.size - 1:
            columns = slice(int(columns[0]), int(columns[-1]) + 1)
        else:
            columns.flags.writeable = False
        return columns, np.ascontiguousarray(self.forms[:, columns])

    @cached_property
    def _coef(self):
        """C: the coefficient vectors of form_terms as the columns of one
        (out_dim, n_terms) matrix."""
        columns = [c for _, c in self.form_terms]
        return np.reshape(columns, (len(columns), self.out_dim)).T

    def _expand(self):
        """terms of a field on forms: each form term multiplied out in the
        state coordinates, summed per monomial, all-zero monomials dropped.
        A monomial's scalar is the product of the form entries along its
        expansion, exact for entries of +-1, times the term's coefficients;
        the sums start from +0.0."""
        merged: dict = {}
        for f, (_, c) in zip(self._factors, self.form_terms):
            poly = {(0,) * self.dim: 1.0}
            for k in f:
                row = self.forms[k]
                grown: dict = {}
                for e, s in poly.items():
                    for i in np.flatnonzero(row):
                        e_i = e[:i] + (e[i] + 1,) + e[i + 1 :]
                        grown[e_i] = grown.get(e_i, 0.0) + s * row[i]
                poly = grown
            for e, s in poly.items():
                merged[e] = merged.get(e, 0.0) + s * c
        terms = tuple((e, merged[e]) for e in sorted(merged) if np.any(merged[e]))
        for _, c in terms:
            c.flags.writeable = False
        return terms

    @cached_property
    def _packed(self):
        """(value, derivatives, columns): the evaluation form of the field.

        Built on first use and cached on the instance, never with the
        field, so a system that is only expanded never pays for it;
        dataclasses.replace starts without it. value evaluates C m(y).
        Each form a term depends on gives one derivative monomial (one
        factor of it removed) with the coefficient times the exponent;
        columns sends it to its Jacobian row, the chain rule through the
        forms (a 0/1 matrix for the identity).
        """
        dfactors, dcoef, dcol = [], [], []
        for f, (m, c) in zip(self._factors, self.form_terms):
            for k in dict.fromkeys(f):  # each form once, ascending
                i = f.index(k)
                dfactors.append(f[:i] + f[i + 1 :])
                dcoef.append(c * m[k])
                dcol.append(k)
        r = self.n_forms
        columns = np.eye(r)[dcol]
        if self.forms is not None:
            columns = columns @ self.forms
        dcoef = np.reshape(dcoef, (len(dcoef), self.out_dim)).T
        return (
            _Polynomial(self._coef, _padded(self._factors, r)),
            _Polynomial(dcoef, _padded(dfactors, r)),
            columns,
        )


def polynomial_field(dim, out_dim, terms, min_degree=2, forms=None):
    """Validate, merge and sort a term list into a PolynomialField.

    Parameters
    ----------
    dim, out_dim : int
        Input and output dimensions.
    terms : iterable
        Entries are either (exponents, coeff_vector) with a length-out_dim
        vector, or (exponents, target_dof, coefficient) addressing a single
        output row. The exponents run over the forms (over the state
        coordinates when forms is None). Duplicate multi-indices are summed.
        Coefficients may be complex, as in a reduced model's R and W; one
        complex coefficient, in either format, makes them all complex.
    min_degree : int
        Smallest admissible total degree. System nonlinearities use 2 so
        the origin stays a fixed point; reduced dynamics use 1.
    forms : (r, dim) real array, optional
        The form matrix Lambda: the field is a polynomial in y = forms @ z,
        such as the strains of the springs or elements it sums. None is
        the identity.
    """
    width = dim
    if forms is not None:
        if np.iscomplexobj(forms):
            raise InvalidParameters("forms must be real")
        forms = np.array(forms, dtype=float)
        if forms.ndim != 2 or forms.shape[1] != dim:
            raise DimensionMismatch(f"forms have shape {forms.shape}, expected (r, {dim})")
        if not np.all(np.isfinite(forms)):
            raise InvalidParameters("forms contain non-finite entries")
        forms.flags.writeable = False
        width = forms.shape[0]
    merged: dict = {}
    complex_seen = False
    for entry in terms:
        if len(entry) == 2:
            m, coeff = entry
            coeff = np.asarray(coeff)
            if coeff.shape != (out_dim,):
                raise DimensionMismatch(
                    f"coefficient vector has shape {coeff.shape}, expected ({out_dim},)"
                )
        elif len(entry) == 3:
            m, dof, value = entry
            dof = int(dof)
            if not 0 <= dof < out_dim:
                raise DimensionMismatch(f"target_dof {dof} outside [0, {out_dim})")
            coeff = np.zeros(out_dim, dtype=complex if np.iscomplexobj(value) else float)
            coeff[dof] = value
        else:
            raise DimensionMismatch("term entries must be 2- or 3-tuples")
        m = tuple(int(e) for e in m)
        if len(m) != width:
            raise DimensionMismatch(
                f"multi-index length {len(m)} does not match dimension {width}"
            )
        if any(e < 0 for e in m):
            raise InvalidParameters(f"negative exponent in multi-index {m}")
        degree = sum(m)
        if degree < min_degree:
            raise NonlinearTermDegreeTooLow(
                f"term {m} has degree {degree} < {min_degree}"
            )
        if not np.all(np.isfinite(np.asarray(coeff, dtype=complex))):
            raise InvalidParameters(f"non-finite coefficient for multi-index {m}")
        complex_seen = complex_seen or np.iscomplexobj(coeff)
        if m in merged:
            merged[m] = merged[m] + coeff
        else:
            merged[m] = np.array(coeff, copy=True)
    dtype = complex if complex_seen else float
    ordered = tuple(
        (m, np.asarray(merged[m], dtype=dtype)) for m in sorted(merged)
    )
    return PolynomialField(
        dim=dim, out_dim=out_dim, min_degree=min_degree, form_terms=ordered, forms=forms
    )


def _forms_of(fld: PolynomialField, z):
    """y = forms @ z, or z itself for the identity."""
    return z if fld.forms is None else fld.forms @ z


def evaluate_field(fld: PolynomialField, z):
    """Evaluate C m(forms @ z) at a state vector or a (dim, T) batch.

    Returns an (out_dim,) vector for 1-d input, (out_dim, T) otherwise.
    Each term touches only its nonzero exponents over the forms, so cost
    scales with the number of form terms, not with dim.
    """
    z = np.asarray(z)
    if z.ndim not in (1, 2) or z.shape[0] != fld.dim:
        raise DimensionMismatch(
            f"state has shape {z.shape}, field expects ({fld.dim},) or ({fld.dim}, T)"
        )
    value = fld._packed[0]
    return value.coef @ value.monomials(_forms_of(fld, z))


def field_jacobian(fld: PolynomialField, z):
    """Jacobian (out_dim, dim) of the field at one state vector: the
    derivative in the forms, times the forms."""
    z = np.asarray(z)
    if z.shape != (fld.dim,):
        raise DimensionMismatch(
            f"state has shape {z.shape}, field expects ({fld.dim},)"
        )
    _, deriv, columns = fld._packed
    return (deriv.coef * deriv.monomials(_forms_of(fld, z))) @ columns


@dataclass(frozen=True)
class DampingClass:
    """Damping classification: 'structural' carries C = c_M M + c_K K."""

    kind: str  # 'general' | 'structural'
    c_M: float = 0.0
    c_K: float = 0.0


@dataclass(frozen=True)
class MechanicalSystem:
    n: int
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    nonlinearity: PolynomialField
    damping_class: DampingClass

    @property
    def state_dim(self) -> int:
        return 2 * self.n


def _check_symmetric(mat, name):
    scale = np.linalg.norm(mat)
    if scale == 0.0:
        return
    if np.linalg.norm(mat - mat.T) > _SYM_TOL * scale:
        raise NotSymmetric(f"{name} is not symmetric within tolerance {_SYM_TOL}")


def _check_spd(mat, name):
    sym = 0.5 * (mat + mat.T)
    vals = np.linalg.eigvalsh(sym)
    if vals.min() <= 0.0:
        raise NotPositiveDefinite(
            f"{name} has eigenvalue {vals.min():.3e} <= 0"
        )


def _structural_fit(M, C, K):
    # least squares over (c_M, c_K) for C ~ c_M M + c_K K
    basis = np.column_stack([M.ravel(), K.ravel()])
    coef, *_ = np.linalg.lstsq(basis, C.ravel(), rcond=None)
    resid = np.linalg.norm(C - coef[0] * M - coef[1] * K)
    scale = np.linalg.norm(C)
    rel = 0.0 if scale == 0.0 else resid / scale
    return float(coef[0]), float(coef[1]), rel


def build_system(M, C, K, terms=(), damping=None, forms=None):
    """Validate matrices, classify the damping, and assemble the system.

    Parameters
    ----------
    M, C, K : (n, n) arrays
        Mass, damping, stiffness. M and K must be symmetric positive
        definite. C may carry an antisymmetric (gyroscopic) part; its
        symmetric part must be positive semi-definite.
    terms : iterable
        Nonlinear force terms, each of total degree >= 2, in the formats
        accepted by polynomial_field: monomials in the state (x, x'), or
        in the forms when forms is given. The force is real: a coefficient
        with a nonzero imaginary part raises InvalidParameters, and
        complex coefficients with zero imaginary parts are stored real.
    damping : str or None
        'structural' or 'general' to override the automatic class
        detection. Forcing 'structural' on a system whose damping fails
        the fit raises NotStructural.
    forms : (r, 2n) array, optional
        The linear forms of the state the force is a polynomial in (a
        spring's stretch, an element's strains); see PolynomialField.
    """
    M = np.asarray(M, dtype=float)
    C = np.asarray(C, dtype=float)
    K = np.asarray(K, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"M has shape {M.shape}, expected square")
    n = M.shape[0]
    for name, mat in (("C", C), ("K", K)):
        if mat.shape != (n, n):
            raise DimensionMismatch(f"{name} has shape {mat.shape}, expected ({n}, {n})")
    for name, mat in (("M", M), ("C", C), ("K", K)):
        if not np.all(np.isfinite(mat)):
            raise InvalidParameters(f"{name} contains non-finite entries")

    _check_symmetric(M, "M")
    _check_symmetric(K, "K")
    _check_spd(M, "M")
    _check_spd(K, "K")
    c_sym = 0.5 * (C + C.T)
    c_scale = np.linalg.norm(C)
    if c_scale > 0.0:
        vals = np.linalg.eigvalsh(c_sym)
        if vals.min() < -1e-10 * c_scale:
            raise DampingIndefinite(
                f"symmetric part of C has eigenvalue {vals.min():.3e}"
            )

    c_M, c_K, rel = _structural_fit(M, C, K)
    fitted_structural = rel <= _STRUCTURAL_TOL
    if damping is None:
        kind = "structural" if fitted_structural else "general"
    elif damping == "structural":
        if not fitted_structural:
            raise NotStructural(
                f"structural override requested but fit residual {rel:.3e} > {_STRUCTURAL_TOL}"
            )
        kind = "structural"
    elif damping == "general":
        kind = "general"
    else:
        raise InvalidParameters(f"unknown damping override {damping!r}")
    if kind == "structural":
        damping_class = DampingClass("structural", c_M=c_M, c_K=c_K)
    else:
        damping_class = DampingClass("general")

    fld = polynomial_field(2 * n, n, terms, min_degree=2, forms=forms)
    if fld.form_terms and np.iscomplexobj(fld.form_terms[0][1]):
        if any(c.imag.any() for _, c in fld.form_terms):
            raise InvalidParameters("force coefficients must be real, got a nonzero imaginary part")
        real = tuple((m, c.real.copy()) for m, c in fld.form_terms)
        fld = dataclasses.replace(fld, form_terms=real)
    return MechanicalSystem(
        n=n,
        M=_freeze(M),
        C=_freeze(C),
        K=_freeze(K),
        nonlinearity=fld,
        damping_class=damping_class,
    )


def first_order_blocks(system: MechanicalSystem):
    """First-order pencil matrices (B, A) for B z' = A z + F + G."""
    n = system.n
    B = np.zeros((2 * n, 2 * n))
    A = np.zeros((2 * n, 2 * n))
    B[:n, :n] = system.C
    B[:n, n:] = system.M
    B[n:, :n] = system.M
    A[:n, :n] = -system.K
    A[n:, n:] = system.M
    return B, A


class NewmarkStep:
    """Average-acceleration Newmark scheme (beta = 1/4, gamma = 1/2) at step dt.

    Displacement form: the new displacement solves an effective-stiffness
    system built from c0 M + c1 C + K, whose right-hand side carries
    M (c0 x + c2 v + c3 a) + C (c1 x + c4 v + c5 a); advance() then gives
    the new velocity and acceleration.
    """

    beta = 0.25
    gamma = 0.5

    def __init__(self, dt: float):
        beta, gamma = self.beta, self.gamma
        self.dt = dt
        self.c0 = 1.0 / (beta * dt * dt)
        self.c1 = gamma / (beta * dt)
        self.c2 = 1.0 / (beta * dt)
        self.c3 = 1.0 / (2.0 * beta) - 1.0
        self.c4 = gamma / beta - 1.0
        self.c5 = dt * (gamma / (2.0 * beta) - 1.0)

    def advance(self, x, v, a, x_new):
        """(v_new, a_new) at the end of the step that moves x to x_new."""
        a_new = self.c0 * (x_new - x) - self.c2 * v - self.c3 * a
        v_new = v + self.dt * ((1.0 - self.gamma) * a + self.gamma * a_new)
        return v_new, a_new


@dataclass(frozen=True)
class ForcingSignal:
    """Uniformly sampled force history with zero-padding metadata.

    samples includes the pad block: the first pad_length rows are exactly
    zero and t0 is the time of the first stored row (original start time
    minus pad_length * dt). max_magnitude is the supremum over rows of the
    Euclidean norm. samples is read-only; scaled() makes one copy.
    """

    samples: np.ndarray  # (T, n), pad rows included
    dt: float
    t0: float
    pad_length: int
    max_magnitude: float

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.length)

    def scaled(self, factor: float) -> "ForcingSignal":
        if not np.isfinite(factor):  # nan, or inf x the pad's zeros, would read as overflow
            raise InvalidParameters(f"scale factor must be finite, got {factor!r}")
        with np.errstate(over="ignore"):  # an overflowing norm is refused as in load_forcing
            return _forcing_signal(self.samples * factor, self.dt, self.t0, self.pad_length)


def _forcing_signal(samples, dt, t0, pad_length, forced=None) -> ForcingSignal:
    """The ForcingSignal on samples, a padded (T, n) float64 array the
    caller has just made: it is flagged read-only, not copied. t0 is the
    time of its first row. max_magnitude is the sup row norm of forced,
    the C-contiguous (T', k) block of the columns that can be nonzero
    (samples itself when None), in one np.linalg.norm pass. A record
    whose sup row norm overflows float64 (entries near 1.3e154 or more)
    raises InvalidParameters: every order of a solve would divide by it."""
    samples.flags.writeable = False
    rows = samples if forced is None else forced
    with np.errstate(over="ignore"):
        sup = float(np.linalg.norm(rows, axis=1).max(initial=0.0))
    if not np.isfinite(sup):
        raise InvalidParameters(
            f"forcing record's sup row norm overflows float64 (largest entry "
            f"{np.abs(rows).max():.3g}); rescale the record"
        )
    return ForcingSignal(
        samples=samples,
        dt=float(dt),
        t0=float(t0),
        pad_length=pad_length,
        max_magnitude=sup,
    )


def load_forcing(samples, dt=None, t0=0.0, pad_length=0, time=None):
    """Build a ForcingSignal, prepending pad_length zero rows.

    Parameters
    ----------
    samples : (T, n) or (T,) array
        Force per DOF per time step, before padding; every entry finite.
    dt : float or None
        Sample spacing. May be omitted when a time column is given.
    t0 : float
        Time of the first supplied sample.
    pad_length : int
        Number of zero rows to prepend.
    time : (T,) array, optional
        Explicit time stamps; spacing must be uniform to 1e-9 relative
        and overrides dt/t0.

    The signal's samples are one copy of the input written below the pad
    rows (+0.0) of a new read-only, C-contiguous float64 array, and
    max_magnitude is np.linalg.norm(samples, axis=1).max() on it; a
    record whose row norm overflows float64 raises InvalidParameters.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise DimensionMismatch(f"samples must be 2-d, got shape {samples.shape}")
    T = samples.shape[0]
    if T < 2:
        raise EmptySignal(f"forcing needs at least 2 samples, got {T}")
    if not np.all(np.isfinite(samples)):
        raise InvalidParameters("forcing samples contain non-finite entries")
    if time is not None:
        time = np.asarray(time, dtype=float)
        if time.shape != (T,):
            raise DimensionMismatch("time column length does not match samples")
        steps = np.diff(time)
        mean_dt = float(steps.mean())
        if mean_dt <= 0.0:
            raise NonuniformInput("time column is not increasing")
        if np.abs(steps - mean_dt).max() > 1e-9 * abs(mean_dt):
            raise NonuniformInput(
                "time column deviates from a uniform grid by more than 1e-9 relative"
            )
        dt = mean_dt
        t0 = float(time[0])
    _check_dt(dt)
    _check_int(pad_length, "pad_length", 0)
    pad_length = int(pad_length)
    padded = np.zeros((pad_length + T, samples.shape[1]))
    padded[pad_length:] = samples
    return _forcing_signal(padded, dt, float(t0) - pad_length * float(dt), pad_length)


@dataclass(frozen=True)
class ReducedModel:
    """User-supplied reduced dynamics r' = R(r) plus lift W: R^d -> R^{2n}.

    tangent_rows are the retained rows of the modal left inverse acting on
    B-normalized forcing; tangent_cols the matching eigenvector columns.
    Their product is the d x d identity.
    """

    d: int
    R: PolynomialField  # dim d -> d, includes the linear part (min_degree 1)
    W: PolynomialField  # dim d -> full state dimension
    tangent_rows: np.ndarray  # (d, 2n)
    tangent_cols: np.ndarray  # (2n, d)


def reduced_model(R, W, tangent_rows, tangent_cols):
    """Validate and assemble a ReducedModel."""
    tangent_rows = np.asarray(tangent_rows)
    tangent_cols = np.asarray(tangent_cols)
    d = R.dim
    if R.out_dim != d:
        raise DimensionMismatch("R must map R^d to R^d")
    if R.min_degree < 1 or W.min_degree < 1:
        raise DimensionMismatch("R and W must vanish at the origin")
    if W.dim != d:
        raise DimensionMismatch("W must be a map from R^d")
    full = W.out_dim
    if tangent_rows.shape != (d, full) or tangent_cols.shape != (full, d):
        raise DimensionMismatch(
            f"tangent matrices have shapes {tangent_rows.shape}, "
            f"{tangent_cols.shape}; expected ({d}, {full}) and ({full}, {d})"
        )
    prod = tangent_rows @ tangent_cols
    if np.linalg.norm(prod - np.eye(d)) > 1e-8 * max(1.0, np.linalg.norm(prod)):
        raise DimensionMismatch(
            "tangent_rows @ tangent_cols deviates from the identity beyond 1e-8"
        )
    return ReducedModel(
        d=d,
        R=R,
        W=W,
        tangent_rows=_freeze(tangent_rows),
        tangent_cols=_freeze(tangent_cols),
    )
