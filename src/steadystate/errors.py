"""Exception hierarchy shared by all modules.

Every error raised by the library derives from :class:`SteadyStateError`,
so callers (and the CLI) can map failures to exit categories without
enumerating modules. The errors that blame the caller's input derive
from :class:`InputError` as well: a malformed file, an output path that
cannot be written, an argument out of range or of the wrong shape,
model matrices without the symmetry or definiteness the model needs.
The other SteadyStateErrors report what the computation ran into: an
unstable or defective spectrum, a resonance, a failed iteration, grids
or orders that do not fit together. The CLI exits 2 on an InputError,
4 on NearResonance and 3 on any other SteadyStateError.
"""

from __future__ import annotations


class SteadyStateError(Exception):
    """Base class for all library errors."""


class InputError(SteadyStateError):
    """Base class of the errors that blame the caller's input rather
    than the numerics: fixing the input, not the solver, cures them."""


# ---------------------------------------------------------------- model


class NotSymmetric(InputError):
    """A matrix required to be symmetric is not (beyond tolerance)."""


class NotPositiveDefinite(InputError):
    """Mass or stiffness matrix has a non-positive eigenvalue."""


class DampingIndefinite(InputError):
    """Symmetric part of the damping matrix has a negative eigenvalue."""


class NonlinearTermDegreeTooLow(InputError):
    """A nonlinear term with total degree below 2 was supplied."""


class DimensionMismatch(InputError):
    """Array dimensions are inconsistent with the object they target."""


class NonuniformInput(InputError):
    """A supplied time column is not uniformly spaced."""


class EmptySignal(InputError):
    """Forcing input has fewer than two samples."""


# ------------------------------------------------------------- spectral


class UnstableLinearPart(SteadyStateError):
    """Some eigenvalue of the linear part has real part >= -1e-12."""


class DefectiveSpectrum(SteadyStateError):
    """Eigenvector matrix condition number exceeds the semisimplicity
    threshold (1e12)."""


class NotStructural(InputError):
    """Structural-damping decomposition requested for a system whose
    damping matrix is not a mass/stiffness combination."""


# --------------------------------------------------------------- kernel


class ZeroEigenvalue(SteadyStateError):
    """Piecewise-linear weights requested for Re(lambda) == 0."""


class InvalidParameters(InputError):
    """An argument lies outside its admissible range: a step, amplitude,
    threshold, exponent, coefficient or option value."""


class GridMismatch(SteadyStateError):
    """Time grid, state dimension, or retained-mode set of the inputs
    disagree."""


class NearResonance(SteadyStateError):
    """A forcing harmonic sits within tolerance of an eigenvalue.

    Attributes
    ----------
    k : tuple
        Offending harmonic multi-index.
    distance : float
        |i<k,Omega> - lambda| for that harmonic.
    """

    def __init__(self, message, k=None, distance=None):
        super().__init__(message)
        self.k = k
        self.distance = distance


class RealnessCheckFailed(SteadyStateError):
    """Imaginary residue after conjugate-pair summation exceeded
    1e-10 times the result scale.

    The one policy for every complex modal sum that must be real: the
    general kernel path where it does not fold its conjugate pairs (a
    split pair), the general qp orbit and each lifted order of a reduced
    model raise this; a smaller residue is discarded. propagate_order
    applies it to structural modal inputs too, which run as real: a
    complex input with a larger imaginary part raises, a smaller one is
    dropped before the modes run."""


# ---------------------------------------------------------- composition


class OrderUnavailable(SteadyStateError):
    """A coefficient slice beyond orders_complete was requested, or a
    grid was inserted at an order the tensor stores no slot for."""


# ------------------------------------------------------------------ gss


class DenominatorNearZero(SteadyStateError):
    """The Pade fit's one denominator has magnitude below 1e-8 at a
    requested amplitude: the amplitude sits at a pole of the fit.

    Attributes
    ----------
    delta : float
        The first amplitude, in the order given, at which it does.
    """

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class DivergenceWarning(UserWarning):
    """Partial sums of the Taylor series grew by more than 10x between
    order N/2 and order N at the reference amplitude. Not fatal; consider
    Pade resummation."""


class HarmonicTruncationWarning(UserWarning):
    """The 'qp' backend's harmonic budget is below the expansion order.

    Orders above the budget drop the harmonics outside the index ball
    sum |k_i| <= budget; with forcing on sum |k_i| <= 1 the expansion is
    exact only when the budget is at least the order."""


class HarmonicFitIllConditioned(UserWarning):
    """The design matrix of a least-squares harmonic fit (fit_harmonics)
    is ill-conditioned: near-collinear harmonics split the signal
    between them arbitrarily, so the fitted coefficients, and a 'qp'
    orbit built on them, are not to be trusted. A longer record or a
    smaller harmonic budget separates them."""


# --------------------------------------------------------------- oracle


class NewtonDivergence(SteadyStateError):
    """Newton iteration inside the Newmark oracle failed to converge.

    Attributes
    ----------
    step : int
        Time-step index at which the iteration diverged.
    residual : float
        Final residual norm.
    """

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class NoConvergence(SteadyStateError):
    """Picard iteration failed to meet tolerance within max_iter.

    Attributes
    ----------
    last_iterate : numpy.ndarray or None
        Trajectory from the final completed sweep, or from the last
        sweep before the iterate stopped being finite.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class QuadratureFailure(SteadyStateError):
    """The quadrature reference did not reach the requested accuracy."""


class InstanceTooLarge(SteadyStateError):
    """Faa di Bruno oracle limits exceeded (n <= 4, nu <= 6, degree <= 4)."""


# ------------------------------------------------------------------ cli


class ConfigError(InputError):
    """Malformed configuration or input file, or an output file or
    directory that cannot be written."""


class InvalidCutoff(InputError):
    """Low-pass cutoff at or above the Nyquist frequency."""
