"""Exception types raised by the model and solver layers."""


class CurvoscError(ValueError):
    """Base class for all domain errors in this package.  inputs names the
    inputs at fault by their library names: the PhysParams fields mass,
    hbar, omega and lam, and mprime_q, l, N and mprime; () where none is
    known.  The CLI writes them as its flags."""

    def __init__(self, message: str = "", inputs: tuple[str, ...] = ()):
        super().__init__(message)
        self.inputs = inputs


class SeriesDomainError(CurvoscError):
    """The terminating 2F1(-N, b; c; z) is asked for b <= N or c <= 0,
    outside the domain of its recurrence."""


class QuantumNumberError(CurvoscError):
    """A radial quantum number N is negative, not an integer or too large for
    a wavefunction's terminating series, or an angular one m' is not finite."""


class ParameterOverflowError(CurvoscError):
    """A physical parameter is too large for a formula to stay finite in
    floating point."""


class PrecisionLossError(CurvoscError):
    """A parameter leaves a result's roundoff above the accuracy that the
    command holds it to: a cancellation in floating point eats its digits."""


class ParameterUnderflowError(CurvoscError):
    """A physical parameter is too small for a formula to stay a normal float."""


class NonpositiveCurvatureError(CurvoscError):
    """An operation that needs lambda > 0 (the spectrum: lambda >= 0) got less."""


class NonpositiveParameterError(CurvoscError):
    """A parameter that must be positive (mass, hbar, omega or the family
    index l) is zero, negative or nan."""


class InfiniteBranchError(CurvoscError):
    """An A < 0 spec's X_Theta has no zero below the equator (cos(l Theta), l <= 2),
    so its branch radius, the pole where a channel solve ends, does not exist."""


class NegativeRadiusError(CurvoscError):
    """A radial coordinate was negative."""


class SingularPointError(CurvoscError):
    """Evaluation requested at a singular point of the formula."""


class ZeroAError(CurvoscError):
    """The linear-term coefficient A vanishes, so -B/A is undefined."""


class DegenerateDerivativeError(CurvoscError):
    """X_Theta, and so dX/dx, is (numerically) zero where the potential divides by it."""


class OutOfImageError(CurvoscError):
    """A point lies outside the image of the coordinate map."""


class NonpositiveWeightError(CurvoscError):
    """A Sturm-Liouville weight or leading coefficient is not positive."""


class UnresolvedError(CurvoscError):
    """The discrete problem cannot resolve the requested eigenvalues: they lie
    too close to the spectral edge or to its roundoff, or the system is not finite."""


class StateRangeError(CurvoscError):
    """A state is zero or not finite in floating point where a formula divides by it."""


class NodeDetectedError(CurvoscError):
    """A sign change was found where a nodeless function was required."""
