"""Exception types raised by the model and solver layers."""


class CurvoscError(ValueError):
    """Base class for all domain errors in this package."""


class SeriesDomainError(CurvoscError):
    """The terminating 2F1(-N, b; c; z) is asked for b <= N or c <= 0,
    outside the domain of its recurrence."""


class QuantumNumberError(CurvoscError):
    """A radial quantum number N is negative or not an integer, or too large
    for the terminating series of a wavefunction."""


class ParameterOverflowError(CurvoscError):
    """A physical parameter is too large for a formula to stay finite in
    floating point."""


class NonpositiveCurvatureError(CurvoscError):
    """An operation that needs lambda > 0 was called with lambda <= 0."""


class NonpositiveParameterError(CurvoscError):
    """A parameter that must be positive (mass, hbar, omega or the family
    index l) is zero, negative or nan."""


class InfiniteBranchError(CurvoscError):
    """The cos(l Theta) potential has no finite sec pole (l <= 2), so a
    channel solve has no right end."""


class NegativeRadiusError(CurvoscError):
    """A radial coordinate was negative."""


class SingularPointError(CurvoscError):
    """Evaluation requested at a singular point of the formula."""


class ZeroAError(CurvoscError):
    """The linear-term coefficient A vanishes, so -B/A is undefined."""


class DegenerateDerivativeError(CurvoscError):
    """dX/dx is (numerically) zero where the potential needs to divide by it."""


class OutOfImageError(CurvoscError):
    """A point lies outside the image of the coordinate map."""


class NonpositiveWeightError(CurvoscError):
    """A Sturm-Liouville weight or leading coefficient is not positive."""


class UnresolvedError(CurvoscError):
    """The discrete problem cannot resolve the requested eigenvalues: they lie
    too close to the spectral edge, or the assembled system is not finite."""


class ZeroNormError(CurvoscError):
    """Cannot normalize a vector with zero weighted norm."""


class NodeDetectedError(CurvoscError):
    """A sign change was found where a nodeless function was required."""
