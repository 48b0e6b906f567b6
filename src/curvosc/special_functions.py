"""Special functions and the two intrinsic angles Theta(x) and Upsilon(r).

Everything here is pure.  Apart from the terminating series, whose first
parameter is a scalar, and the check of that parameter, each function
takes a float or an ndarray of points (numpy ufuncs throughout): a float
gives a scalar, an array an array of the same shape.  A domain error is
raised if any requested point is out of range.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    NegativeRadiusError,
    NonpositiveCurvatureError,
    PoleInSeriesError,
    QuantumNumberError,
)


def radial_quantum_number(N) -> int:
    """N as an int, after checking that it is a nonnegative integer (an
    integral float counts).  The spectra and the terminating series, and so
    both wavefunctions, take their N through this one check."""
    if not (N >= 0 and float(N).is_integer()):
        raise QuantumNumberError(f"N must be a nonnegative integer, got {N}")
    return int(N)


def hyp2f1_terminating(N: int, b: float, c: float, z):
    """Terminating Gauss series 2F1(-N, b; c; z), an exact degree-N polynomial.

    Summed left to right with the ratio recurrence
    t_{k+1} = t_k * (-N+k)(b+k) / ((c+k)(k+1)) * z, which avoids gamma
    functions and overflow for the N <~ 50 this package uses.  Since the
    series terminates there are no convergence concerns for any finite z,
    including |z| >= 1.
    """
    N = radial_quantum_number(N)
    if c <= 0 and c == int(c) and -int(c) <= N - 1:
        # (c)_k hits zero at k = -c+1 <= N, before the series terminates
        raise PoleInSeriesError(f"(c)_k vanishes for c={c} before termination at N={N}")
    total = 1.0
    term = 1.0
    for k in range(N):
        term *= (-N + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    return total


def gudermannian(x):
    """Gudermannian gd(x) = 2 arctan(e^x) - pi/2.

    Odd, strictly increasing, bounded by pi/2.  Evaluated through
    sign(x) (pi/2 - 2 arctan(e^-|x|)) so large |x| never overflows the
    exponential.
    """
    return np.copysign(math.pi / 2 - 2 * np.arctan(np.exp(-np.abs(x))), x)


def theta_of_x(x, lam: float):
    """Intrinsic coordinate of the nonlinear-oscillator line: arcsinh(sqrt(lam) x)."""
    if not (lam > 0):
        raise NonpositiveCurvatureError(f"theta_of_x requires lam > 0, got {lam}")
    return np.arcsinh(math.sqrt(lam) * np.asarray(x, float))


def upsilon_of_r(r, lam: float):
    """Polar angle of the curved radial coordinate: arctan(sqrt(lam) r) in [0, pi/2)."""
    if not (lam > 0):
        raise NonpositiveCurvatureError(f"upsilon_of_r requires lam > 0, got {lam}")
    r = np.asarray(r, float)
    if np.any(r < 0):
        raise NegativeRadiusError(f"upsilon_of_r requires r >= 0, got {np.min(r)}")
    return np.arctan(math.sqrt(lam) * r)
