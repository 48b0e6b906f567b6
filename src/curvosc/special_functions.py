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
    QuantumNumberError,
    SeriesDomainError,
)


def radial_quantum_number(N) -> int:
    """N as an int, after checking that it is a nonnegative integer (an
    integral float counts) that a float can hold.  The spectrum and the
    terminating series, and so both wavefunctions, take their N through
    this one check."""
    try:
        if N >= 0 and float(N).is_integer():
            return int(N)
    except OverflowError:
        raise QuantumNumberError("N must be below 2^1024, the float range") from None
    raise QuantumNumberError(f"N must be a nonnegative integer, got {N}")


MAX_SERIES_N = 1000


def hyp2f1_terminating(N: int, b: float, c: float, z):
    """Terminating Gauss series 2F1(-N, b; c; z), an exact degree-N polynomial.

    With b = N + a, a > 0 and c > 0 it is the Jacobi polynomial
    N!/(c)_N P_N^(c-1, a-c)(1 - 2z), evaluated by the forward three-term
    recurrence (DLMF 18.9.1) for F_n = 2F1(-n, n + a; c; z), n = 1..N,
    carried as the differences F_n - F_{n-1}; summing the series instead
    cancels catastrophically (5e-4 of max|F| lost at N = 20).  On the
    callers' c >= 1, b > N + c it keeps within 1e-12 of max|F| of an exact
    rational sum to N = 60, and within 3e-13 at N = MAX_SERIES_N (c = 1,
    b = N + 2); a larger N is refused.
    """
    N = radial_quantum_number(N)
    if N > MAX_SERIES_N:
        raise QuantumNumberError(f"N must be at most {MAX_SERIES_N} in a wavefunction, got {N}",
                                 ("N",))
    a = b - N
    if not (a > 0 and c > 0):
        raise SeriesDomainError(f"the series needs b > N and c > 0, got N={N}, b={b}, c={c}")
    if N == 0:
        return 1.0
    D = (-(1 + a) / c) * z
    F = 1 + D
    for n in range(1, N):
        t = 2 * n + a
        w = n * (n + a - c) * (t + 1) / ((n + c) * (n + a) * (t - 1))
        v = -t * (t + 1) / ((n + c) * (n + a))
        D = w * D + v * (z * F)
        F = F + D
    return F


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
