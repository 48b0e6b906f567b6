"""The generalized CRS model: a quantum oscillator on the line with
position-dependent mass factor K(x) = 1 + lam x^2.

The Hamiltonian is

    H = (hbar^2/2m) (-K d^2/dx^2 - lam x d/dx) + V(x),

with the solvable potential family

    V(x) = (hbar^2/2m) [(beta X + gamma)^2 + (beta X + gamma)(A X + B)]
           / [K (dX/dx)^2] + C,

where X(x) solves the constraint K X'' + lam x X' = A X + B.  The special
choice X = cos(2 Theta(x)), Theta = arcsinh(sqrt(lam) x), with a specific
(beta, gamma, A, B, C) bundle makes V a trigonometric Poschl-Teller-like
well whose spectrum is known in closed form.

Every position-dependent formula takes a float or an ndarray of points x
and returns a scalar or an array of the same shape; it raises if any
requested point is singular.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ComplexResultError,
    DegenerateDerivativeError,
    SingularPointError,
    ZeroAError,
)
from .params import PhysParams, require_positive
from .special_functions import hyp2f1_terminating, radial_quantum_number, theta_of_x

__all__ = [
    "QesSpec",
    "HypergeometricArgument",
    "special_params",
    "x_general",
    "x_constraint_residual",
    "potential_general",
    "crs_potential_special",
    "crs_wavefunction_special",
    "crs_energy",
    "crs_operator_coefficients",
    "x_pole",
]


@dataclass(frozen=True)
class QesSpec:
    """Parameter bundle (A, B, C1, C2, beta, gamma, C) of one solvable model.

    The derived fields are fixed by the transformation conditions:
    mprime_q = (beta+gamma)/(4 lam) - 1/2 and
    delta = sqrt(1 + 4 m^2 omega^2/(lam^2 hbar^2)).
    """

    A: float
    B: float
    C1: float
    C2: float
    beta: float
    gamma: float
    c_shift: float
    mprime_q: float
    delta: float

    @classmethod
    def build(cls, A: float, B: float, C1: float, C2: float,
              mprime_q: float, params: PhysParams) -> "QesSpec":
        """Populate beta, gamma, C from mprime_q via the transformation relations

        beta = 2 lam (m'+1) + lam delta,  gamma = 2 lam m' - lam delta,
        C = (hbar^2/2m) (lam (m'^2 - 1) + m' lam delta).
        """
        lam = params.require_curvature()
        d = params.delta
        beta = 2 * lam * (mprime_q + 1) + lam * d
        gamma = 2 * lam * mprime_q - lam * d
        c_shift = params.hbar**2 / (2 * params.mass) * (
            lam * (mprime_q**2 - 1) + mprime_q * lam * d)
        return cls(A=A, B=B, C1=C1, C2=C2, beta=beta, gamma=gamma,
                   c_shift=c_shift, mprime_q=mprime_q, delta=d)

    @classmethod
    def example1(cls, l: float, mprime_q: float, params: PhysParams) -> "QesSpec":
        """The X = cos(l Theta) family: A = -lam l^2, B = 0, C1 = 1, C2 = 0."""
        lam = params.require_curvature()
        require_positive("l", l)
        return cls.build(A=-lam * l**2, B=0.0, C1=1.0, C2=0.0,
                         mprime_q=mprime_q, params=params)

    @classmethod
    def example2(cls, mprime_q: float, params: PhysParams) -> "QesSpec":
        """The X = sqrt(lam) x model: A = lam, B = 0.

        X = sinh(Theta) arises from the general construction with C1 = 0 and
        a formally imaginary C2 = -i; under this package's real-valued
        contract the sinh coefficient is carried implicitly and C2 is
        stored as 0 (the X callable is supplied directly where needed).
        """
        lam = params.require_curvature()
        return cls.build(A=lam, B=0.0, C1=0.0, C2=0.0,
                         mprime_q=mprime_q, params=params)


def special_params(mprime_q: float, params: PhysParams) -> QesSpec:
    """QesSpec of the special model, with beta/gamma written in surd form.

    beta = 2 lam (m'+1) + sqrt(lam^2 + 4 m^2 omega^2/hbar^2) and likewise
    for gamma and C, with A = -4 lam, B = 0, C1 = 1, C2 = 0.  Since
    sqrt(lam^2 + 4 m^2 omega^2/hbar^2) = lam*delta, this equals
    QesSpec.build with the same A, B, C1, C2; the test suite checks it.
    """
    lam = params.require_curvature()
    surd = math.sqrt(lam**2 + 4 * params.mass**2 * params.omega**2 / params.hbar**2)
    beta = 2 * lam * (mprime_q + 1) + surd
    gamma = 2 * lam * mprime_q - surd
    c_shift = params.hbar**2 / (2 * params.mass) * (lam * (mprime_q**2 - 1) + mprime_q * surd)
    return QesSpec(A=-4 * lam, B=0.0, C1=1.0, C2=0.0, beta=beta, gamma=gamma,
                   c_shift=c_shift, mprime_q=mprime_q,
                   delta=surd / lam)


def x_general(spec: QesSpec, params: PhysParams, x):
    """Real-valued general constraint solution

    X(x) = -B/A + C1 cosh(s Theta) + i C2 sinh(s Theta),  s = sqrt(A/lam).

    For A < 0, s = i u turns this into -B/A + C1 cos(u Theta) - C2 sin(u Theta),
    which is real for real C1, C2.  For A > 0 the sinh term is imaginary, so
    C2 must vanish there.
    """
    lam = params.require_curvature()
    if spec.A == 0:
        raise ZeroAError("A = 0 leaves -B/A undefined")
    th = theta_of_x(x, lam)
    if spec.A < 0:
        u = math.sqrt(-spec.A / lam)
        return -spec.B / spec.A + spec.C1 * np.cos(u * th) - spec.C2 * np.sin(u * th)
    if spec.C2 != 0:
        raise ComplexResultError("A > 0 with C2 != 0 gives a complex X(x)")
    u = math.sqrt(spec.A / lam)
    return -spec.B / spec.A + spec.C1 * np.cosh(u * th)


def x_constraint_residual(Xfun: Callable, A: float, B: float, params: PhysParams, x):
    """Residual of the constraint K X'' + lam x X' - A X - B at x.

    Derivatives by central differences with step h = max(1e-4, 1e-4 |x|),
    so the callable only needs point evaluation (on arrays, if x is one).
    The step balances the O(h^2) truncation against the 4 eps K/h^2
    rounding floor of the second difference; 1e-4 keeps both near 1e-7
    for |x| <= 5.
    """
    lam = params.lam
    x = np.asarray(x, float)
    h = np.maximum(1e-4, 1e-4 * np.abs(x))
    d1 = (Xfun(x + h) - Xfun(x - h)) / (2 * h)
    d2 = (Xfun(x + h) - 2 * Xfun(x) + Xfun(x - h)) / h**2
    K = 1 + lam * x**2
    return K * d2 + lam * x * d1 - A * Xfun(x) - B


def potential_general(spec: QesSpec, Xfun: Callable, Xprime: Callable,
                      params: PhysParams, x):
    """The factorization-method potential for an arbitrary constraint solution X."""
    params.require_curvature()
    x = np.asarray(x, float)
    Xp = Xprime(x)
    if np.any(np.abs(Xp) < 1e-14):
        raise DegenerateDerivativeError(
            f"|dX/dx| = {np.min(np.abs(Xp))} at a requested x; potential singular")
    K = 1 + params.lam * x**2
    bx = spec.beta * Xfun(x) + spec.gamma
    num = bx * bx + bx * (spec.A * Xfun(x) + spec.B)
    return params.hbar**2 / (2 * params.mass) * num / (K * Xp * Xp) + spec.c_shift


def crs_potential_special(mprime_q: float, params: PhysParams, x):
    """Closed form of the special-model potential,

    V(x) = (1/2) m omega^2 (tan Theta / sqrt(lam))^2
           - (lam hbar^2 / 8m) [1 + (1 - 4 m'^2) csc^2 Theta].

    Singular at x = 0 unless the csc^2 coefficient vanishes (m' = +-1/2).
    """
    lam = params.require_curvature()
    coeff = 1 - 4 * mprime_q**2
    at_origin = np.asarray(x, float) == 0
    if coeff != 0 and np.any(at_origin):
        raise SingularPointError("csc^2 Theta diverges at x = 0")
    th = theta_of_x(x, lam)
    # where x = 0 is allowed, coeff = 0 and the csc^2 term is 0 there
    csc_term = coeff / np.where(at_origin, 1.0, np.sin(th) ** 2)
    return (0.5 * params.mass * params.omega**2 * (np.tan(th) / math.sqrt(lam)) ** 2
            - lam * params.hbar**2 / (8 * params.mass) * (1 + csc_term))


class HypergeometricArgument(enum.Enum):
    """Convention for the sine entering the special-model wavefunction.

    SIN feeds sin(Theta) to the hypergeometric factor and uses cos(Theta)
    as the power base.  SIN_SQUARED squares both.  Only SIN_SQUARED
    satisfies the eigen-equation (the verify suite measures both); SIN is
    retained so the discrepancy stays observable.
    """

    SIN = "sin"
    SIN_SQUARED = "sin_squared"


def crs_wavefunction_special(qn: tuple, params: PhysParams, x,
                             argument_convention: HypergeometricArgument =
                             HypergeometricArgument.SIN_SQUARED):
    """Eigenfunction of the special model (unnormalized, complex up to a
    constant phase from the [-sin^2(2 Theta)]^(-3/4) prefactor):

    phi(x) = [-sin^2(2 Theta)]^(-3/4) sin^2(Theta) (tan Theta / sqrt(lam))^|m'|
             * base^(1 + |m'|/2 + m w'/(2 hbar lam))
             * 2F1(-N, N + |m'| + 1 + m w'/(lam hbar); |m'| + 1; arg)

    with (base, arg) = (cos Theta, sin Theta) for SIN and
    (cos^2 Theta, sin^2 Theta) for SIN_SQUARED.
    """
    lam = params.require_curvature()
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise SingularPointError(
            f"wavefunction prefactor singular at x <= 0, got {np.min(x)}")
    N, mq = qn
    wp = params.omega_prime
    th = theta_of_x(x, lam)
    s = np.sin(th)
    c = np.cos(th)
    pref = (-(np.sin(2 * th) ** 2) + 0j) ** (-0.75)
    expo = 1 + abs(mq) / 2 + params.mass * wp / (2 * params.hbar * lam)
    if argument_convention is HypergeometricArgument.SIN_SQUARED:
        base, arg = c * c, s * s
    else:
        base, arg = c, s
    b_par = N + abs(mq) + 1 + params.mass * wp / (lam * params.hbar)
    hyp = hyp2f1_terminating(N, b_par, abs(mq) + 1, arg)
    return (pref * s * s * (np.tan(th) / math.sqrt(lam)) ** abs(mq)
            * (base + 0j) ** expo * hyp)


def crs_wavefunction_special_real(qn, params: PhysParams, x,
                                  argument_convention: HypergeometricArgument =
                                  HypergeometricArgument.SIN_SQUARED):
    """crs_wavefunction_special with the constant complex phase stripped."""
    phase = complex(-1.0, 0.0) ** (-0.75)
    return (crs_wavefunction_special(qn, params, x, argument_convention) / phase).real


def crs_energy(qn: tuple, params: PhysParams) -> float:
    """Spectrum of the special model:

    E = hbar w' (2N + |m'| + 1) + (lam hbar^2 / 2m) (2N + |m'| + 1)^2,
    w' = sqrt(omega^2 + hbar^2 lam^2 / (4 m^2)).

    Requires lam > 0; the flat limit belongs to the radial-oscillator module.
    """
    lam = params.require_curvature()
    N, mq = qn
    n = 2 * radial_quantum_number(N) + abs(mq) + 1
    return params.hbar * params.omega_prime * n + lam * params.hbar**2 / (2 * params.mass) * n**2


def crs_operator_coefficients(params: PhysParams, x):
    """Coefficient triple (p2, p1, p0) of the kinetic operator,

    (-(hbar^2/2m) K(x), -(hbar^2/2m) lam x, 0),

    for the eigenproblem p2 phi'' + p1 phi' + (p0 + V) phi = E phi.  Well
    defined for any lam including the flat case lam = 0.
    """
    f = -params.hbar**2 / (2 * params.mass)
    return f * (1 + params.lam * x**2), f * params.lam * x, 0.0


def x_pole(params: PhysParams) -> float:
    """First singularity of tan(Theta(x)): x* = sinh(pi/2)/sqrt(lam).

    The special-model potential walls off there; the natural domain of its
    closed-form spectrum is (0, x*).
    """
    lam = params.require_curvature()
    return math.sinh(math.pi / 2) / math.sqrt(lam)
