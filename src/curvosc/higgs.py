"""The radial oscillator on a 2D constant-curvature sphere and the
quasi-exactly solvable potentials obtained from the nonlinear-oscillator
construction.

After separating Psi(r, theta) = e^{i m' theta} psi(r), the radial
eigenproblem is

    -(hbar^2/2m) [ (1+lam r^2)^2 psi'' + (1+lam r^2)(1+5 lam r^2)/r psi'
                   + (3 lam - lam m'^2 + (15/4) lam^2 r^2 - m'^2/r^2) psi ]
    + V(r) psi = E psi.

For V = (1/2) m omega^2 r^2 the eigenpairs are hypergeometric with spectrum
E = hbar w' (2N+|m'|+1) + (lam hbar^2/2m)(2N+|m'|+1)^2.  The two
transplanted potential families below (cos(l Theta) and sqrt(lam) x source
models) are solvable only in the single angular channel m' = m'_Q.

Every r-dependent formula takes a float or an ndarray of radii and
returns a scalar or an array of the same shape; it raises if any
requested point is singular.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeRadiusError, ParameterOverflowError, SingularPointError
from .params import PhysParams, require_positive
from .special_functions import gudermannian, hyp2f1_terminating, radial_quantum_number, upsilon_of_r
from .crs import QesSpec

__all__ = [
    "higgs_radial_coefficients",
    "oscillator_potential",
    "higgs_wavefunction",
    "higgs_energy",
    "qes_example1_potential",
    "qes_example1_groundstate",
    "qes_example2_potential",
    "qes_example2_groundstate",
    "qes_potential",
    "qes_groundstate",
    "example1_branch_radius",
]


def higgs_radial_coefficients(mprime: int | float, params: PhysParams, r):
    """(p2, p1, p0) of angular channel m' with the -hbar^2/2m factor
    applied, so the eigenproblem reads p2 psi'' + p1 psi' + p0 psi + V psi
    = E psi.  Singular at r = 0."""
    r = np.asarray(r, float)
    if np.any(r == 0):
        raise SingularPointError("radial coefficients singular at r = 0")
    lam, mp = params.lam, mprime
    lam2 = lam * lam
    if not math.isfinite(lam2):
        raise ParameterOverflowError(f"lam = {lam:g} overflows the radial coefficients")
    f = -params.hbar**2 / (2 * params.mass)
    K = 1 + lam * r * r
    return (f * K * K,
            f * K * (1 + 5 * lam * r * r) / r,
            f * (3 * lam - lam * mp**2 + 3.75 * lam2 * r * r - mp**2 / (r * r)))


def oscillator_potential(params: PhysParams, r):
    """The oscillator potential (1/2) m omega^2 r^2."""
    r = np.asarray(r, float)
    return 0.5 * params.mass * params.omega**2 * r * r


def higgs_wavefunction(qn: tuple, params: PhysParams, r):
    """Unnormalized radial oscillator eigenfunction

    psi = r^|m'| (1/(1+lam r^2))^(1+|m'|/2+m w'/(2 hbar lam))
          * 2F1(-N, N+|m'|+1+m w'/(lam hbar); |m'|+1; lam r^2/(1+lam r^2)).

    At r = 0 this is 1 for m' = 0 and 0 otherwise.
    """
    lam = params.require_curvature()
    r = np.asarray(r, float)
    if np.any(r < 0):
        raise NegativeRadiusError(f"r must be nonnegative, got {np.min(r)}")
    N, mp = qn
    wp = params.omega_prime
    z = lam * r * r / (1 + lam * r * r)
    expo = 1 + abs(mp) / 2 + params.mass * wp / (2 * params.hbar * lam)
    b_par = N + abs(mp) + 1 + params.mass * wp / (lam * params.hbar)
    return (r ** abs(mp) * (1 / (1 + lam * r * r)) ** expo
            * hyp2f1_terminating(N, b_par, abs(mp) + 1, z))


def higgs_energy(qn: tuple, params: PhysParams) -> float:
    """Radial oscillator spectrum; lam = 0 reduces to the flat 2D oscillator
    hbar omega (2N + |m'| + 1)."""
    N, mp = qn
    n = 2 * radial_quantum_number(N) + abs(mp) + 1
    return params.hbar * params.omega_prime * n + params.lam * params.hbar**2 / (2 * params.mass) * n**2


def example1_branch_radius(l: float, params: PhysParams) -> float:
    """First sec singularity of the cos(l Theta) potential: the radius where
    (l/2) Upsilon(r) = pi/2.  Infinite for l <= 2 (Upsilon < pi/2 always)."""
    lam = params.require_curvature()
    if l <= 2:
        return math.inf
    return math.tan(math.pi / l) / math.sqrt(lam)


def qes_example1_potential(l: float, mprime_q: float, params: PhysParams, r):
    """Transplanted potential of the cos(l Theta) source model, term by term:

    V(r) = (hbar^2/8m r^2) [1 - 4 m'^2 + 2 lam r^2 (4 m'+3) + 4 lam r^2 (m'+1) delta]
         - (lam hbar^2/4m l^2) [10 + 8 m'(m'+2) + 8 (m'+1) delta
                + (l^2-4m'-2)(2m'+1) csc^2((l/2) U) + (l^2-4)(1+delta) sec^2((l/2) U)]
         + (2/l^2) m omega^2 [tan((l/2) U)/sqrt(lam)]^2,   U = Upsilon(r).

    The first bracket is evaluated in expanded form (the 1/r^2 piece split
    off exactly) so small r never suffers 0*inf cancellation.
    """
    lam = params.require_curvature()
    require_positive("l", l)
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"potential needs r > 0, got {np.min(r)}")
    d = params.delta
    u = 0.5 * l * upsilon_of_r(r, lam)
    su, cu = np.sin(u), np.cos(u)
    pole = (su == 0) | (cu == 0)
    if np.any(pole):
        raise SingularPointError(
            f"(l/2) Upsilon(r) hits a csc/sec pole at r = {r[pole].flat[0]}")
    hm = params.hbar**2 / (8 * params.mass)
    t1 = (hm * (1 - 4 * mprime_q**2) / (r * r)
          + hm * lam * (2 * (4 * mprime_q + 3) + 4 * (mprime_q + 1) * d))
    t2 = -(lam * params.hbar**2 / (4 * params.mass * l * l)) * (
        10 + 8 * mprime_q * (mprime_q + 2) + 8 * (mprime_q + 1) * d
        + (l * l - 4 * mprime_q - 2) * (2 * mprime_q + 1) / (su * su)
        + (l * l - 4) * (1 + d) / (cu * cu))
    t3 = (2 / (l * l)) * params.mass * params.omega**2 * (np.tan(u) / math.sqrt(lam))**2
    return t1 + t2 + t3


def qes_example1_groundstate(l: float, mprime_q: float, params: PhysParams, r):
    """Unnormalized channel-m'_Q ground state of the cos(l Theta) family,

    psi0 = (lam r^2)^(-1/4) (1+lam r^2)^(-1/2)
           [tan((l/2) U)]^(gamma/(lam l^2)) [sin(l U)]^(beta/(lam l^2)).

    Only defined on the principal branch (l/2) Upsilon in (0, pi/2).
    """
    lam = params.require_curvature()
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"ground state needs r > 0, got {np.min(r)}")
    spec = QesSpec.example1(l, mprime_q, params)
    u = upsilon_of_r(r, lam)
    off_branch = ~((0 < 0.5 * l * u) & (0.5 * l * u < math.pi / 2))
    if np.any(off_branch):
        raise SingularPointError(
            f"r = {r[off_branch].flat[0]} lies outside the principal branch "
            f"(l/2) Upsilon in (0, pi/2)")
    ll2 = lam * l * l
    return ((lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5
            * np.tan(0.5 * l * u) ** (spec.gamma / ll2)
            * np.sin(l * u) ** (spec.beta / ll2))


def qes_example2_potential(mprime_q: float, params: PhysParams, r):
    """Transplanted potential of the sqrt(lam) x source model:

    V(r) = (2 m omega^2/lam) (sech U - tanh U)^2
         + (hbar^2/8m r^2) [1 + 2 lam r^2 - 4 m'^2 (1 + lam r^2)]
         + (lam hbar^2/2m) { m'(5m' - 3 delta) sech^2 U
             + [-2 + 2m'(5+4m') - 5 delta] sech U tanh U
             + [6 + 5m'(2+m') + 5(1+m') delta] tanh^2 U },   U = Upsilon(r).

    Smooth for all r > 0 (the hyperbolic factors take the bounded argument
    U < pi/2); the middle bracket is evaluated in expanded form.
    """
    lam = params.require_curvature()
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"potential needs r > 0, got {np.min(r)}")
    d = params.delta
    u = upsilon_of_r(r, lam)
    s = 1 / np.cosh(u)
    t = np.tanh(u)
    mq = mprime_q
    t1 = 2 * params.mass * params.omega**2 / lam * (s - t) ** 2
    hm = params.hbar**2 / (8 * params.mass)
    t2 = hm * (1 - 4 * mq * mq) / (r * r) + hm * lam * (2 - 4 * mq * mq)
    t3 = lam * params.hbar**2 / (2 * params.mass) * (
        mq * (5 * mq - 3 * d) * s * s
        + (-2 + 2 * mq * (5 + 4 * mq) - 5 * d) * s * t
        + (6 + 5 * mq * (2 + mq) + 5 * (1 + mq) * d) * t * t)
    return t1 + t2 + t3


def qes_example2_groundstate(mprime_q: float, params: PhysParams, r):
    """Unnormalized channel-m'_Q ground state of the sqrt(lam) x family:

    psi0 = (lam r^2)^(-1/4) (1+lam r^2)^(-1/2) [sech U]^(beta/lam)
           * exp(-(gamma/lam) gd(U)).

    Diverges mildly (r^(-1/2)) at the origin; the weighted norm with
    w(r) = r stays finite.
    """
    lam = params.require_curvature()
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"ground state needs r > 0, got {np.min(r)}")
    spec = QesSpec.example2(mprime_q, params)
    u = upsilon_of_r(r, lam)
    return ((lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5
            * np.cosh(u) ** (-spec.beta / lam)
            * np.exp(-(spec.gamma / lam) * gudermannian(u)))


def qes_potential(mprime_q: float, params: PhysParams, r, l: float | None = None):
    """Transplanted potential of the cos(l Theta) family for a number l, of
    the sqrt(lam) x family for l = None."""
    if l is None:
        return qes_example2_potential(mprime_q, params, r)
    return qes_example1_potential(l, mprime_q, params, r)


def qes_groundstate(mprime_q: float, params: PhysParams, r, l: float | None = None):
    """Unnormalized channel-m'_Q ground state of the cos(l Theta) family
    for a number l, of the sqrt(lam) x family for l = None."""
    if l is None:
        return qes_example2_groundstate(mprime_q, params, r)
    return qes_example1_groundstate(l, mprime_q, params, r)
