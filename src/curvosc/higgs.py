"""The radial oscillator on a 2D constant-curvature sphere and the
quasi-exactly solvable potentials obtained from the nonlinear-oscillator
construction.

After separating Psi(r, theta) = e^{i m' theta} psi(r), the radial
eigenproblem is

    -(hbar^2/2m) [ (1+lam r^2)^2 psi'' + (1+lam r^2)(1+5 lam r^2)/r psi'
                   + (3 lam - lam m'^2 + (15/4) lam^2 r^2 - m'^2/r^2) psi ]
    + V(r) psi = E psi.

For V = (1/2) m omega^2 r^2 the eigenpairs are hypergeometric, and the
spectrum is the line model's: crs.oscillator_energy states both.  Every QesSpec
transplants through one map: qes_potential(spec, params, r) is its potential,
solvable only in the single angular channel m' = m'_Q, and
qes_groundstate(spec, params, r) that channel's ground state.  The paper's
cos(l Theta) and sqrt(lam) x families are its example1/example2 points.

Every r-dependent formula takes a float or an ndarray of radii and
returns a scalar or an array of the same shape; it raises if any
requested point is singular.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfiniteBranchError, NegativeRadiusError, SingularPointError
from .params import PhysParams, finite_square
from .special_functions import hyp2f1_terminating, radial_quantum_number, upsilon_of_r
from .crs import QesSpec, log_groundstate, potential_theta
from .transform import curvature_shift


def higgs_radial_coefficients(mprime: int | float, params: PhysParams, r):
    """(p2, p1, p0) of angular channel m' with the -hbar^2/2m factor
    applied, so the eigenproblem reads p2 psi'' + p1 psi' + p0 psi + V psi
    = E psi: higgs_radial_leading, p1 = -(hbar^2/2m) (1+lam r^2)(1+5 lam
    r^2)/r and higgs_radial_zeroth.  Singular at r = 0."""
    p0 = higgs_radial_zeroth(mprime, params, r)
    r = np.asarray(r, float)
    lam = params.lam
    K = 1 + lam * r * r
    return higgs_radial_leading(params, r), -params.kinetic * K * (1 + 5 * lam * r * r) / r, p0


def higgs_radial_leading(params: PhysParams, r):
    """p2 = -(hbar^2/2m) (1+lam r^2)^2, the same in every angular channel."""
    r = np.asarray(r, float)
    K = 1 + params.lam * r * r
    return -params.kinetic * K * K


def higgs_radial_zeroth(mprime: int | float, params: PhysParams, r):
    """p0 = -(hbar^2/2m) (3 lam - lam m'^2 + (15/4) lam^2 r^2 - m'^2/r^2) of
    angular channel m'.  Singular at r = 0."""
    r = np.asarray(r, float)
    if np.any(r == 0):
        raise SingularPointError("radial coefficients singular at r = 0")
    lam = params.lam
    lam2, mp2 = finite_square("lam", lam), finite_square("mprime", mprime)
    return -params.kinetic * (3 * lam - lam * mp2 + 3.75 * lam2 * r * r - mp2 / (r * r))


def oscillator_potential(params: PhysParams, r):
    """The oscillator potential (1/2) m omega^2 r^2."""
    r = np.asarray(r, float)
    return 0.5 * params.mass * finite_square("omega", params.omega) * r * r


def higgs_wavefunction(qn: tuple, params: PhysParams, r):
    """Unnormalized radial oscillator eigenfunction

    psi = r^|m'| (1/(1+lam r^2))^(1+|m'|/2+m w'/(2 hbar lam))
          * 2F1(-N, N+|m'|+1+m w'/(lam hbar); |m'|+1; lam r^2/(1+lam r^2)).

    At r = 0 this is 1 for m' = 0 and 0 otherwise.  The two powers are taken
    as one, exp(|m'| log r - expo log1p(lam r^2)): at large r and |m'| r^|m'|
    overflows where the second factor underflows, and at small lam 1/(1 + lam
    r^2) rounds to 1 while expo grows like 1/(2 lam).
    """
    lam = params.require_curvature()
    r = np.asarray(r, float)
    if np.any(r < 0):
        raise NegativeRadiusError(f"r must be nonnegative, got {np.min(r)}")
    N, mp = radial_quantum_number(qn[0]), qn[1]
    wp = params.omega_prime
    z = lam * r * r / (1 + lam * r * r)
    expo = 1 + abs(mp) / 2 + params.mass * wp / (2 * params.hbar * lam)
    b_par = N + abs(mp) + 1 + params.mass * wp / (lam * params.hbar)
    log_r = np.log(r, out=np.full(r.shape, -np.inf), where=r > 0) if mp else 0.0
    return (np.exp(abs(mp) * log_r - expo * np.log1p(lam * r * r))
            * hyp2f1_terminating(N, b_par, abs(mp) + 1, z))


def qes_branch_radius(spec: QesSpec, params: PhysParams) -> float:
    """Radius of the first zero of X_Theta below the equator, the transplanted potential's
    first sec pole, where its channel problems end: tan(pi/l)/sqrt(lam) for cos(l Theta).
    An A > 0 solution without one (sqrt(lam) x) ends at the equator: inf.  An A < 0 one
    without (cos(l Theta), 0 < l <= 2) has no pole to end on: InfiniteBranchError, whose
    input is l, as that branch depends on l alone."""
    u, t0 = spec.branch(params)
    if t0 / u < math.pi / 2:
        return math.tan(t0 / u) / math.sqrt(params.lam)
    if spec.A > 0:
        return math.inf
    raise InfiniteBranchError("X_Theta has no zero below the equator, so the channel has "
                              "no finite branch (cos(l Theta) needs l > 2)", ("l",))


def qes_potential(spec: QesSpec, params: PhysParams, r):
    """Potential transplanted from spec into channel m'_Q, crs.potential_theta at
    Theta = Upsilon(r) plus the map's curvature shift, for r > 0 where X_Theta does not
    vanish.  It grows as m omega^2/lam, so an omega without a finite square is named."""
    shift = curvature_shift(spec.mprime_q, params, r)
    finite_square("omega", params.omega)
    return potential_theta(spec, params, upsilon_of_r(r, params.lam)) + shift


def qes_groundstate(spec: QesSpec, params: PhysParams, r):
    """Unnormalized channel-m'_Q ground state of the potential transplanted from spec,

    psi0 = (lam r^2)^(-1/4) (1+lam r^2)^(-1/2) exp(log phi0(Upsilon(r))),

    with log phi0 the line ground state of crs.log_groundstate.  Defined for r > 0
    below the first zero of X_Theta.
    """
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"ground state needs r > 0, got {np.min(r)}")
    lam = params.lam
    log_phi, _ = log_groundstate(spec, params, upsilon_of_r(r, lam))
    return (lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5 * np.exp(log_phi)
