"""Sturm-Liouville problem builders and tuned solve protocols.

Each model module owns its operator as a coefficient triple (p2, p1, p0)
of p2 psi'' + p1 psi' + (p0 + V) psi = E psi: higgs_radial_coefficients
for the radial channel, crs_operator_coefficients (p0 = 0) for the line.
One rule turns a triple into the self-adjoint form -(p psi')' + q psi =
E w psi:

  p = -w p2,   q = w (V + p0),

valid for the weight w with (w p2)' = w p1.  Each operator states its
weight once, here:

  radial operator:  w(r) = r,                  since (Q - P')/P = 1/r for
                    P = (1+lam r^2)^2, Q = (1+lam r^2)(1+5 lam r^2)/r;
  line operator:    w(x) = (1+lam x^2)^(-1/2), since (w K)'/w = lam x for
                    K = 1+lam x^2.

numerics-oracle/self-adjointness-certificates checks p'/w = -p1 on both
built problems.

The spectrum protocols solve the radial problem in the polar angle
chi = arctan(sqrt(lam) r).  The substitution p -> p/r', q -> q r',
w -> w r' leaves the eigenvalues untouched, maps the infinite tail onto
the compact interval (0, pi/2), and turns both endpoints into power-law
corners the profile-corrected scheme handles at second order.  Endpoint
exponents used below are indicial roots of the respective operators:

  radial at r=0:            psi ~ r^|m'|
  oscillator at the equator: psi ~ r^-(2 + m w'/(hbar lam)),
                             i.e. (pi/2 - chi)^(2 + m w'/(hbar lam))
  line model at x=0:         phi ~ x^(1/2+|m'|)
  line model at the tan pole: phi ~ (x*-x)^((1+delta)/2)
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .crs import QesSpec, crs_operator_coefficients, crs_potential_special, x_pole
from .errors import ParameterOverflowError
from .higgs import (
    RadialChannel,
    example1_branch_radius,
    higgs_radial_coefficients,
    qes_example1_potential,
    qes_example2_potential,
)
from .numerics import EndpointRule, Grid1D, SturmLiouvilleProblem, lowest_eigenpairs, \
    richardson_eigenvalues
from .params import PhysParams

__all__ = [
    "higgs_radial_problem",
    "higgs_polar_problem",
    "higgs_oscillator_problem",
    "crs_problem",
    "crs_natural_problem",
    "higgs_spectrum_numeric",
    "crs_spectrum_numeric",
    "crs_spectrum_numeric_wide",
    "qes_channel_problem",
    "qes_rayleigh_problem",
    "example1_indicial_exponent",
    "example2_indicial_exponent",
]

_CRS_WALL = 1e-4    # distance of the natural-branch wall from the tan pole x* at lam <= 1


def _self_adjoint(coeffs: Callable, V: Callable, w: Callable, grid: Grid1D,
                  bc) -> SturmLiouvilleProblem:
    """The self-adjoint form of the operator with coefficient triple
    coeffs(t) = (p2, p1, p0), potential V and weight w."""
    return SturmLiouvilleProblem(lambda t: -w(t) * coeffs(t)[0],
                                 lambda t: w(t) * (V(t) + coeffs(t)[2]),
                                 w, grid, bc)


def higgs_radial_problem(mprime: int | float, params: PhysParams, V: Callable,
                         grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Radial-channel problem in the planar coordinate r."""
    ch = RadialChannel(mprime, params)
    return _self_adjoint(lambda r: higgs_radial_coefficients(ch, r), V,
                         lambda r: np.asarray(r, float), grid, bc)


def higgs_polar_problem(mprime: int | float, params: PhysParams, V: Callable,
                        grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Radial-channel problem rewritten in chi = arctan(sqrt(lam) r): the
    planar coefficients composed with r(chi)."""
    lam = params.require_curvature()
    sq = math.sqrt(lam)
    planar = higgs_radial_problem(mprime, params, V, grid, bc)

    def r_of(c):
        return np.tan(c) / sq

    def drdc(c):
        return 1.0 / (sq * np.cos(c) ** 2)

    return SturmLiouvilleProblem(
        lambda c: planar.p(r_of(c)) / drdc(c),
        lambda c: planar.q(r_of(c)) * drdc(c),
        lambda c: planar.w(r_of(c)) * drdc(c),
        grid, bc)


def crs_problem(params: PhysParams, V: Callable, grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Line-model problem in x."""
    lam = params.require_curvature()
    return _self_adjoint(lambda x: crs_operator_coefficients(params, x), V,
                         lambda x: 1.0 / np.sqrt(1 + lam * np.asarray(x, float) ** 2),
                         grid, bc)


def higgs_oscillator_problem(mprime: int, params: PhysParams,
                             n: int) -> SturmLiouvilleProblem:
    """Oscillator channel in the polar frame on (0, pi/2 - 1e-6), with
    power closures at the origin and at the equator."""
    lam = params.require_curvature()
    sig_eq = 2 + params.mass * params.omega_prime / (params.hbar * lam)

    def V(r):
        return 0.5 * params.mass * params.omega**2 * np.asarray(r, float) ** 2

    grid = Grid1D(0.0, math.pi / 2 - 1e-6, n)
    bc = (EndpointRule.power(abs(mprime), 0.0),
          EndpointRule.power(sig_eq, math.pi / 2))
    return higgs_polar_problem(mprime, params, V, grid, bc)


def higgs_spectrum_numeric(mprime: int, params: PhysParams, k: int,
                           n: int = 4000) -> np.ndarray:
    """Richardson-extrapolated lowest k oscillator-channel eigenvalues.
    Measured accuracy 7e-12-1.1e-10 relative for lam in [0.1, 1], k <= 3."""
    extrap, _, _ = richardson_eigenvalues(higgs_oscillator_problem(mprime, params, n), k)
    return extrap


def crs_natural_problem(mprime_q: float, params: PhysParams,
                        n: int) -> SturmLiouvilleProblem:
    """Special line model on its natural branch (0, x*), x* the first tan
    pole, with power closures at the origin and at the wall.  The wall lies
    _CRS_WALL below x* for lam <= 1; above, the cutoff shrinks with x* =
    sinh(pi/2)/sqrt(lam), so it keeps its share of the branch."""
    xs = x_pole(params)
    sig_wall = (1 + params.delta) / 2
    grid = Grid1D(0.0, xs - _CRS_WALL / math.sqrt(max(params.lam, 1.0)), n)
    bc = (EndpointRule.power(0.5 + abs(mprime_q), 0.0),
          EndpointRule.power(sig_wall, xs))
    return crs_problem(params, lambda x: crs_potential_special(x, mprime_q, params),
                       grid, bc)


def crs_spectrum_numeric(mprime_q: float, params: PhysParams, k: int,
                         n: int = 4000) -> np.ndarray:
    """Richardson-extrapolated spectrum of the special line model on its
    natural branch."""
    extrap, _, _ = richardson_eigenvalues(crs_natural_problem(mprime_q, params, n), k)
    return extrap


def crs_spectrum_numeric_wide(mprime_q: float, params: PhysParams, k: int):
    """Single-grid solve of the special model on the wide domain [1e-4, 10]
    (n = 16000), which straddles the tan pole at x*.  Returns (first_well,
    interlopers): eigenvalues classified by the weighted mass fraction left
    of x*."""
    xs = x_pole(params)
    grid = Grid1D(1e-4, 10.0, 16000)
    bc = (EndpointRule.power(0.5 + abs(mprime_q), 0.0), EndpointRule.dirichlet())
    prob = crs_problem(params, lambda x: crs_potential_special(x, mprime_q, params),
                       grid, bc)
    res = lowest_eigenpairs(prob, k)
    x = grid.points()
    mass = np.asarray(prob.w(x), float)[:, None] * res.eigenvectors ** 2
    in_well = np.sum(mass[x < xs], axis=0) / np.sum(mass, axis=0) > 0.9
    return res.eigenvalues[in_well].tolist(), res.eigenvalues[~in_well].tolist()


def example1_indicial_exponent(l: float, mprime_q: float, mprime: float) -> complex:
    """Origin indicial exponent of the cos(l Theta) radial channel mprime:

    s^2 = 1/4 + m'^2 - m'_Q^2 - 2 (l^2 - 4 m'_Q - 2)(2 m'_Q + 1)/l^4.

    Complex result means the channel falls to the center (supercritically
    attractive origin); that is exactly the regime where no closed-form
    state exists.
    """
    s2 = 0.25 + mprime**2 - mprime_q**2 \
        - 2 * (l * l - 4 * mprime_q - 2) * (2 * mprime_q + 1) / l**4
    return complex(s2) ** 0.5


def example2_indicial_exponent(mprime_q: float, mprime: float) -> complex:
    """Origin indicial exponent of the sqrt(lam) x radial channel mprime:
    s^2 = 1/4 + m'^2 - m'_Q^2."""
    return complex(0.25 + mprime**2 - mprime_q**2) ** 0.5


def _qes_potential(example: int, mprime_q: float, params: PhysParams,
                   l: float | None) -> Callable:
    """V(r) of the transplanted family `example` (1: cos(l Theta), needs l;
    2: sqrt(lam) x)."""
    if example == 1:
        if l is None:
            raise ValueError("example 1 needs l")
        return lambda r: qes_example1_potential(l, mprime_q, params, r)
    if example == 2:
        return lambda r: qes_example2_potential(mprime_q, params, r)
    raise ValueError(f"unknown example {example}")


def qes_channel_problem(example: int, mprime: float, mprime_q: float,
                        params: PhysParams, n: int,
                        l: float | None = None) -> SturmLiouvilleProblem:
    """Radial problem of one angular channel of a transplanted potential.

    example = 1 needs l; the domain ends just inside the first sec pole.
    example = 2 runs to b = 60 with the x^(-3/2) equator closure.  Channels
    whose origin exponent is complex (fall to the center) get a plain
    Dirichlet wall at a small cutoff instead of a profile closure; their
    ground state is cutoff-dominated, which is the expected signature of a
    channel with no closed-form solution.
    """
    lam = params.require_curvature()
    V = _qes_potential(example, mprime_q, params, l)
    if example == 1:
        spec = QesSpec.example1(l, mprime_q, params)
        rb = example1_branch_radius(l, params)
        if not math.isfinite(rb):
            raise ValueError("channel solver expects l > 2 (finite branch)")
        s = example1_indicial_exponent(l, mprime_q, mprime)
        sig_wall = (spec.beta - spec.gamma) / (lam * l * l)
        right = EndpointRule.power(sig_wall, rb)
        if s.imag != 0:
            grid = Grid1D(1e-3, rb - 1e-6, n)
            left = EndpointRule.dirichlet()
        else:
            grid = Grid1D(0.0, rb - 1e-6, n)
            left = EndpointRule.power(s.real, 0.0)
        return higgs_radial_problem(mprime, params, V, grid, (left, right))
    spec = QesSpec.example2(mprime_q, params)
    s = example2_indicial_exponent(mprime_q, mprime)
    right = EndpointRule.decay(1.5)
    if s.imag != 0:
        grid = Grid1D(1e-3, 60.0, n)
        left = EndpointRule.dirichlet()
    elif mprime == mprime_q:
        # resonant pair {-1/2, +1/2}: the admixture ratio is genuine
        # boundary data; take it from the local expansion of the
        # closed-form family and pin it with the ratio tie
        f1 = -spec.gamma / math.sqrt(lam)
        f2 = spec.gamma * spec.gamma / (2 * lam) - (lam + spec.beta) / 2
        if not math.isfinite(f2):
            raise ParameterOverflowError(f"lam = {lam:g} overflows the origin series")
        grid = Grid1D(0.0, 60.0, n)
        left = EndpointRule.power(-0.5, 0.0, series=(f1, f2), tie=True)
    else:
        grid = Grid1D(0.0, 60.0, n)
        left = EndpointRule.power(s.real, 0.0)
    return higgs_radial_problem(mprime, params, V, grid, (left, right))


def qes_rayleigh_problem(example: int, mprime_q: float, params: PhysParams,
                         l: float | None = None) -> SturmLiouvilleProblem:
    """Channel m' = m'_Q of a transplanted potential between Dirichlet walls
    clear of both endpoint singularities, [0.1, 0.9 r_b] for example 1 (r_b
    the first sec pole) and [0.1, 25] for example 2, on 2000 points: the
    problem on which the Rayleigh quotient of the closed-form ground state
    is taken."""
    V = _qes_potential(example, mprime_q, params, l)
    b = 0.9 * example1_branch_radius(l, params) if example == 1 else 25.0
    return higgs_radial_problem(mprime_q, params, V, Grid1D(0.1, b, 2000),
                                (EndpointRule.dirichlet(),) * 2)
