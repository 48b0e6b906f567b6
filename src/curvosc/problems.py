"""Sturm-Liouville problem builders and tuned solve protocols.

Self-adjoint forms (certified by tests against the raw coefficient
functions):

  radial operator:  weight w(r) = r, p(r) = -r p2(r), q(r) = r (V + p0(r))
                    with (p2, p1, p0) from higgs_radial_coefficients,
                    since (Q - P')/P = 1/r for P = (1+lam r^2)^2,
                    Q = (1+lam r^2)(1+5 lam r^2)/r;
  line operator:    weight w(x) = (1+lam x^2)^(-1/2),
                    p(x) = (hbar^2/2m) (1+lam x^2)^(1/2),
                    since (w K)'/w = lam x for K = 1+lam x^2.

The q coefficient is w times the potential plus, for the radial operator,
w times the zeroth-order kinetic term.

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

from .crs import QesSpec, crs_potential_special, x_pole
from .higgs import (
    RadialChannel,
    example1_branch_radius,
    higgs_radial_coefficients,
    qes_example1_potential,
    qes_example2_potential,
)
from .numerics import EndpointRule, Grid1D, SturmLiouvilleProblem, lowest_eigenvalues, \
    richardson_eigenvalues
from .params import PhysParams

__all__ = [
    "higgs_radial_problem",
    "higgs_polar_problem",
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


def _radial_pqw(mprime: int | float, params: PhysParams, V: Callable):
    ch = RadialChannel(mprime, params)

    def p(r):
        return -r * higgs_radial_coefficients(ch, r)[0]

    def q(r):
        return r * (V(r) + higgs_radial_coefficients(ch, r)[2])

    def w(r):
        return np.asarray(r, float)

    return p, q, w


def higgs_radial_problem(mprime: int | float, params: PhysParams, V: Callable,
                         grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Radial-channel problem in the planar coordinate r."""
    p, q, w = _radial_pqw(mprime, params, V)
    return SturmLiouvilleProblem(p, q, w, grid, bc)


def higgs_polar_problem(mprime: int | float, params: PhysParams, V: Callable,
                        grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Radial-channel problem rewritten in chi = arctan(sqrt(lam) r)."""
    lam = params.require_curvature()
    sq = math.sqrt(lam)
    p, q, w = _radial_pqw(mprime, params, V)

    def r_of(c):
        return np.tan(c) / sq

    def drdc(c):
        return 1.0 / (sq * np.cos(c) ** 2)

    return SturmLiouvilleProblem(
        lambda c: p(r_of(c)) / drdc(c),
        lambda c: q(r_of(c)) * drdc(c),
        lambda c: w(r_of(c)) * drdc(c),
        grid, bc)


def crs_problem(params: PhysParams, V: Callable, grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Line-model problem in x."""
    lam = params.require_curvature()
    kin = params.hbar**2 / (2 * params.mass)

    def p(x):
        return kin * np.sqrt(1 + lam * np.asarray(x, float) ** 2)

    def w(x):
        return 1.0 / np.sqrt(1 + lam * np.asarray(x, float) ** 2)

    def q(x):
        return w(x) * V(x)

    return SturmLiouvilleProblem(p, q, w, grid, bc)


def higgs_spectrum_numeric(mprime: int, params: PhysParams, k: int,
                           n: int = 4000) -> np.ndarray:
    """Richardson-extrapolated lowest k oscillator-channel eigenvalues.

    Polar frame on (0, pi/2 - 1e-6) with power closures at both corners.
    Measured accuracy ~1e-9 relative for lam in [0.1, 1], k <= 3.
    """
    lam = params.require_curvature()
    sig_eq = 2 + params.mass * params.omega_prime / (params.hbar * lam)

    def V(r):
        return 0.5 * params.mass * params.omega**2 * np.asarray(r, float) ** 2

    grid = Grid1D(0.0, math.pi / 2 - 1e-6, n)
    bc = (EndpointRule.power(abs(mprime), 0.0),
          EndpointRule.power(sig_eq, math.pi / 2))
    prob = higgs_polar_problem(mprime, params, V, grid, bc)
    extrap, _, _ = richardson_eigenvalues(prob, k)
    return extrap


def crs_natural_problem(mprime_q: float, params: PhysParams,
                        n: int) -> SturmLiouvilleProblem:
    """Special line model on its natural branch (0, x*), x* the first tan
    pole, with power closures at the origin and at the wall."""
    xs = x_pole(params)
    sig_wall = (1 + params.delta) / 2
    grid = Grid1D(0.0, xs - 1e-4, n)
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


def crs_spectrum_numeric_wide(mprime_q: float, params: PhysParams, k: int,
                              b: float = 10.0, n: int = 16000):
    """Single-grid solve of the special model on the wide domain [1e-4, b],
    which straddles the tan pole at x*.  Returns (first_well, interlopers):
    eigenvalues classified by the weighted mass fraction left of x*."""
    xs = x_pole(params)
    grid = Grid1D(1e-4, b, n)
    bc = (EndpointRule.power(0.5 + abs(mprime_q), 0.0), EndpointRule.dirichlet())
    prob = crs_problem(params, lambda x: crs_potential_special(x, mprime_q, params),
                       grid, bc)
    res = lowest_eigenvalues(prob, k)
    x = grid.points()
    wi = np.asarray(prob.w(x), float)
    mask = x < xs
    first_well, interlopers = [], []
    for j, E in enumerate(res.eigenvalues):
        v = res.eigenvectors[:, j]
        frac = float(np.sum(wi[mask] * v[mask] ** 2) / np.sum(wi * v * v))
        (first_well if frac > 0.9 else interlopers).append(float(E))
    return first_well, interlopers


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
        f2 = spec.gamma**2 / (2 * lam) - (lam + spec.beta) / 2
        grid = Grid1D(0.0, 60.0, n)
        left = EndpointRule.power(-0.5, 0.0, series=(f1, f2), tie=True)
    else:
        grid = Grid1D(0.0, 60.0, n)
        left = EndpointRule.power(s.real, 0.0)
    return higgs_radial_problem(mprime, params, V, grid, (left, right))


def qes_rayleigh_problem(example: int, mprime_q: float, params: PhysParams,
                         l: float | None = None, n: int = 2000) -> SturmLiouvilleProblem:
    """Channel m' = m'_Q of a transplanted potential between Dirichlet walls
    clear of both endpoint singularities, [0.1, 0.9 r_b] for example 1 (r_b
    the first sec pole) and [0.1, 25] for example 2: the problem on which
    the Rayleigh quotient of the closed-form ground state is taken."""
    V = _qes_potential(example, mprime_q, params, l)
    b = 0.9 * example1_branch_radius(l, params) if example == 1 else 25.0
    return higgs_radial_problem(mprime_q, params, V, Grid1D(0.1, b, n),
                                (EndpointRule.dirichlet(),) * 2)
