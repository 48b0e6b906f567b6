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

The line operator is solved in the radial gauge, for u = x^(-1/2) phi,
the paper's g(r) ~ (lam r^2)^(-1/4) on the line.  The operator on u has
the triple (p2, p1 + p2/x, p0 + p1/(2x) - p2/(4x^2)) and the weight x w,
and the same rule gives

  p~ = x p,   w~ = x w,   q~ = x q - p'/2 + p/(4x),   p' = -w p1.

The 1/x^2 parts of V and p2/(4x^2) cancel, so the origin exponent falls
from 1/2 + |m'_Q| to |m'_Q|, as on the radial side, and the double
indicial root of m'_Q = 0 leaves no x^(1/2) log x solution, whose h^2 log h
error the Richardson pair could not remove.  The mass w~ u^2 = w phi^2 is
unchanged.  numerics-oracle/self-adjointness-certificates checks p'/w =
-p1 on both built problems, with the gauged drift p1 + p2/x for the line.

The oscillator channel and the channels of every QesSpec solve the radial
problem in the polar angle chi = arctan(sqrt(lam) r).  The substitution
p -> p/r', q -> q r', w -> w r' leaves the eigenvalues untouched, maps the
infinite tail onto the compact interval (0, pi/2), and turns both endpoints into
power-law corners the profile-corrected scheme handles at second order.
A grid closed by a power profile ends at the profile's singular point: no
face or Gauss node comes closer than h/2 to it.  Endpoint exponents used
below are indicial roots of the operators:

  radial at r=0:            psi ~ r^|m'|
  oscillator at the equator: psi ~ (pi/2 - chi)^(2 + m w'/(hbar lam))
  line model at x=0:         u ~ x^|m'|
  line model at the tan pole: u ~ (x*-x)^((1+delta)/2)
  QES channel m' = m'_Q:     both ends limit-circle; closed by the ground state
                             itself, crs.log_groundstate
  other QES channels:        the closed form's root at the far end, and
                             sqrt(s0^2 + m'^2 - m'_Q^2) from its origin root s0,
                             or a Dirichlet wall (None) where that is complex

richardson_spectrum, the one Richardson protocol of the higgs and crs spectra,
builds and solves its problem at PhysParams.canonical (hbar = 1, m = 1/2, lam =
1, omega = nu = 2 m omega/(hbar lam)), where the spectrum depends on nu alone,
and returns the levels times the unit lam hbar^2/2m.  The builders themselves,
and the QES channels, take physical parameters as given.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .crs import QesSpec, crs_operator_coefficients, crs_potential_special, log_groundstate, \
    x_pole
from .higgs import higgs_radial_leading, higgs_radial_zeroth, oscillator_potential, \
    qes_branch_radius, qes_potential
from .numerics import EndpointRule, Grid1D, SturmLiouvilleProblem, richardson_eigenvalues
from .params import PhysParams


def _self_adjoint(p2: Callable, p0: Callable, V: Callable, w: Callable, grid: Grid1D,
                  bc) -> SturmLiouvilleProblem:
    """The self-adjoint form of the operator with leading and zeroth
    coefficients p2(t) and p0(t), potential V and weight w: p reads p2
    only, and qw takes q and w from one w(t), one V(t) and one p0(t)."""
    def qw(t):
        wt = w(t)
        return wt * (V(t) + p0(t)), wt

    return SturmLiouvilleProblem(lambda t: -w(t) * p2(t), qw, grid, bc)


def higgs_radial_problem(mprime: int | float, params: PhysParams, V: Callable,
                         grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Radial-channel problem in the planar coordinate r."""
    return _self_adjoint(lambda r: higgs_radial_leading(params, r),
                         lambda r: higgs_radial_zeroth(mprime, params, r), V,
                         lambda r: np.asarray(r, float), grid, bc)


def _higgs_polar_problem(mprime: int | float, params: PhysParams, V: Callable,
                        grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Radial-channel problem rewritten in chi = arctan(sqrt(lam) r): the
    planar coefficients composed with r(chi)."""
    lam = params.require_curvature()
    sq = math.sqrt(lam)
    planar = higgs_radial_problem(mprime, params, V, grid, bc)

    def frame(c):
        """r(chi) and dr/dchi."""
        return np.tan(c) / sq, 1.0 / (sq * np.cos(c) ** 2)

    def p(c):
        r, drdc = frame(c)
        return planar.p(r) / drdc

    def qw(c):
        r, drdc = frame(c)
        q, w = planar.qw(r)
        return q * drdc, w * drdc

    return SturmLiouvilleProblem(p, qw, grid, bc)


def crs_problem(params: PhysParams, V: Callable, grid: Grid1D, bc) -> SturmLiouvilleProblem:
    """Line-model problem in x for u = x^(-1/2) phi, the radial gauge of the
    module docstring: the operator on u has the triple (p2, p1 + p2/x, p0
    + p1/(2x) - p2/(4x^2)) and the weight x w."""
    lam = params.require_curvature()

    def gauged_p0(x):
        p2, p1, p0 = crs_operator_coefficients(params, x)
        return p0 + p1 / (2 * x) - p2 / (4 * x * x)

    return _self_adjoint(lambda x: crs_operator_coefficients(params, x)[0], gauged_p0, V,
                         lambda x: x / np.sqrt(1 + lam * np.asarray(x, float) ** 2), grid, bc)


def higgs_oscillator_problem(mprime: int, params: PhysParams,
                             n: int) -> SturmLiouvilleProblem:
    """Oscillator channel in the polar frame on (0, pi/2), with power
    closures at the origin and at the equator."""
    lam = params.require_curvature()
    sig_eq = 2 + params.mass * params.omega_prime / (params.hbar * lam)
    bc = (EndpointRule(abs(mprime), 0.0), EndpointRule(sig_eq, math.pi / 2))
    return _higgs_polar_problem(mprime, params, lambda r: oscillator_potential(params, r),
                               Grid1D(0.0, math.pi / 2, n), bc)


def crs_natural_problem(mprime_q: float, params: PhysParams,
                        n: int) -> SturmLiouvilleProblem:
    """Special line model on its natural branch (0, x*), x* the first tan
    pole, with power closures at the origin and at the pole."""
    xs = x_pole(params)
    bc = (EndpointRule(abs(mprime_q), 0.0), EndpointRule((1 + params.delta) / 2, xs))
    return crs_problem(params, lambda x: crs_potential_special(mprime_q, params, x),
                       Grid1D(0.0, xs, n), bc)


def crs_wide_problem(mprime_q: float, params: PhysParams, n: int,
                     end: float = 10.0) -> SturmLiouvilleProblem:
    """Special line model on the wide domain (0, end) across the tan pole x*,
    with a power closure at the origin and a Dirichlet wall at end."""
    bc = (EndpointRule(abs(mprime_q), 0.0), None)
    return crs_problem(params, lambda x: crs_potential_special(mprime_q, params, x),
                       Grid1D(0.0, end, n), bc)


def richardson_spectrum(build: Callable, mprime: float, params: PhysParams, k: int,
                        n: int) -> np.ndarray:
    """The lowest k levels of build(mprime, canonical, n), solved in the canonical
    units of PhysParams.canonical: unit times its Richardson-extrapolated eigenvalues."""
    canonical, unit = params.canonical()
    extrap, *_ = richardson_eigenvalues(build(mprime, canonical, n), k)
    return unit * extrap


def crs_spectrum_numeric_wide(mprime_q: float, params: PhysParams,
                              k: int) -> tuple[list[float], list[float]]:
    """The lowest k levels of crs_wide_problem on (0, 10) in x, (0, 10 sqrt(lam)) in the
    canonical x of PhysParams.canonical, at n = 4000/8001, returned as (first_well,
    interlopers): a state lies in the first well when more than 0.9 of its M-weighted
    mass lies left of x*, read from the pair's coarse unit vectors u of the standard
    form, whose u^2 is that mass (m v^2 h for the back-transformed v)."""
    canonical, unit = params.canonical()
    prob = crs_wide_problem(mprime_q, canonical, 4000, 10 * math.sqrt(params.lam))
    extrap, _, _, mass = richardson_eigenvalues(prob, k)
    levels = unit * extrap
    mass *= mass
    in_well = np.sum(mass[:, prob.grid.points() < x_pole(canonical)], axis=1) \
        / np.sum(mass, axis=1) > 0.9
    return levels[in_well].tolist(), levels[~in_well].tolist()


def qes_channel_problem(mprime: float, spec: QesSpec, params: PhysParams,
                        n: int) -> SturmLiouvilleProblem:
    """Radial problem of one angular channel of the potential transplanted from spec.

    Every channel is solved in chi on (0, b), b = min(t0/u, pi/2) from
    spec.branch: the first zero of X_Theta (the sec pole pi/l of cos(l Theta))
    or the equator.  The solvable channel m' = m'_Q is closed at both ends by
    its ground state itself, log psi0 = log phi0 - log(T (1 + T^2))/2 in chi,
    T = tan chi, from crs.log_groundstate, with QesSpec.end_profile's
    residues grading the corner quadrature.  The other channels take the
    residue's bare power at the far end, which no channel changes.  Channel
    m' differs from m'_Q by (m'^2 - m'_Q^2)/r^2, so at the origin it takes the
    principal root s = sqrt(s0^2 + m'^2 - m'_Q^2) of the closed form's residue
    s0, or, where s is complex (fall to the center), a plain Dirichlet wall at
    chi = 1e-3; its cutoff-dominated ground state shows no closed form.
    """
    qes_branch_radius(spec, params)     # refuses an A < 0 spec with no zero to end on
    u, t0 = spec.branch(params)
    b, mprime_q = min(t0 / u, math.pi / 2), spec.mprime_q
    s0, sb = spec.end_profile(params, 0.0), spec.end_profile(params, b)
    if mprime == mprime_q:
        def closed_form(c):
            T = np.tan(c)
            log_phi, slope = log_groundstate(spec, params, c)
            return log_phi - 0.5 * np.log(T * (1 + T * T)), slope - (1 + 3 * T * T) / (2 * T)

        a, left, right = 0.0, EndpointRule(s0, 0.0, closed_form), EndpointRule(sb, b, closed_form)
    else:
        s2 = s0 * s0 + mprime * mprime - mprime_q * mprime_q
        a, left = (0.0, EndpointRule(math.sqrt(s2), 0.0)) if s2 >= 0 else (1e-3, None)
        right = EndpointRule(sb, b)
    return _higgs_polar_problem(mprime, params, lambda r: qes_potential(spec, params, r),
                                Grid1D(a, b, n), (left, right))


def qes_rayleigh_problem(spec: QesSpec, params: PhysParams) -> SturmLiouvilleProblem:
    """Channel m' = m'_Q of the potential transplanted from spec on 2000 points between
    Dirichlet walls clear of both endpoint singularities, where the Rayleigh quotient of
    the closed-form ground state is taken: [min(0.1 s, r_b/8), min(0.9 r_b, 25 s)], r_b =
    qes_branch_radius (inf where X_Theta has no zero) and s = 1/sqrt(max(lam, 1)), the
    scale to which the state shrinks above lam = 1."""
    s = 1 / math.sqrt(max(params.require_curvature(), 1.0))
    rb = qes_branch_radius(spec, params)
    return higgs_radial_problem(spec.mprime_q, params, lambda r: qes_potential(spec, params, r),
                                Grid1D(min(0.1 * s, rb / 8), min(0.9 * rb, 25.0 * s), 2000),
                                (None, None))
