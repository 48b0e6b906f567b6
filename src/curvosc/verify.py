"""Verification suites: every analytic claim of the model modules checked
against the independent finite-difference oracle, plus the module-level
invariants.  The CLI `verify` command and the acceptance test module both
run these.

Each check records the measured number, the tolerance it was held to, and
a comparator; "report" entries are informational measurements that cannot
fail (used where the outcome itself is the deliverable, e.g. which
algebraic convention satisfies the eigen-equation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import crs, higgs, problems, transform
from .crs import QesSpec
from .numerics import (
    EndpointRule,
    Grid1D,
    SturmLiouvilleProblem,
    assemble,
    derivatives,
    lowest_eigenpairs,
    lowest_eigenvalues,
    rayleigh_quotient,
    residual_norm,
    richardson_eigenvalues,
)
from .params import PhysParams
from .special_functions import gudermannian, hyp2f1_terminating, theta_of_x, upsilon_of_r

__all__ = ["CheckResult", "SUITES", "run_suites", "build_report", "ALL_SUITE_NAMES"]

_WALLS = (EndpointRule.dirichlet(),) * 2


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    tolerance: float
    comparator: str = "<="
    detail: str = ""


def _check(suite, name, measured, tolerance, detail="", comparator="<="):
    if comparator == "<=":
        passed = measured <= tolerance
    elif comparator == ">":
        passed = measured > tolerance
    else:  # "report"
        passed = True
    return CheckResult(suite, name, bool(passed), float(measured), float(tolerance),
                       comparator, detail)


def _ratio_constancy(values: np.ndarray) -> float:
    """std/|mean| of a (possibly complex) ratio sequence."""
    mean = np.mean(values)
    return float(np.sqrt(np.mean(np.abs(values - mean) ** 2)) / abs(mean))


# ----------------------------------------------------------------------
# acceptance criterion 1: oscillator spectrum vs the discretized operator


def suite_higgs_spectrum() -> list[CheckResult]:
    out = []
    for lam in (0.1, 1.0):
        params = PhysParams(lam=lam)
        for mp in (0, 1, 2):
            exact = np.array([higgs.higgs_energy((N, mp), params) for N in range(3)])
            num = problems.higgs_spectrum_numeric(mp, params, 3, n=4000)
            rel = float(np.max(np.abs(num - exact) / exact))
            out.append(_check("higgs-spectrum", f"lam={lam}-mprime={mp}", rel, 1e-5,
                              detail="max rel err over N=0..2, Richardson n=4000/8001"))
    # reference measurement: the planar-coordinate recipe with plain
    # Dirichlet walls at [1e-4, 40]; reported to document why the polar
    # protocol is used instead
    params = PhysParams(lam=1.0)
    prob = problems.higgs_radial_problem(
        0, params, lambda r: higgs.oscillator_potential(params, r),
        Grid1D(1e-4, 40.0, 2000), _WALLS)
    extrap, _, _ = richardson_eigenvalues(prob, 3)
    exact = np.array([higgs.higgs_energy((N, 0), params) for N in range(3)])
    rel = float(np.max(np.abs(extrap - exact) / exact))
    out.append(_check("higgs-spectrum", "planar-dirichlet-reference", rel, math.inf,
                      comparator="report",
                      detail="Dirichlet walls at [1e-4, 40]: limited by domain "
                             "truncation and the m'=0 log layer"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 2: line-model spectrum, natural branch and wide domain


def suite_crs_spectrum() -> list[CheckResult]:
    out = []
    for lam in (0.1, 1.0):
        params = PhysParams(lam=lam)
        for mq in (0, 1, 2):
            exact = np.array([crs.crs_energy((N, mq), params) for N in range(3)])
            num = problems.crs_spectrum_numeric(mq, params, 3, n=4000)
            rel = float(np.max(np.abs(num - exact) / exact))
            out.append(_check("crs-spectrum", f"natural-lam={lam}-mprimeq={mq}", rel, 1e-5,
                              detail="domain (0, x*-1e-4), Richardson n=4000/8001"))
    params = PhysParams(lam=1.0)
    for mq in (0, 1, 2):
        exact = [crs.crs_energy((N, mq), params) for N in range(3)]
        first_well, interlopers = problems.crs_spectrum_numeric_wide(mq, params, 8)
        rel = float(max(abs(fw - ex) / ex for fw, ex in zip(first_well, exact)))
        out.append(_check(
            "crs-spectrum", f"wide-lam=1-mprimeq={mq}", rel, 1e-5,
            detail=f"domain [1e-4, 10] straddles the tan pole at x*=2.3013; "
                   f"{len(interlopers)} interloper state(s) beyond the pole among the "
                   f"lowest 8; states localized on (0, x*) reproduce the closed-form "
                   f"spectrum"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 3: analytic eigenpairs satisfy the radial equation


def suite_eigen_residual() -> list[CheckResult]:
    params = PhysParams(lam=1.0)
    grid = Grid1D(0.05, 20.0, 2000)
    worst = 0.0
    worst_pair = None
    for N in range(4):
        for mp in range(4):
            E = higgs.higgs_energy((N, mp), params)
            res = residual_norm(
                lambda r: higgs.higgs_radial_coefficients(mp, params, r),
                lambda r: higgs.oscillator_potential(params, r),
                lambda r: higgs.higgs_wavefunction((N, mp), params, r),
                E, grid)
            if res > worst:
                worst, worst_pair = res, (N, mp)
    return [_check("eigen-residual", "all-16-pairs", worst, 1e-6,
                   detail=f"max over (N, m') in {{0..3}}^2 on r in [0.05, 20], "
                          f"worst at {worst_pair}")]


# ----------------------------------------------------------------------
# acceptance criterion 4: potential map closes onto the plain oscillator


def suite_transform_closure() -> list[CheckResult]:
    out = []
    rs = np.logspace(-0.5, 1.0, 100)
    for lam in (0.1, 1.0, 10.0):
        params = PhysParams(lam=lam)
        worst = 0.0
        for mq in (0.0, 1.0, 2.0, 0.5):
            mapped = transform.map_potential(
                mq, params, lambda x: crs.crs_potential_special(mq, params, x), rs)
            target = higgs.oscillator_potential(params, rs)
            worst = max(worst, float(np.max(np.abs(mapped - target) / target)))
        out.append(_check("transform-closure", f"lam={lam}", float(worst), 1e-12,
                          detail="max rel dev from (1/2) m w^2 r^2 over 100 log-spaced "
                                 "radii in [0.316, 10], m'_Q in {0, 1, 2, 1/2}"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 5: wavefunction map and the sine-argument question


def _crs_wavefunction_plain_sin(qn, params: PhysParams, x):
    """crs_wavefunction_special_real as printed, with cos Theta as the power
    base and sin Theta as the 2F1 argument where the model squares both."""
    lam = params.lam
    N, mq = qn
    th = theta_of_x(x, lam)
    s, c = np.sin(th), np.cos(th)
    pref = (-(np.sin(2 * th) ** 2) + 0j) ** (-0.75)
    expo = 1 + abs(mq) / 2 + params.mass * params.omega_prime / (2 * params.hbar * lam)
    b_par = N + abs(mq) + 1 + params.mass * params.omega_prime / (lam * params.hbar)
    phi = (pref * s * s * (np.tan(th) / math.sqrt(lam)) ** abs(mq)
           * (c + 0j) ** expo * hyp2f1_terminating(N, b_par, abs(mq) + 1, s))
    return (phi / complex(-1.0, 0.0) ** (-0.75)).real


def suite_wavefunction_map() -> list[CheckResult]:
    out = []
    params = PhysParams(lam=1.0)
    rs = np.logspace(math.log10(0.05), math.log10(5.0), 60)
    worst = 0.0
    worst_pair = None
    for N in range(3):
        for mq in range(3):
            ratios = (higgs.higgs_wavefunction((N, mq), params, rs)
                      / transform.map_wavefunction(
                          params, lambda x: crs.crs_wavefunction_special((N, mq), params, x),
                          rs))
            c = _ratio_constancy(ratios)
            if c > worst:
                worst, worst_pair = c, (N, mq)
    out.append(_check("wavefunction-map", "ratio-constancy", worst, 1e-6,
                      detail=f"std/|mean| of psi/(g phi(x(r))), sin^2 convention, "
                             f"worst at (N, m'_Q) = {worst_pair}"))
    # eigen-equation residuals of the two sine conventions (N=1, m'_Q=1)
    mq, N = 1, 1
    E = crs.crs_energy((N, mq), params)
    grid = Grid1D(0.1, 0.9 * crs.x_pole(params), 500)

    def residual(phi):
        return residual_norm(
            lambda x: crs.crs_operator_coefficients(params, x),
            lambda x: crs.crs_potential_special(mq, params, x),
            lambda x: phi((N, mq), params, x), E, grid)

    out.append(_check("wavefunction-map", "sin-squared-residual",
                      residual(crs.crs_wavefunction_special_real), 1e-6,
                      detail="eigen-equation residual of the sin^2 convention"))
    out.append(_check("wavefunction-map", "sin-as-printed-residual",
                      residual(_crs_wavefunction_plain_sin), math.inf, comparator="report",
                      detail="eigen-equation residual of the plain-sin convention; "
                             "orders of magnitude above the sin^2 form, which "
                             "settles the convention question"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 6: the constraint ODE for every source model


def suite_constraint_ode() -> list[CheckResult]:
    """Each family's named X against the A and B of its QesSpec."""
    params = PhysParams(lam=1.0)
    lam = params.lam
    xs = np.linspace(0.1, 5.0, 50)
    out = []

    def cos_l(l):
        return lambda x: np.cos(l * theta_of_x(x, lam))

    cases = [("special-cos2theta", cos_l(2.0), crs.special_params(1.0, params)),
             ("example1-l=1", cos_l(1.0), QesSpec.example1(1.0, 1.0, params)),
             ("example1-l=2", cos_l(2.0), QesSpec.example1(2.0, 1.0, params)),
             ("example1-l=3", cos_l(3.0), QesSpec.example1(3.0, 1.0, params)),
             ("example2-sqrt(lam)x", lambda x: math.sqrt(lam) * x,
              QesSpec.example2(1.0, params))]
    for name, X, spec in cases:
        worst = float(np.max(np.abs(crs.x_constraint_residual(X, spec.A, spec.B, params, xs))))
        out.append(_check("constraint-ode", name, worst, 1e-6,
                          detail="max |K X'' + lam x X' - A X - B| at 50 points in [0.1, 5]"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 7: QES certification


def _example1_half_angle_groundstate(l, mq, params: PhysParams, r):
    """qes_example1_groundstate with the half-angle sine factor
    sin((l/2) Upsilon) in place of sin(l Upsilon)."""
    spec = QesSpec.example1(l, mq, params)
    lam = params.lam
    u = upsilon_of_r(r, lam)
    ll2 = lam * l * l
    return ((lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5
            * np.tan(0.5 * l * u) ** (spec.gamma / ll2)
            * np.sin(0.5 * l * u) ** (spec.beta / ll2))


@lru_cache(maxsize=None)
def _qes_measurements():
    """Heavy shared computations of criterion 7, done once."""
    params = PhysParams(lam=1.0)
    mq = 1
    m = {}
    for example, l in ((1, 3.0), (2, None)):
        ex = f"ex{example}"
        prob = problems.qes_rayleigh_problem(mq, params, l=l)
        m[ex + "_E0"], m[ex + "_constancy"] = rayleigh_quotient(
            prob, lambda r: higgs.qes_groundstate(mq, params, r, l))
        if l is not None:
            _, m["ex1_half_angle_constancy"] = rayleigh_quotient(
                prob, lambda r: _example1_half_angle_groundstate(l, mq, params, r))
        num = lowest_eigenvalues(problems.qes_channel_problem(mq, mq, params, 8001, l=l), 1)
        m[ex + "_numeric_E0"] = float(num[0])

        # neighbor channels: ground state must not be proportional to any
        # closed-form candidate
        for channel in (mq - 1, mq + 1):
            prob = problems.qes_channel_problem(channel, mq, params, 2000, l=l)
            res = lowest_eigenpairs(prob, 1)
            x = prob.grid.points()
            v = res.eigenvectors[:, 0]
            i0, i1 = int(0.2 * x.size), int(0.8 * x.size)
            devs = []
            for mc in {channel, mq}:
                ratio = v[i0:i1] / higgs.qes_groundstate(mc, params, x[i0:i1], l)
                devs.append(float(np.max(np.abs(ratio - np.mean(ratio)))
                                  / abs(np.mean(ratio))))
            m[f"{ex}_ch{channel}_min_dev"] = min(devs)
    return m


def suite_qes_certification() -> list[CheckResult]:
    m = _qes_measurements()
    out = [
        _check("qes-certification", "example1-rayleigh-constancy",
               m["ex1_constancy"], 1e-6,
               detail=f"full-angle sine ground state, E0 = {m['ex1_E0']:.10g}"),
        _check("qes-certification", "example1-half-angle-constancy",
               m["ex1_half_angle_constancy"], math.inf, comparator="report",
               detail="half-angle sine variant: Rayleigh quotient far from constant, "
                      "so that form is not an eigenfunction of the matching potential"),
        _check("qes-certification", "example2-rayleigh-constancy",
               m["ex2_constancy"], 1e-6,
               detail=f"closed-form ground state, E0 = {m['ex2_E0']:.10g}"),
        _check("qes-certification", "example1-ground-eigenvalue",
               abs(m["ex1_numeric_E0"] - m["ex1_E0"]) / abs(m["ex1_E0"]), 1e-4,
               detail=f"numeric {m['ex1_numeric_E0']:.10g} vs Rayleigh {m['ex1_E0']:.10g}, "
                      f"channel m' = m'_Q = 1"),
        _check("qes-certification", "example2-ground-eigenvalue",
               abs(m["ex2_numeric_E0"] - m["ex2_E0"]) / abs(m["ex2_E0"]), 1e-4,
               detail=f"numeric {m['ex2_numeric_E0']:.10g} vs Rayleigh {m['ex2_E0']:.10g}, "
                      f"channel m' = m'_Q = 1"),
    ]
    for example in (1, 2):
        for channel in (0, 2):
            out.append(_check(
                "qes-certification", f"example{example}-channel{channel}-not-analytic",
                m[f"ex{example}_ch{channel}_min_dev"], 1e-2, comparator=">",
                detail="min over closed-form candidates of the pointwise-ratio "
                       "deviation from constancy; large = the numerical ground "
                       "state is not in the closed-form family"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 8: the l = 2 reduction claim


def suite_l2_reduction() -> list[CheckResult]:
    params = PhysParams(lam=1.0)
    rs = np.logspace(math.log10(0.05), math.log10(20.0), 200)
    out = []
    for mq in (0.0, 1.0, 2.0, 0.5):
        d = (higgs.qes_example1_potential(2.0, mq, params, rs)
             - higgs.oscillator_potential(params, rs))
        out.append(_check(
            "l2-reduction", f"difference-mprimeq={mq}", float(np.max(np.abs(d))), 1e-10,
            detail="max |D| of D = V_l=2 - (1/2) m w^2 r^2 over 200 log-spaced radii "
                   "in [0.05, 20]; zero at roundoff, so the reduction claim holds "
                   "exactly"))
    return out


# ----------------------------------------------------------------------
# acceptance criterion 9: flat-space limit


def suite_flat_limit() -> list[CheckResult]:
    params = PhysParams(lam=1e-8)
    worst = 0.0
    for N in range(3):
        for mp in range(3):
            flat = params.hbar * params.omega * (2 * N + mp + 1)
            worst = max(worst, abs(higgs.higgs_energy((N, mp), params) - flat))
    return [_check("flat-limit", "lam=1e-8", worst, 1e-6,
                   detail="max |E - hbar w (2N+|m'|+1)| over (N, m') in {0..2}^2")]


# ----------------------------------------------------------------------
# module invariants


def suite_special_functions() -> list[CheckResult]:
    out = []
    worst = 0.0
    rs = np.logspace(-3, 3, 25)
    for lam in (0.1, 1.0, 10.0):
        x = transform.x_of_r(PhysParams(lam=lam), rs)
        worst = max(worst, float(np.max(np.abs(theta_of_x(x, lam)
                                               - upsilon_of_r(rs, lam)))))
    out.append(_check("special-functions", "theta-upsilon-identity", worst, 1e-12,
                      detail="|Theta(x(r)) - Upsilon(r)| over r in [1e-3, 1e3], "
                             "lam in {0.1, 1, 10}"))
    xs = np.linspace(-20, 20, 41)
    odd = np.max(np.abs(gudermannian(xs) + gudermannian(-xs)))
    out.append(_check("special-functions", "gudermannian-odd", odd, 1e-15))
    mono = np.min(np.diff(gudermannian(xs)))
    out.append(_check("special-functions", "gudermannian-increasing", -mono, 0.0,
                      detail="negated minimum increment; <= 0 means strictly increasing"))
    return out


def suite_crs_model() -> list[CheckResult]:
    params = PhysParams(lam=1.0)
    out = []
    worst = 0.0
    for mq in (0.0, 1.0, 2.0, 0.5):
        spec = crs.special_params(mq, params)
        xs = np.linspace(0.1, 5, 25)
        a = crs.potential_general(spec, params, xs)
        b = crs.crs_potential_special(mq, params, xs)
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    out.append(_check("crs-model", "general-vs-special-potential", worst, 1e-9,
                      detail="factorization potential with the special bundle vs the "
                             "closed form, relative"))
    spec = crs.special_params(1.0, params)
    lamdelta = params.lam * params.delta
    out.append(_check("crs-model", "beta-minus-gamma",
                      abs(spec.beta - spec.gamma - 2 * params.lam - 2 * lamdelta), 1e-12))
    out.append(_check("crs-model", "mprimeq-roundtrip",
                      abs((spec.beta + spec.gamma) / (4 * params.lam) - 0.5 - spec.mprime_q),
                      1e-12))
    out.append(_check("crs-model", "omega-prime-vs-delta",
                      abs(params.omega_prime
                          - params.lam * params.hbar * params.delta / (2 * params.mass)),
                      1e-12))
    gap_worst = 0.0
    for N in (1, 2, 3):
        for mq in (0, 1, 2):
            gap = crs.crs_energy((N, mq), params) - crs.crs_energy((N - 1, mq), params)
            closed = (2 * params.hbar * params.omega_prime
                      + params.lam * params.hbar**2 / (2 * params.mass)
                      * (8 * N + 4 * abs(mq)))
            gap_worst = max(gap_worst, abs(gap - closed))
    out.append(_check("crs-model", "spectrum-gap-closed-form", gap_worst, 1e-12))
    return out


def suite_higgs_model() -> list[CheckResult]:
    params = PhysParams(lam=1.0)
    out = []
    parity = 0.0
    rs = np.array([0.3, 1.7])
    for N in (0, 1):
        for mp in (1, 2):
            parity = max(parity, float(np.max(np.abs(
                higgs.higgs_wavefunction((N, mp), params, rs)
                - higgs.higgs_wavefunction((N, -mp), params, rs)))))
            parity = max(parity, abs(higgs.higgs_energy((N, mp), params)
                                     - higgs.higgs_energy((N, -mp), params)))
    out.append(_check("higgs-model", "mprime-parity", parity, 0.0,
                      detail="outputs depend on m' only through |m'|"))
    rs = np.linspace(1e-3, 25, 4000)
    nodes_bad = 0.0
    for N in range(4):
        for mp in range(3):
            vals = higgs.higgs_wavefunction((N, mp), params, rs)
            nodes = int(np.sum(vals[:-1] * vals[1:] < 0))
            nodes_bad = max(nodes_bad, abs(nodes - N))
    out.append(_check("higgs-model", "node-count-equals-N", nodes_bad, 0.0))
    # both construction routes of the cos(l Theta) potential
    l, mq = 3.0, 1.0
    spec = QesSpec.example1(l, mq, params)
    rs = np.linspace(0.05, 0.95 * higgs.example1_branch_radius(l, params), 40)
    a = transform.map_potential(
        mq, params, lambda x: crs.potential_general(spec, params, x), rs)
    b = higgs.qes_example1_potential(l, mq, params, rs)
    worst = float(np.max(np.abs(a - b) / (np.abs(b) + 1.0)))
    out.append(_check("higgs-model", "example1-both-routes", worst, 1e-9,
                      detail="direct transcription vs factorization+map composition"))
    spec2 = QesSpec.example2(mq, params)
    rs = np.linspace(0.05, 30.0, 40)
    a = transform.map_potential(
        mq, params, lambda x: crs.potential_general(spec2, params, x), rs)
    b = higgs.qes_example2_potential(mq, params, rs)
    worst2 = float(np.max(np.abs(a - b) / (np.abs(b) + 1.0)))
    out.append(_check("higgs-model", "example2-both-routes", worst2, 1e-9))
    return out


def suite_transform_maps() -> list[CheckResult]:
    out = []
    worst = 0.0
    rs = np.logspace(-3, 3, 25)
    for lam in (0.1, 1.0, 10.0):
        params = PhysParams(lam=lam)
        rt = transform.r_of_x(params, transform.x_of_r(params, rs))
        worst = max(worst, float(np.max(np.abs(rt - rs) / rs)))
    out.append(_check("transform-maps", "roundtrip", worst, 1e-12))
    bit = 0.0
    for lam in (0.1, 1.0):
        params = PhysParams(lam=lam)
        for N in range(3):
            for mq in range(3):
                if crs.crs_energy((N, mq), params) != higgs.higgs_energy((N, mq), params):
                    bit = 1.0
    out.append(_check("transform-maps", "spectrum-preservation-bitwise", bit, 0.0,
                      detail="crs and radial spectra agree bit for bit"))
    out.append(_check("transform-maps", "g-modulus-at-1",
                      abs(abs(transform.g_factor(PhysParams(lam=1.0), 1.0)) - 2.0), 1e-14))
    return out


def suite_numerics_oracle() -> list[CheckResult]:
    out = []
    # textbook-free check: -psi'' + x^2 psi has eigenvalues 2k+1
    prob = SturmLiouvilleProblem(
        lambda x: np.ones_like(np.asarray(x, float)),
        lambda x: np.asarray(x, float) ** 2,
        lambda x: np.ones_like(np.asarray(x, float)),
        Grid1D(-10.0, 10.0, 2000))
    extrap, _, _ = richardson_eigenvalues(prob, 3)
    worst = float(np.max(np.abs(extrap - np.array([1.0, 3.0, 5.0]))
                         / np.array([1.0, 3.0, 5.0])))
    out.append(_check("numerics-oracle", "flat-oscillator", worst, 1e-6))
    # measured convergence order of the ground state
    errs = []
    for n in (500, 1001, 2003):
        vals = lowest_eigenvalues(SturmLiouvilleProblem(
            prob.p, prob.q, prob.w, Grid1D(-10.0, 10.0, n)), 1)
        errs.append(abs(vals[0] - 1.0))
    order = math.log2(errs[0] / errs[1])
    out.append(_check("numerics-oracle", "convergence-order-low", order, 1.8,
                      comparator=">", detail=f"orders {order:.3f}, "
                      f"{math.log2(errs[1] / errs[2]):.3f}"))
    out.append(_check("numerics-oracle", "convergence-order-high",
                      max(order, math.log2(errs[1] / errs[2])), 2.2,
                      detail="both measured orders at most 2.2"))
    # node counts cross-validate the labeling by N
    res = lowest_eigenpairs(prob, 4)
    bad = 0
    for j in range(4):
        v = res.eigenvectors[:, j]
        big = np.abs(v) > 1e-8 * np.max(np.abs(v))
        vv = v[big]
        if int(np.sum(vv[:-1] * vv[1:] < 0)) != j:
            bad += 1
    out.append(_check("numerics-oracle", "sturm-node-counts", bad, 0.0))
    # self-adjointness certificates: expanding (p psi')'/w reproduces the
    # raw first-derivative coefficient, p'/w = -p1, for both built operators
    params = PhysParams(lam=1.0)
    pts = np.array([0.3, 1.0, 2.5])
    grid = Grid1D(0.1, 1.0, 3)
    zero = lambda t: 0.0 * t
    worst = 0.0
    for prob, coeffs in (
            (problems.higgs_radial_problem(1, params, zero, grid, _WALLS),
             lambda r: higgs.higgs_radial_coefficients(1, params, r)),
            (problems.crs_problem(params, zero, grid, _WALLS),
             lambda x: crs.crs_operator_coefficients(params, x))):
        _, dp, _ = derivatives(prob.p, pts, 1e-3)
        worst = max(worst, float(np.max(np.abs(dp / prob.w(pts) + coeffs(pts)[1]))))
    out.append(_check("numerics-oracle", "self-adjointness-certificates", worst,
                      1e-8, detail="(p psi')'/w expansion vs raw coefficients, both operators"))
    # the tridiagonal eigensolver against a dense solve of the same assembled
    # pencil (K, M), corner corrections included, in its symmetric standard
    # form M^(-1/2) K M^(-1/2) (M is diagonal)
    cprob = problems.crs_natural_problem(1, params, 200)
    system = assemble(cprob)
    K = np.diag(system.k_diag) + np.diag(system.k_off, 1) + np.diag(system.k_off, -1)
    s = 1 / np.sqrt(system.m_diag)
    dense = np.linalg.eigvalsh(s[:, None] * K * s)[:3]
    tri = lowest_eigenvalues(cprob, 3)
    out.append(_check("numerics-oracle", "dense-eigensolve-agreement",
                      float(np.max(np.abs(tri - dense) / np.abs(dense))), 1e-10,
                      detail="lowest 3 of dense eigh(K, M) vs the tridiagonal path, "
                             "crs natural branch m'_Q=1, n=200"))
    return out


# ----------------------------------------------------------------------
# determinism of the verification pipeline itself


def suite_determinism() -> list[CheckResult]:
    def snapshot():
        """Check names plus the bit pattern of every measured float."""
        checks = suite_transform_closure() + suite_flat_limit()
        num = problems.higgs_spectrum_numeric(0, PhysParams(lam=1.0), 2, n=500)
        values = np.array([c.measured for c in checks] + list(num), float)
        return [c.name for c in checks], values.tobytes()

    a, b = snapshot(), snapshot()
    return [_check("determinism", "repeated-pipeline-bytes",
                   0.0 if a == b else 1.0, 0.0,
                   detail="two in-process runs of a representative pipeline "
                          "serialize to identical bytes")]


SUITES = {
    "higgs-spectrum": suite_higgs_spectrum,
    "crs-spectrum": suite_crs_spectrum,
    "eigen-residual": suite_eigen_residual,
    "transform-closure": suite_transform_closure,
    "wavefunction-map": suite_wavefunction_map,
    "constraint-ode": suite_constraint_ode,
    "qes-certification": suite_qes_certification,
    "l2-reduction": suite_l2_reduction,
    "flat-limit": suite_flat_limit,
    "special-functions": suite_special_functions,
    "crs-model": suite_crs_model,
    "higgs-model": suite_higgs_model,
    "transform-maps": suite_transform_maps,
    "numerics-oracle": suite_numerics_oracle,
    "determinism": suite_determinism,
}

ALL_SUITE_NAMES = list(SUITES)


def run_suites(names=None) -> list[CheckResult]:
    """Run the named suites once each, in the order first given; None or
    'all' anywhere in the list means every suite."""
    names = ["all"] if names is None else list(dict.fromkeys(names))
    unknown = [n for n in names if n not in SUITES and n != "all"]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; available: {ALL_SUITE_NAMES}")
    if "all" in names:
        names = ALL_SUITE_NAMES
    results = []
    for n in names:
        results.extend(SUITES[n]())
    return results


def build_report(results: list[CheckResult]) -> dict:
    suites: dict[str, list] = {}
    for c in results:
        suites.setdefault(c.suite, []).append({
            "name": c.name,
            "passed": c.passed,
            "measured": c.measured if math.isfinite(c.measured) else None,
            "tolerance": c.tolerance if math.isfinite(c.tolerance) else None,
            "comparator": c.comparator,
            "detail": c.detail,
        })
    return {
        "command": "verify",
        "suites": [{"suite": k, "checks": v} for k, v in suites.items()],
        "n_checks": len(results),
        "n_failed": sum(1 for c in results if not c.passed),
        "passed": all(c.passed for c in results),
    }
