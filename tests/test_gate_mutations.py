"""Deliberate defects that named verify checks must catch: each mutation
runs the suite it targets and asserts which of its checks fail."""

import dataclasses

import numpy as np
import pytest

from curvosc import crs, higgs, numerics, problems, verify
from curvosc.crs import QesSpec
from curvosc.params import PhysParams
from curvosc.verify import run_suites


def failed(*suites):
    return sorted(c.name for c in run_suites(list(suites)) if not c.passed)


@pytest.mark.parametrize("rel", [1e-4, 1e-7])
def test_constraint_ode_reads_a_from_the_spec(monkeypatch, rel):
    # 1e-7 moves the residual by 1.2e-7-9.5e-7: above the 1e-8 gate, below 1e-6
    example1 = QesSpec.example1

    def off(cls, l, mprime_q, params):
        spec = example1(l, mprime_q, params)
        return dataclasses.replace(spec, A=spec.A * (1 + rel))

    monkeypatch.setattr(QesSpec, "example1", classmethod(off))
    assert failed("constraint-ode") == ["example1-l=1", "example1-l=2", "example1-l=3"]


def test_l2_reduction_gates_the_difference(monkeypatch):
    potential = verify._example1_potential_printed
    monkeypatch.setattr(verify, "_example1_potential_printed",
                        lambda *args: potential(*args) + 1e-6)
    assert failed("l2-reduction") == [f"difference-mprimeq={mq}"
                                      for mq in (0.0, 0.5, 1.0, 2.0)]


@pytest.mark.parametrize("rel", [1e-7, 1e-9])
def test_spectrum_gap_gates_the_shared_spectrum(monkeypatch, rel):
    energy = crs.oscillator_energy

    def off(qn, params):
        return energy(qn, params) * (1 + rel)

    monkeypatch.setattr(crs, "oscillator_energy", off)
    assert failed("crs-model", "flat-limit", "higgs-model") == ["spectrum-gap-closed-form"]


def test_spectrum_gates_the_origin_closure(monkeypatch):
    # every power rule at the origin becomes a Dirichlet wall: the m' = 0
    # rows read 0.113-0.160 relative.  Where the solution vanishes there as
    # r^|m'| (the line's in the radial gauge), a wall is exact enough for
    # m' >= 1: the higgs rows read 5.4e-13-1.3e-11 against 1e-9, the natural
    # crs rows 1.0e-12-1.3e-11 against 1e-10 and the wide ones 1.25e-8 and
    # 1.39e-8 against 1e-7.  The same swap at the far end is the next test's
    # mutation
    rule = problems.EndpointRule

    def off(sigma, center, profile=None):
        return None if center == 0.0 else rule(sigma, center, profile)

    monkeypatch.setattr(problems, "EndpointRule", off)
    assert failed("higgs-spectrum", "crs-spectrum") == [
        "lam=0.1-mprime=0", "lam=1.0-mprime=0", "natural-lam=0.1-mprimeq=0",
        "natural-lam=1.0-mprimeq=0", "wide-lam=1-mprimeq=0"]


def test_ground_eigenvalue_gates_the_closure(monkeypatch):
    # the solvable channel's end profile off by 1e-3 relative, log psi0 and
    # its derivative alike: the two ground eigenvalues read 2.57e-5 and 0.42
    # against 1e-6; the neighbour channels keep their power rules
    rule = problems.EndpointRule

    def off(sigma, center, profile=None):
        scaled = profile and (lambda t: tuple(1.001 * v for v in profile(t)))
        return rule(sigma, center, scaled)

    monkeypatch.setattr(problems, "EndpointRule", off)
    # the uncached measurements, so no mutated value stays in the cache
    monkeypatch.setattr(verify, "_qes_measurements", verify._qes_measurements.__wrapped__)
    assert failed("qes-certification") == ["example1-ground-eigenvalue",
                                           "example2-ground-eigenvalue"]


def test_both_routes_gate_the_curvature_shift(monkeypatch):
    # the shift of the spec potential off by 1e-8 relative: the both-routes
    # checks read 1.1e-8 and 1.0e-8 against their 1e-9 gates, and the example2
    # ground eigenvalue 5.0e-6 against 1e-6
    shift = higgs.curvature_shift
    monkeypatch.setattr(higgs, "curvature_shift", lambda *args: shift(*args) * (1 + 1e-8))
    monkeypatch.setattr(verify, "_qes_measurements", verify._qes_measurements.__wrapped__)
    assert failed("higgs-model", "qes-certification") == [
        "example1-both-routes", "example2-both-routes", "example2-ground-eigenvalue"]


def test_not_analytic_gates_the_neighbour_channels(monkeypatch):
    # every channel built as m' = m'_Q: its ground state is the closed form,
    # and the four deviations fall to 8.3e-8-3.7e-7, far below the 1e-2 gate
    build = problems.qes_channel_problem

    def solvable(mprime, spec, params, n):
        return build(spec.mprime_q, spec, params, n)

    monkeypatch.setattr(problems, "qes_channel_problem", solvable)
    monkeypatch.setattr(verify, "_qes_measurements", verify._qes_measurements.__wrapped__)
    assert failed("qes-certification") == [f"example{example}-channel{channel}-not-analytic"
                                           for example in (1, 2) for channel in (0, 2)]


def test_spectrum_gates_the_equator_closure(monkeypatch):
    # every power rule away from the origin becomes a Dirichlet wall: the
    # higgs lam = 1 rows read 2.8e-8-3.6e-8 against the 1e-9 gate, the lam = 0.1
    # rows stay at or below 2.8e-11.  The crs tan-pole swap moves the natural
    # lam = 1 rows to 1.8e-10-2.1e-10 against their 1e-10 gate; the lam = 0.1
    # rows still pass
    rule = problems.EndpointRule

    def off(sigma, center, profile=None):
        return None if center != 0.0 else rule(sigma, center, profile)

    monkeypatch.setattr(problems, "EndpointRule", off)
    assert failed("higgs-spectrum", "crs-spectrum") == [
        "lam=1.0-mprime=0", "lam=1.0-mprime=1", "lam=1.0-mprime=2",
        "natural-lam=1.0-mprimeq=0", "natural-lam=1.0-mprimeq=1", "natural-lam=1.0-mprimeq=2"]


def test_gudermannian_increasing_gates_monotonicity(monkeypatch):
    # sin is odd, so gudermannian-odd still passes; it turns back at pi/2
    monkeypatch.setattr(verify, "gudermannian", np.sin)
    assert failed("special-functions") == ["gudermannian-increasing"]


@pytest.mark.parametrize("factor,suites,fails", [
    (lambda mprime, r: 1 + 1e-3 * np.sign(mprime),
     ("higgs-model", "wavefunction-map", "eigen-residual"), ["mprime-parity"]),
    (lambda mprime, r: np.asarray(r, float) - 1, ("higgs-model",), ["node-count-equals-N"]),
], ids=["odd-in-mprime", "node-at-r=1"])
def test_higgs_model_gates_the_wavefunction(monkeypatch, factor, suites, fails):
    # a factor constant in r leaves the map's ratio constancy and the
    # residual untouched, so only the parity identity can tell it
    wavefunction = higgs.higgs_wavefunction

    def off(qn, params, r):
        return wavefunction(qn, params, r) * factor(qn[1], r)

    monkeypatch.setattr(higgs, "higgs_wavefunction", off)
    assert failed(*suites) == fails


@pytest.mark.parametrize("dgamma,fails", [
    (-1e-9, ["beta-minus-gamma", "general-vs-special-potential"]),
    (1e-9, ["general-vs-special-potential", "mprimeq-roundtrip"]),
], ids=["sum-kept", "difference-kept"])
def test_crs_model_gates_the_surd_bundle(monkeypatch, dgamma, fails):
    # beta + 1e-9 with gamma -+ 1e-9 keeps beta + gamma or beta - gamma; the
    # constraint ODE reads only A and B, so it passes either way
    special = crs.special_params

    def off(mprime_q, params):
        spec = special(mprime_q, params)
        return dataclasses.replace(spec, beta=spec.beta + 1e-9, gamma=spec.gamma + dgamma)

    monkeypatch.setattr(crs, "special_params", off)
    assert failed("crs-model", "constraint-ode") == fails


def test_flat_oscillator_gates_the_extrapolation(monkeypatch):
    # the coarse grid passed off as the extrapolation reads 1.6e-5 against 1e-6
    pair = verify.richardson_eigenvalues

    def off(prob, k):
        _, coarse, fine, vectors = pair(prob, k)
        return coarse, coarse, fine, vectors

    monkeypatch.setattr(verify, "richardson_eigenvalues", off)
    assert failed("numerics-oracle") == ["flat-oscillator"]


def test_spectrum_rows_gate_the_extrapolation(monkeypatch):
    # the coarse grid passed off as the extrapolation: the higgs and natural
    # crs rows read 2.0e-7-1.7e-6, the wide rows 3.7e-6, 1.3e-5 and 1.4e-5,
    # so every gated row of both suites fails
    pair = problems.richardson_eigenvalues

    def off(prob, k):
        _, coarse, fine, vectors = pair(prob, k)
        return coarse, coarse, fine, vectors

    monkeypatch.setattr(problems, "richardson_eigenvalues", off)
    assert failed("higgs-spectrum", "crs-spectrum") == sorted(
        [f"lam={lam}-mprime={mp}" for lam in (0.1, 1.0) for mp in (0, 1, 2)]
        + [f"natural-lam={lam}-mprimeq={mq}" for lam in (0.1, 1.0) for mq in (0, 1, 2)]
        + [f"wide-lam=1-mprimeq={mq}" for mq in (0, 1, 2)])


@pytest.mark.parametrize("kept", [2, 0])
def test_wide_rows_need_three_first_well_states(monkeypatch, kept):
    # fewer first-well states than the levels N = 0..2 they are held to:
    # each wide row fails, with no level dropped and no error raised
    wide = problems.crs_spectrum_numeric_wide

    def off(*args, **kwargs):
        first_well, interlopers = wide(*args, **kwargs)
        return first_well[:kept], interlopers

    monkeypatch.setattr(problems, "crs_spectrum_numeric_wide", off)
    assert failed("crs-spectrum") == [f"wide-lam=1-mprimeq={mq}" for mq in (0, 1, 2)]


@pytest.mark.parametrize("k,change,fails", [
    (1, lambda E, n: 1 + (E - 1) * n / 500, ["convergence-order-low"]),
    (1, lambda E, n: 1 + 1e4 * (E - 1) ** 2, ["convergence-order-high"]),
    (3, lambda E, n: E * (1 + 1e-9), ["ql-eigensolve-agreement"]),
], ids=["first-order", "fourth-order", "tridiagonal-off"])
def test_numerics_oracle_gates_the_solver(monkeypatch, k, change, fails):
    # the ground-state error of a first- or a fourth-order scheme at k = 1,
    # the only k the convergence orders read: both measured orders read 1.0,
    # or 4.0.  At k = 3 the values the QL solve checks are off by 1e-9
    # relative, against its 1e-10 gate
    solve = verify.lowest_eigenvalues

    def off(prob, j):
        vals = solve(prob, j)
        return change(vals, prob.grid.n) if j == k else vals

    monkeypatch.setattr(verify, "lowest_eigenvalues", off)
    assert failed("numerics-oracle") == fails


def test_ql_check_reads_the_polished_solve(monkeypatch):
    # the QL check's own grid, the one dsterf sees, is solved by the polish:
    # no default-tolerance bisection of it runs, only the loose one of its
    # guess grid
    sizes, bisections = [], []
    ql, bisection = verify.dsterf, numerics._bisection

    def recorded_ql(d, e):
        sizes.append(d.size)
        return ql(d, e)

    def recorded(d, e, k, **options):
        bisections.append((d.size, "tol" in options))
        return bisection(d, e, k, **options)

    monkeypatch.setattr(verify, "dsterf", recorded_ql)
    monkeypatch.setattr(numerics, "_bisection", recorded)
    assert failed("numerics-oracle") == []
    n, = sizes
    assert (n, False) not in bisections


def test_ql_check_fails_on_a_failed_ql(monkeypatch):
    # a non-zero info from dsterf fails the check, whatever its values read
    ql = verify.dsterf
    monkeypatch.setattr(verify, "dsterf", lambda d, e: (ql(d, e)[0], 1))
    checks = [c for c in run_suites(["numerics-oracle"]) if c.name == "ql-eigensolve-agreement"]
    assert [c.passed for c in checks] == [False]
    assert checks[0].measured == np.inf


def test_node_counts_gate_the_vector_order(monkeypatch):
    # the vectors in reverse order: all 4 node counts miss
    pairs = verify.lowest_eigenpairs

    def off(prob, k):
        vals, vectors = pairs(prob, k)
        return vals, vectors[:, ::-1]

    monkeypatch.setattr(verify, "lowest_eigenpairs", off)
    assert failed("numerics-oracle") == ["sturm-node-counts"]


def test_certificates_gate_the_line_weight(monkeypatch):
    # w = x (1 + lam x^2)^-1, p and q rescaled by it: self-adjoint, but not
    # the line operator, whose gauged weight is x (1 + lam x^2)^(-1/2); p'/w
    # plus the gauged drift reads 1.25.  The QL and polished solves still
    # agree (4.5e-13)
    build = problems.crs_problem

    def off(params, V, grid, bc):
        prob = build(params, V, grid, bc)
        w = lambda x: x / (1 + params.lam * np.asarray(x, float) ** 2)

        def qw(x):
            q, gauged = prob.qw(x)
            return q * w(x) / gauged, w(x)

        return problems.SturmLiouvilleProblem(lambda x: prob.p(x) * w(x) / prob.qw(x)[1],
                                              qw, grid, bc)

    monkeypatch.setattr(problems, "crs_problem", off)
    assert failed("numerics-oracle") == ["self-adjointness-certificates"]


def test_omega_prime_gates_the_delta_identity(monkeypatch):
    # off by 1e-9 relative: the identity reads 1.1e-9 against 1e-12; the gap
    # closed form moves with the spectrum and the flat limit stays below 1e-6
    omega_prime = PhysParams.omega_prime
    monkeypatch.setattr(PhysParams, "omega_prime",
                        property(lambda self: omega_prime.fget(self) * (1 + 1e-9)))
    assert failed("crs-model", "flat-limit") == ["omega-prime-vs-delta"]


def test_determinism_gates_a_drifting_reading(monkeypatch):
    # the first reading of flat-limit grows by one on each call
    calls = []
    flat_limit = verify.suite_flat_limit

    def off():
        checks = flat_limit()
        calls.append(None)
        return [dataclasses.replace(checks[0], measured=checks[0].measured + len(calls)),
                *checks[1:]]

    monkeypatch.setattr(verify, "suite_flat_limit", off)
    assert failed("determinism") == ["repeated-pipeline-bytes"]
