"""Deliberate defects that named verify checks must catch: each mutation
runs the suite it targets and asserts which of its checks fail."""

import dataclasses

import numpy as np
import pytest

from curvosc import crs, higgs, problems, verify
from curvosc.crs import QesSpec
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
    # every power rule at the origin becomes a Dirichlet wall: only the m' = 0
    # rows see it (0.108-0.140 relative), since a wall is exact for m' >= 1
    # (the higgs m' >= 1 rows read 5.5e-12-3.2e-11, under their 1e-9 gate).
    # The same swap at the far end is the next test's mutation
    rule = problems.EndpointRule

    def off(sigma, center, series=()):
        return None if center == 0.0 else rule(sigma, center, series)

    monkeypatch.setattr(problems, "EndpointRule", off)
    assert failed("higgs-spectrum", "crs-spectrum") == [
        "lam=0.1-mprime=0", "lam=1.0-mprime=0", "natural-lam=0.1-mprimeq=0",
        "natural-lam=1.0-mprimeq=0", "wide-lam=1-mprimeq=0"]


@pytest.mark.parametrize("mutate", [
    lambda end, sigma, c1, c2: (-sigma if end == 0 else sigma, c1, c2),
    lambda end, sigma, c1, c2: (sigma, 0.0, c2),
], ids=["origin-partner-root", "c1=0"])
def test_ground_eigenvalue_gates_the_end_profile(monkeypatch, mutate):
    # the origin's indicial roots are +-sigma.  The partner root moves the
    # two ground eigenvalues by 0.22 and 1.2 relative, c1 = 0 by 1.4e-5 and
    # 7.2e-2, so a gate at 1e-4 would miss the first
    profile = QesSpec.end_profile

    def off(self, params, end):
        sigma, (c1, c2) = profile(self, params, end)
        sigma, c1, c2 = mutate(end, sigma, c1, c2)
        return sigma, (c1, c2)

    monkeypatch.setattr(QesSpec, "end_profile", off)
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
    # and the four deviations fall to 4.9e-8-6.9e-7, far below the 1e-2 gate
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
    # rows stay at or below 2.8e-11.  The crs tan-pole swap reads 2.1e-10, below
    # the m'_Q = 0 rows' 9.9e-9, so no crs-spectrum gate can tell it
    rule = problems.EndpointRule

    def off(sigma, center, series=()):
        return None if center != 0.0 else rule(sigma, center, series)

    monkeypatch.setattr(problems, "EndpointRule", off)
    assert failed("higgs-spectrum", "crs-spectrum") == [
        "lam=1.0-mprime=0", "lam=1.0-mprime=1", "lam=1.0-mprime=2"]


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
