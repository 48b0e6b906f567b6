"""The two transplanted QES potential families and their ground states."""

import math

import numpy as np
import pytest

from curvosc import crs, higgs, transform
from curvosc.crs import QesSpec
from curvosc.errors import (
    CurvoscError,
    InfiniteBranchError,
    NonpositiveParameterError,
    SingularPointError,
)
from curvosc.numerics import EndpointRule, Grid1D, rayleigh_quotient
from curvosc.params import PhysParams
from curvosc.problems import higgs_radial_problem, qes_channel_problem
from curvosc.special_functions import gudermannian
from curvosc.verify import _example1_half_angle_groundstate

UNIT = PhysParams()


def example1_potential_regrouped(l, mq, params, r):
    """Second, independently grouped transcription of the cos(l Theta)
    potential: bracket unexpanded, sec^2 = 1 + tan^2, csc^2 = 1 + cot^2."""
    lam = params.lam
    d = params.delta
    u = 0.5 * l * math.atan(math.sqrt(lam) * r)
    tanu = math.tan(u)
    csc2 = 1 + 1 / tanu**2
    sec2 = 1 + tanu**2
    first = params.hbar**2 / (8 * params.mass * r * r) * (
        1 - 4 * mq**2 + 2 * lam * r * r * (4 * mq + 3) + 4 * lam * r * r * (mq + 1) * d)
    second = -(lam * params.hbar**2 / (4 * params.mass * l * l)) * (
        10 + 8 * mq * (mq + 2) + 8 * (mq + 1) * d
        + (l * l - 4 * mq - 2) * (2 * mq + 1) * csc2
        + (l * l - 4) * (1 + d) * sec2)
    third = 2 * params.mass * params.omega**2 * tanu**2 / (l * l * lam)
    return first + second + third


def example2_potential_regrouped(mq, params, r):
    """Second transcription of the sqrt(lam) x potential using
    (sech - tanh)^2 = 1 - 2 sech tanh and tanh^2 = 1 - sech^2."""
    lam = params.lam
    d = params.delta
    u = math.atan(math.sqrt(lam) * r)
    s = 1 / math.cosh(u)
    t = math.tanh(u)
    c_s = mq * (5 * mq - 3 * d)
    c_st = -2 + 2 * mq * (5 + 4 * mq) - 5 * d
    c_t = 6 + 5 * mq * (2 + mq) + 5 * (1 + mq) * d
    first = 2 * params.mass * params.omega**2 / lam * (1 - 2 * s * t)
    second = params.hbar**2 / (8 * params.mass * r * r) * (
        1 + 2 * lam * r * r - 4 * mq**2 * (1 + lam * r * r))
    hyp = lam * params.hbar**2 / (2 * params.mass) * (
        (c_s - c_t) * s * s + c_st * s * t + c_t)
    return first + second + hyp


class TestExample1Potential:
    def test_frozen_value(self):
        # independently computed at l=3, m'_Q=1, r=1, unit parameters
        assert higgs.qes_example1_potential(3.0, 1.0, UNIT, 1.0) == pytest.approx(
            -0.393934752909152, rel=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0])
    def test_two_transcriptions_agree(self, r, mq):
        a = higgs.qes_example1_potential(3.0, mq, UNIT, r)
        b = example1_potential_regrouped(3.0, mq, UNIT, r)
        assert a == pytest.approx(b, rel=1e-12)

    def test_small_r_inverse_square_coefficient(self):
        # r^2 V -> (hbar^2/8m)(1-4m'^2) - (hbar^2/m l^4)(l^2-4m'-2)(2m'+1),
        # the bracket term plus the csc^2 pole of the middle term
        l, mq = 3.0, 1.0
        expect = (1 - 4 * mq**2) / 8 - (l * l - 4 * mq - 2) * (2 * mq + 1) / l**4
        for r in (1e-5, 1e-6):
            assert higgs.qes_example1_potential(l, mq, UNIT, r) * r * r == \
                pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0, 0.5])
    def test_l2_reduction_is_exact(self, mq):
        for r in np.logspace(-1, 1.2, 40):
            diff = higgs.qes_example1_potential(2.0, mq, UNIT, float(r)) - 0.5 * r * r
            assert abs(diff) < 1e-10

    def test_spec_rejects_nonpositive_l(self):
        assert QesSpec.example1(3.0, 1.0, UNIT).A == pytest.approx(-9.0, rel=1e-15)
        for l in (0.0, -1.0):
            with pytest.raises(ValueError):
                QesSpec.example1(l, 1.0, UNIT)

    @pytest.mark.parametrize("l", [0.0, -3.0])
    def test_potential_rejects_nonpositive_l_like_the_spec(self, l):
        # cos(l Theta) is even in l, so l = -3 gave the l = 3 potential and
        # l = 0 a csc/sec pole error instead of naming l
        with pytest.raises(NonpositiveParameterError) as spec:
            QesSpec.example1(l, 1.0, UNIT)
        with pytest.raises(NonpositiveParameterError) as potential:
            higgs.qes_example1_potential(l, 1.0, UNIT, np.array([0.05, 1.0]))
        assert str(potential.value) == str(spec.value) == f"l must be positive, got {l}"

    @pytest.mark.parametrize("l,error,message", [
        (0.0, NonpositiveParameterError, "l must be positive, got 0.0"),
        (-1.0, NonpositiveParameterError, "l must be positive, got -1.0"),
        (1.0, InfiniteBranchError, "channel solver expects l > 2 (finite branch)"),
        (2.0, InfiniteBranchError, "channel solver expects l > 2 (finite branch)"),
    ], ids=["l=0", "l=-1", "l=1", "l=2"])
    def test_channel_without_finite_branch_is_a_curvosc_error(self, l, error, message):
        # l <= 0 is refused by the family spec, 0 < l <= 2 by the solver
        with pytest.raises(error) as exc:
            qes_channel_problem(1.0, 1.0, UNIT, 100, l=l)
        assert isinstance(exc.value, CurvoscError)
        assert str(exc.value) == message

    def test_branch_radius(self):
        assert higgs.example1_branch_radius(3.0, UNIT) == pytest.approx(
            math.tan(math.pi / 3), rel=1e-15)
        assert math.isinf(higgs.example1_branch_radius(2.0, UNIT))

    @pytest.mark.parametrize("l", [3.0, None], ids=["example1", "example2"])
    def test_cross_route_against_construction(self, l):
        # direct transcription vs factorization potential + potential map
        mq = 1.0
        if l is None:
            spec, rs = QesSpec.example2(mq, UNIT), np.linspace(0.05, 30.0, 30)
        else:
            spec = QesSpec.example1(l, mq, UNIT)
            rs = np.linspace(0.05, 0.95 * higgs.example1_branch_radius(l, UNIT), 30)
        for r in rs:
            a = transform.map_potential(
                mq, UNIT, lambda x: crs.potential_general(spec, UNIT, x), float(r))
            b = higgs.qes_potential(mq, UNIT, float(r), l)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestExample1GroundState:
    def test_positive_on_branch(self):
        rb = higgs.example1_branch_radius(3.0, UNIT)
        for r in np.linspace(0.05, 0.99 * rb, 50):
            assert higgs.qes_example1_groundstate(3.0, 1.0, UNIT, float(r)) > 0

    def test_rejected_beyond_branch(self):
        rb = higgs.example1_branch_radius(3.0, UNIT)
        with pytest.raises(SingularPointError):
            higgs.qes_example1_groundstate(3.0, 1.0, UNIT, 1.01 * rb)

    def test_l2_reproduces_radial_ground_state(self):
        # at l = 2 the potential is the plain oscillator; the ground state
        # must be proportional to the N=0 closed form of that channel
        mq = 1
        rs = np.linspace(0.1, 8.0, 60)
        ratios = np.array([
            higgs.qes_example1_groundstate(2.0, mq, UNIT, float(r))
            / higgs.higgs_wavefunction((0, mq), UNIT, float(r)) for r in rs])
        assert np.std(ratios) / abs(np.mean(ratios)) < 1e-13

    def test_half_angle_variant_is_not_proportional(self):
        mq = 1
        rs = np.linspace(0.1, 8.0, 60)
        ratios = np.array([
            _example1_half_angle_groundstate(2.0, mq, UNIT, float(r))
            / higgs.higgs_wavefunction((0, mq), UNIT, float(r)) for r in rs])
        assert np.std(ratios) / abs(np.mean(ratios)) > 1e-1

    def test_rayleigh_constancy(self):
        l, mq = 3.0, 1
        rb = higgs.example1_branch_radius(l, UNIT)
        grid = Grid1D(0.1, 0.9 * rb, 1500)
        V = lambda r: np.vectorize(
            lambda t: higgs.qes_example1_potential(l, mq, UNIT, float(t)))(r)
        prob = higgs_radial_problem(mq, UNIT, V, grid, (EndpointRule.dirichlet(),) * 2)
        E0, constancy = rayleigh_quotient(
            prob, lambda r: higgs.qes_example1_groundstate(l, mq, UNIT, r))
        assert constancy < 1e-6
        # the defined ground energy coincides with the N=0 closed form of
        # the matching channel (a consequence of the construction)
        assert E0 == pytest.approx(higgs.higgs_energy((0, mq), UNIT), rel=1e-7)


class TestExample2Potential:
    def test_frozen_value(self):
        assert higgs.qes_example2_potential(0.0, UNIT, 1.0) == pytest.approx(
            0.826305158570773, rel=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0])
    def test_two_transcriptions_agree(self, r, mq):
        a = higgs.qes_example2_potential(mq, UNIT, r)
        b = example2_potential_regrouped(mq, UNIT, r)
        assert a == pytest.approx(b, rel=1e-12)

    def test_finite_limit_at_infinity(self):
        # Upsilon -> pi/2: sech(pi/2) ~ 0.39854, tanh(pi/2) ~ 0.91715
        mq = 1.0
        d = UNIT.delta
        s = 1 / math.cosh(math.pi / 2)
        t = math.tanh(math.pi / 2)
        limit = (2 * (s - t) ** 2 + (2 - 4 * mq**2) / 8
                 + 0.5 * (mq * (5 * mq - 3 * d) * s * s
                          + (-2 + 2 * mq * (5 + 4 * mq) - 5 * d) * s * t
                          + (6 + 5 * mq * (2 + mq) + 5 * (1 + mq) * d) * t * t))
        assert higgs.qes_example2_potential(mq, UNIT, 1e7) == pytest.approx(limit, rel=1e-6)
        assert higgs.qes_example2_potential(mq, UNIT, 1e8) == pytest.approx(limit, rel=1e-8)

    def test_half_integer_channel_finite_near_origin(self):
        # m' = 1/2 cancels the 1/r^2 part of the bracket exactly
        d = UNIT.delta
        v0 = (2.0 + 1.0 / 8.0 + 0.5 * (0.5 * (2.5 - 3 * d)))
        assert higgs.qes_example2_potential(0.5, UNIT, 1e-9) == pytest.approx(v0, rel=1e-8)


class TestExample2GroundState:
    def test_positive(self):
        for r in np.logspace(-3, 2, 40):
            assert higgs.qes_example2_groundstate(1.0, UNIT, float(r)) > 0

    def test_gudermannian_factor_drops_when_gamma_zero(self):
        # gamma = 0 needs delta = 2 m': with lam = 1, omega = sqrt(3)/2,
        # m' = 1 gives delta = 2
        params = PhysParams(omega=math.sqrt(3) / 2)
        spec = QesSpec.example2(1.0, params)
        assert spec.gamma == pytest.approx(0.0, abs=1e-14)
        for r in (0.4, 1.7):
            u = math.atan(r)
            expected = ((r * r) ** -0.25 * (1 + r * r) ** -0.5
                        * math.cosh(u) ** -spec.beta)
            assert higgs.qes_example2_groundstate(1.0, params, r) == \
                pytest.approx(expected, rel=1e-14)

    def test_uses_gudermannian(self):
        spec = QesSpec.example2(1.0, UNIT)
        r = 1.3
        u = math.atan(r)
        expected = ((r * r) ** -0.25 * (1 + r * r) ** -0.5
                    * math.cosh(u) ** -spec.beta
                    * math.exp(-spec.gamma * gudermannian(u)))
        assert higgs.qes_example2_groundstate(1.0, UNIT, r) == \
            pytest.approx(expected, rel=1e-14)

    def test_rayleigh_constancy(self):
        mq = 1
        grid = Grid1D(0.1, 25.0, 1500)
        V = lambda r: np.vectorize(
            lambda t: higgs.qes_example2_potential(mq, UNIT, float(t)))(r)
        prob = higgs_radial_problem(mq, UNIT, V, grid, (EndpointRule.dirichlet(),) * 2)
        E0, constancy = rayleigh_quotient(
            prob, lambda r: higgs.qes_example2_groundstate(mq, UNIT, r))
        assert constancy < 1e-6
        assert E0 == pytest.approx(higgs.higgs_energy((0, mq), UNIT), rel=1e-5)
