"""The one transplanted potential and the one ground state of every QesSpec, held
against the paper's two printed families."""

import math
import re

import numpy as np
import pytest

from curvosc import crs, higgs, transform
from curvosc.crs import QesSpec
from curvosc.errors import (
    CurvoscError,
    DegenerateDerivativeError,
    InfiniteBranchError,
    NonpositiveParameterError,
    SingularPointError,
    ZeroAError,
)
from curvosc.numerics import Grid1D, lowest_eigenvalues, rayleigh_quotient, \
    richardson_eigenvalues
from curvosc.params import PhysParams
from curvosc.problems import higgs_radial_problem, qes_channel_problem, qes_rayleigh_problem
from curvosc.special_functions import gudermannian, upsilon_of_r
from curvosc.verify import _example1_half_angle_groundstate, _example1_potential_printed, \
    _example2_potential_printed

UNIT = PhysParams()

# (l, m'_Q) of the nine solvable channels that the benchmark's qes-channels
# workload solves; l = None is the sqrt(lam) x family
QES_CHANNELS = [(l, mq) for l in (3.0, 4.0, None) for mq in (0, 1, 2)]
QES_IDS = [f"{'qes2' if l is None else f'l={l:g}'}-mq={mq}" for l, mq in QES_CHANNELS]
# perfbench/workloads.py QES_LAMBDAS
BENCHMARK_LAMBDAS = (0.5, 0.65, 0.7, 0.8, 0.9, 1.0)


def example1_groundstate_printed(l, mq, params, r):
    """The paper's cos(l Theta) ground state as printed,

    psi0 = (lam r^2)^(-1/4) (1+lam r^2)^(-1/2)
           [tan((l/2) U)]^(gamma/(lam l^2)) [sin(l U)]^(beta/(lam l^2))."""
    lam = params.lam
    spec = QesSpec.example1(l, mq, params)
    u = upsilon_of_r(r, lam)
    ll2 = lam * l * l
    return ((lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5
            * np.tan(0.5 * l * u) ** (spec.gamma / ll2)
            * np.sin(l * u) ** (spec.beta / ll2))


def example2_groundstate_printed(mq, params, r):
    """The paper's sqrt(lam) x ground state as printed,

    psi0 = (lam r^2)^(-1/4) (1+lam r^2)^(-1/2) [sech U]^(beta/lam)
           * exp(-(gamma/lam) gd(U))."""
    lam = params.lam
    spec = QesSpec.example2(mq, params)
    u = upsilon_of_r(r, lam)
    return ((lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5
            * np.cosh(u) ** (-spec.beta / lam)
            * np.exp(-(spec.gamma / lam) * gudermannian(u)))


# each family's potential as printed and as the spec potential that the solver reads;
# every property test of a family takes both
POTENTIAL1 = {"printed": _example1_potential_printed,
              "spec": lambda l, mq, params, r: higgs.qes_potential(
                  QesSpec.example1(l, mq, params), params, r)}
POTENTIAL2 = {"printed": _example2_potential_printed,
              "spec": lambda mq, params, r: higgs.qes_potential(
                  QesSpec.example2(mq, params), params, r)}
NO_BRANCH = ("X_Theta has no zero below the equator, so the channel has no finite branch "
             "(cos(l Theta) needs l > 2)")


@pytest.fixture(params=list(POTENTIAL1))
def potential1(request):
    return POTENTIAL1[request.param]


@pytest.fixture(params=list(POTENTIAL2))
def potential2(request):
    return POTENTIAL2[request.param]


def ground1(l, mq, params, r):
    return higgs.qes_groundstate(QesSpec.example1(l, mq, params), params, r)


def ground2(mq, params, r):
    return higgs.qes_groundstate(QesSpec.example2(mq, params), params, r)


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
    def test_frozen_value(self, potential1):
        # independently computed at l=3, m'_Q=1, r=1, unit parameters
        assert potential1(3.0, 1.0, UNIT, 1.0) == pytest.approx(
            -0.393934752909152, rel=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0])
    def test_two_transcriptions_agree(self, r, mq, potential1):
        a = potential1(3.0, mq, UNIT, r)
        b = example1_potential_regrouped(3.0, mq, UNIT, r)
        assert a == pytest.approx(b, rel=1e-12)

    def test_small_r_inverse_square_coefficient(self, potential1):
        # r^2 V -> (hbar^2/8m)(1-4m'^2) - (hbar^2/m l^4)(l^2-4m'-2)(2m'+1),
        # the bracket term plus the csc^2 pole of the middle term
        l, mq = 3.0, 1.0
        expect = (1 - 4 * mq**2) / 8 - (l * l - 4 * mq - 2) * (2 * mq + 1) / l**4
        for r in (1e-5, 1e-6):
            assert potential1(l, mq, UNIT, r) * r * r == \
                pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0, 0.5])
    def test_l2_reduction_is_exact(self, mq, potential1):
        for r in np.logspace(-1, 1.2, 40):
            diff = potential1(2.0, mq, UNIT, float(r)) - 0.5 * r * r
            assert abs(diff) < 1e-10

    def test_spec_rejects_nonpositive_l(self):
        assert QesSpec.example1(3.0, 1.0, UNIT).A == pytest.approx(-9.0, rel=1e-15)
        for l in (0.0, -1.0):
            with pytest.raises(ValueError):
                QesSpec.example1(l, 1.0, UNIT)

    @pytest.mark.parametrize("l", [0.0, -3.0])
    def test_potential_rejects_nonpositive_l_like_the_spec(self, l, potential1):
        # cos(l Theta) is even in l, so l = -3 gave the l = 3 potential and
        # l = 0 a csc/sec pole error instead of naming l
        with pytest.raises(NonpositiveParameterError) as spec:
            QesSpec.example1(l, 1.0, UNIT)
        with pytest.raises(NonpositiveParameterError) as potential:
            potential1(l, 1.0, UNIT, np.array([0.05, 1.0]))
        assert str(potential.value) == str(spec.value) == f"l must be positive, got {l}"

    @pytest.mark.parametrize("build", [
        lambda l: qes_channel_problem(1.0, QesSpec.example1(l, 1.0, UNIT), UNIT, 100),
        lambda l: qes_rayleigh_problem(QesSpec.example1(l, 1.0, UNIT), UNIT),
    ], ids=["channel", "rayleigh"])
    @pytest.mark.parametrize("l,error,message", [
        (0.0, NonpositiveParameterError, "l must be positive, got 0.0"),
        (-1.0, NonpositiveParameterError, "l must be positive, got -1.0"),
        (1.0, InfiniteBranchError, NO_BRANCH),
        (1.5, InfiniteBranchError, NO_BRANCH),
        (2.0, InfiniteBranchError, NO_BRANCH),
    ], ids=["l=0", "l=-1", "l=1", "l=1.5", "l=2"])
    def test_channel_without_finite_branch_is_a_curvosc_error(self, l, error, message, build):
        # l <= 0 is refused as a parameter, 0 < l <= 2 for want of a sec pole
        with pytest.raises(error) as exc:
            build(l)
        assert isinstance(exc.value, CurvoscError)
        assert str(exc.value) == message

    def test_branch_radius(self):
        assert higgs.qes_branch_radius(QesSpec.example1(3.0, 1.0, UNIT), UNIT) == pytest.approx(
            math.tan(math.pi / 3), rel=1e-15)
        with pytest.raises(InfiniteBranchError):
            higgs.qes_branch_radius(QesSpec.example1(2.0, 1.0, UNIT), UNIT)
        assert higgs.qes_branch_radius(QesSpec.example2(1.0, UNIT), UNIT) == math.inf

    @pytest.mark.parametrize("l", [3.0, None], ids=["example1", "example2"])
    def test_cross_route_against_construction(self, l):
        # the spec potential in Theta vs factorization potential in x + potential map
        mq = 1.0
        if l is None:
            spec, rs = QesSpec.example2(mq, UNIT), np.linspace(0.05, 30.0, 30)
        else:
            spec = QesSpec.example1(l, mq, UNIT)
            rs = np.linspace(0.05, 0.95 * higgs.qes_branch_radius(spec, UNIT), 30)
        for r in rs:
            a = transform.map_potential(
                mq, UNIT, lambda x: crs.potential_general(spec, UNIT, x), float(r))
            b = higgs.qes_potential(spec, UNIT, float(r))
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestExample1GroundState:
    def test_positive_on_branch(self):
        rb = higgs.qes_branch_radius(QesSpec.example1(3.0, 1.0, UNIT), UNIT)
        for r in np.linspace(0.05, 0.99 * rb, 50):
            assert ground1(3.0, 1.0, UNIT, float(r)) > 0

    def test_rejected_beyond_branch(self):
        rb = higgs.qes_branch_radius(QesSpec.example1(3.0, 1.0, UNIT), UNIT)
        with pytest.raises(SingularPointError):
            ground1(3.0, 1.0, UNIT, 1.01 * rb)

    def test_l2_reproduces_radial_ground_state(self):
        # at l = 2 the potential is the plain oscillator; the ground state
        # must be proportional to the N=0 closed form of that channel
        mq = 1
        rs = np.linspace(0.1, 8.0, 60)
        ratios = np.array([
            ground1(2.0, mq, UNIT, float(r))
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
        rb = higgs.qes_branch_radius(QesSpec.example1(l, mq, UNIT), UNIT)
        grid = Grid1D(0.1, 0.9 * rb, 1500)
        V = lambda r: np.vectorize(
            lambda t: _example1_potential_printed(l, mq, UNIT, float(t)))(r)
        prob = higgs_radial_problem(mq, UNIT, V, grid, (None, None))
        E0, constancy = rayleigh_quotient(
            prob, lambda r: ground1(l, mq, UNIT, r))
        assert constancy < 1e-6
        # the defined ground energy coincides with the N=0 closed form of
        # the matching channel (a consequence of the construction)
        assert E0 == pytest.approx(crs.oscillator_energy((0, mq), UNIT), rel=1e-7)


class TestExample2Potential:
    def test_frozen_value(self, potential2):
        assert potential2(0.0, UNIT, 1.0) == pytest.approx(
            0.826305158570773, rel=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0])
    def test_two_transcriptions_agree(self, r, mq, potential2):
        a = potential2(mq, UNIT, r)
        b = example2_potential_regrouped(mq, UNIT, r)
        assert a == pytest.approx(b, rel=1e-12)

    def test_finite_limit_at_infinity(self, potential2):
        # Upsilon -> pi/2: sech(pi/2) ~ 0.39854, tanh(pi/2) ~ 0.91715
        mq = 1.0
        d = UNIT.delta
        s = 1 / math.cosh(math.pi / 2)
        t = math.tanh(math.pi / 2)
        limit = (2 * (s - t) ** 2 + (2 - 4 * mq**2) / 8
                 + 0.5 * (mq * (5 * mq - 3 * d) * s * s
                          + (-2 + 2 * mq * (5 + 4 * mq) - 5 * d) * s * t
                          + (6 + 5 * mq * (2 + mq) + 5 * (1 + mq) * d) * t * t))
        assert potential2(mq, UNIT, 1e7) == pytest.approx(limit, rel=1e-6)
        assert potential2(mq, UNIT, 1e8) == pytest.approx(limit, rel=1e-8)

    def test_half_integer_channel_finite_near_origin(self, potential2):
        # m' = 1/2 cancels the 1/r^2 part of the bracket exactly
        d = UNIT.delta
        v0 = (2.0 + 1.0 / 8.0 + 0.5 * (0.5 * (2.5 - 3 * d)))
        assert potential2(0.5, UNIT, 1e-9) == pytest.approx(v0, rel=1e-8)


class TestPrintedForms:
    @pytest.mark.parametrize("lam", [0.01, 0.5, 0.65, 1.0, 300.0])
    @pytest.mark.parametrize("l", [3.0, 4.0, 24.0, None],
                             ids=["l=3", "l=4", "l=24", "sqrt(lam)x"])
    def test_are_the_spec_potential(self, l, lam):
        # both printed potentials are points of the one spec potential, from
        # chi = 1e-7 to within 1e-7 of the branch end b (measured: 9.6e-14 of |V| + 1)
        params = PhysParams(lam=lam)
        b = math.pi / 2 if l is None else math.pi / l
        r = np.tan(np.linspace(1e-7, b - 1e-7, 400)) / math.sqrt(lam)
        for mq in (0.0, 1.0, 2.0):
            printed = (_example2_potential_printed(mq, params, r) if l is None
                       else _example1_potential_printed(l, mq, params, r))
            V = higgs.qes_potential(QesSpec.transplanted(mq, params, l), params, r)
            assert np.max(np.abs(V - printed) / (np.abs(printed) + 1)) <= 1e-12


class TestExample2GroundState:
    def test_positive(self):
        for r in np.logspace(-3, 2, 40):
            assert ground2(1.0, UNIT, float(r)) > 0

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
            assert ground2(1.0, params, r) == \
                pytest.approx(expected, rel=1e-14)

    def test_uses_gudermannian(self):
        spec = QesSpec.example2(1.0, UNIT)
        r = 1.3
        u = math.atan(r)
        expected = ((r * r) ** -0.25 * (1 + r * r) ** -0.5
                    * math.cosh(u) ** -spec.beta
                    * math.exp(-spec.gamma * gudermannian(u)))
        assert ground2(1.0, UNIT, r) == \
            pytest.approx(expected, rel=1e-14)

    def test_rayleigh_constancy(self):
        mq = 1
        grid = Grid1D(0.1, 25.0, 1500)
        V = lambda r: np.vectorize(
            lambda t: _example2_potential_printed(mq, UNIT, float(t)))(r)
        prob = higgs_radial_problem(mq, UNIT, V, grid, (None, None))
        E0, constancy = rayleigh_quotient(
            prob, lambda r: ground2(mq, UNIT, r))
        assert constancy < 1e-6
        assert E0 == pytest.approx(crs.oscillator_energy((0, mq), UNIT), rel=1e-5)

    def test_resonant_channel_solves_to_the_closed_form(self):
        # m' = m'_Q has the indicial pair {-1/2, +1/2} at the origin and
        # {3/2, 5/2} at the equator; the ground state that closes both ends
        # selects the closed-form family
        E0 = lowest_eigenvalues(qes_channel_problem(1, QesSpec.example2(1, UNIT), UNIT, 8001),
                                1)[0]
        assert E0 == pytest.approx(crs.oscillator_energy((0, 1), UNIT), rel=1e-7)


# general members (lam, omega, m'_Q, A/lam, B, C1, C2, right wall), one or more of
# each shape of X_Theta/u: C2 cos t - C1 sin t (A < 0, with a zero below the
# equator and without), C2 cosh t + C1 sinh t with |C2| > |C1| (cosh-like),
# |C1| > |C2| (sinh-like, with a zero at r_b and without) and C1 = +-C2 (exponential).
# A wall of None stands for 0.9 r_b, r_b = qes_branch_radius
MEMBERS = [
    (0.85, 0.73, 0.0, -4.96, -0.81, 0.17, 0.82, None),
    (0.67, 0.63, 1.5, -1.6, 0.10, -0.88, 0.13, 8.0),
    (1.62, 1.2, 1.5, 1.94, 0.59, 0.40, -0.51, 6.0),
    (1.11, 1.5, 0.0, 3.95, 0.99, 0.64, -0.43, None),
    (0.97, 1.1, 0.0, 3.88, -0.88, -0.87, -0.58, 8.0),
    (1.0, 1.2, 1.0, 2.5, 0.3, 0.7, 0.7, 8.0),
    (1.0, 1.2, 1.0, 2.5, -0.4, -0.5, 0.5, 4.0),
]
MEMBER_IDS = ["cos", "cos-no-zero", "cosh", "sinh", "sinh-no-zero", "exp", "exp-decaying"]


def member(lam, omega, mq, a, B, C1, C2):
    params = PhysParams(lam=lam, omega=omega)
    return QesSpec.build(a * lam, B, C1, C2, mq, params), params


class TestGroundStateFormula:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.3, 300.0])
    @pytest.mark.parametrize("l", [3.0, 4.0, 5.5, 24.0, None],
                             ids=["l=3", "l=4", "l=5.5", "l=24", "sqrt(lam)x"])
    def test_matches_the_printed_forms(self, l, lam):
        b = math.pi / 2 if l is None else math.pi / l
        for omega in (0.7, 1.3):
            params = PhysParams(lam=lam, omega=omega)
            r = np.tan(np.linspace(1e-4, 0.999, 200) * b) / math.sqrt(lam)
            for mq in (0.0, 1.0, 1.5, 2.0):
                printed = (example2_groundstate_printed(mq, params, r) if l is None
                           else example1_groundstate_printed(l, mq, params, r))
                psi = higgs.qes_groundstate(QesSpec.transplanted(mq, params, l), params, r)
                assert np.max(np.abs(psi / printed - 1)) <= 1e-13

    @pytest.mark.parametrize("lam,omega,mq,a,B,C1,C2,right", MEMBERS, ids=MEMBER_IDS)
    def test_member_is_the_channel_ground_state(self, lam, omega, mq, a, B, C1, C2, right):
        # the Rayleigh quotient of the state on the factorization potential,
        # mapped to the radial channel, is constant and is the N = 0 level
        # (measured: constancy 1.0e-6-3.2e-6, energy 1.2e-11-1.9e-9)
        spec, params = member(lam, omega, mq, a, B, C1, C2)
        right = right or 0.9 * higgs.qes_branch_radius(spec, params)
        V = lambda r: transform.map_potential(
            mq, params, lambda x: crs.potential_general(spec, params, x), r)
        prob = higgs_radial_problem(mq, params, V,
                                    Grid1D(0.1 / math.sqrt(lam), right, 16000), (None, None))
        E0, constancy = rayleigh_quotient(prob, lambda r: higgs.qes_groundstate(spec, params, r))
        assert constancy <= 1e-5
        assert E0 == pytest.approx(crs.oscillator_energy((0, mq), params), rel=1e-7)

    @pytest.mark.parametrize("index", [0, 3], ids=["cos", "sinh"])
    def test_refused_past_the_first_zero(self, index):
        spec, params = member(*MEMBERS[index][:-1])
        rb = higgs.qes_branch_radius(spec, params)
        assert math.isfinite(rb) and higgs.qes_groundstate(spec, params, 0.999 * rb) > 0
        with pytest.raises(SingularPointError):
            higgs.qes_groundstate(spec, params, np.array([0.5 * rb, 1.001 * rb]))

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_refused_at_nonpositive_radius(self, r):
        spec, params = member(*MEMBERS[2][:-1])
        with pytest.raises(SingularPointError):
            higgs.qes_groundstate(spec, params, r)

    @pytest.mark.parametrize("A,C1,C2,error", [
        (0.0, 1.0, 0.0, ZeroAError),
        (-2.0, 0.0, 0.0, DegenerateDerivativeError),
        (2.0, 0.0, 0.0, DegenerateDerivativeError),
    ], ids=["A=0", "constant-X-cos", "constant-X-cosh"])
    def test_degenerate_spec_is_refused(self, A, C1, C2, error):
        spec = QesSpec.build(A, 0.5, C1, C2, 1.0, UNIT)
        with pytest.raises(error):
            higgs.qes_groundstate(spec, UNIT, 1.0)
        with pytest.raises(error):
            higgs.qes_branch_radius(spec, UNIT)


class TestEndProfile:
    @pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("l,mq", QES_CHANNELS, ids=QES_IDS)
    def test_residues(self, l, mq, lam):
        params = PhysParams(lam=lam)
        spec = QesSpec.transplanted(mq, params, l)
        if l is None:
            expected = ((0.0, -0.5), (math.pi / 2, 1.5))
        else:
            ll2 = lam * l * l
            expected = ((0.0, -0.5 + (spec.beta + spec.gamma) / ll2),
                        (math.pi / l, (spec.beta - spec.gamma) / ll2))
        for end, sigma in expected:
            assert spec.end_profile(params, end) == pytest.approx(sigma, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("l,mq", QES_CHANNELS, ids=QES_IDS)
    def test_residue_is_the_local_power_of_the_ground_state(self, l, mq, lam):
        # log psi0 - sigma log d is analytic at the end: a degree-8 fit on d
        # in [1e-3, 0.05] meets it to 1e-9, where a wrong sigma leaves a
        # log d term that no polynomial fits
        params = PhysParams(lam=lam)
        spec = QesSpec.transplanted(mq, params, l)
        top = 0.05
        d = np.linspace(1e-3, top, 60)
        for end in (0.0, math.pi / 2 if l is None else math.pi / l):
            theta = end + d if end == 0 else end - d
            psi = higgs.qes_groundstate(spec, params, np.tan(theta) / math.sqrt(lam))
            g = np.log(psi) - spec.end_profile(params, end) * np.log(d)
            coef = np.polynomial.polynomial.polyfit(d / top, g, 8)
            assert np.max(np.abs(np.polynomial.polynomial.polyval(d / top, coef) - g)) < 1e-9


class TestSolvableChannel:
    # the channel m' = m'_Q in the polar frame, closed at both ends by its
    # ground state, on the CLI's 2000 points
    @pytest.mark.parametrize("lam,tol", [(lam, 1e-6) for lam in BENCHMARK_LAMBDAS]
                             + [(0.1, 2e-6), (2.0, 2e-6), (10.0, 2e-6), (0.01, 1e-5)])
    @pytest.mark.parametrize("l,mq", QES_CHANNELS, ids=QES_IDS)
    def test_ground_state_is_the_closed_form(self, l, mq, lam, tol):
        params = PhysParams(lam=lam)
        spec = QesSpec.transplanted(mq, params, l)
        vals = lowest_eigenvalues(qes_channel_problem(mq, spec, params, 2000), 3)
        exact = crs.oscillator_energy((0, mq), params)
        assert abs(vals[0] - exact) <= tol * exact
        # and no spurious level below it
        assert np.min(vals) >= exact * (1 - tol)

    @pytest.mark.parametrize("mq", [0, 1, 2])
    @pytest.mark.parametrize("l", [6.0, 8.0, 12.0, 16.0, 24.0])
    def test_ground_state_is_the_closed_form_at_larger_l(self, l, mq):
        # measured: at most 7.2e-7 relative; the error grows with l (2.1e-5
        # at l = 100) as (0, pi/l) shrinks on a fixed number of points
        spec = QesSpec.example1(l, mq, UNIT)
        vals = lowest_eigenvalues(qes_channel_problem(mq, spec, UNIT, 2000), 3)
        exact = crs.oscillator_energy((0, mq), UNIT)
        assert abs(vals[0] - exact) <= 1e-6 * exact
        assert np.min(vals) >= exact * (1 - 1e-6)

    def test_coarse_grid_has_no_spurious_level(self):
        # qes2 m'_Q = 0 at lam = 0.65 and n = 1000 had an eigenvalue at -273.57
        # below 1.314, 4.282, 8.640 with the r-frame closures
        params = PhysParams(lam=0.65)
        vals = lowest_eigenvalues(qes_channel_problem(0, QesSpec.example2(0, params), params, 1000),
                                  3)
        assert vals == pytest.approx([1.3765, 4.8714, 9.2995], abs=1e-4)
        assert vals[0] == pytest.approx(crs.oscillator_energy((0, 0), params), rel=1e-5)

    @pytest.mark.parametrize("name", ["cos", "cosh", "sinh", "sinh-no-zero", "exp",
                                      "exp-decaying"])
    def test_member_ground_state_is_the_closed_form(self, name):
        # any real member solves through its spec: the 2000/4001 Richardson
        # pair reads 9.7e-12-1.3e-9, where single grids at n = 2000 read up to
        # 2.6e-6 (exp-decaying), both converging at order 2
        spec, params = member(*MEMBERS[MEMBER_IDS.index(name)][:-1])
        E0 = richardson_eigenvalues(qes_channel_problem(spec.mprime_q, spec, params, 2000), 1)[0][0]
        assert abs(E0 / crs.oscillator_energy((0, spec.mprime_q), params) - 1) <= 1e-8

    def test_member_without_a_branch_end_is_refused(self):
        spec, params = member(*MEMBERS[MEMBER_IDS.index("cos-no-zero")][:-1])
        with pytest.raises(InfiniteBranchError, match=re.escape(NO_BRANCH)):
            qes_channel_problem(spec.mprime_q, spec, params, 2000)


class TestNeighbourChannel:
    def test_ground_eigenvalue_converges(self):
        # the channel m' = 2 beside m'_Q = 1, closed at the equator by the
        # closed form's root 3/2: n = 2000 and 8001 agree to 6.5e-6, where a
        # cut at r = 60 left 1.8e-4
        spec = QesSpec.example2(1, UNIT)
        E0 = [lowest_eigenvalues(qes_channel_problem(2, spec, UNIT, n), 1)[0] for n in (2000, 8001)]
        assert E0[0] == pytest.approx(E0[1], rel=2e-5)

    @pytest.mark.parametrize("lam", [0.01, 1.0, 7.0])
    @pytest.mark.parametrize("step", [-1, 1])
    @pytest.mark.parametrize("mq", [0, 1, 2])
    @pytest.mark.parametrize("l", [3.0, 4.0, 7.0, None], ids=["l=3", "l=4", "l=7", "qes2"])
    def test_origin_root_is_the_indicial_formula(self, l, mq, step, lam):
        # the channel m' = m'_Q + step differs from m'_Q by (m'^2 - m'_Q^2)/r^2,
        # so s^2 = 1/4 + m'^2 - m'_Q^2 [- 2 (l^2 - 4 m'_Q - 2)(2 m'_Q + 1)/l^4];
        # the closed form's origin residue must reproduce the l-term
        mprime = mq + step
        s2 = 0.25 + mprime**2 - mq**2
        if l is not None:
            s2 -= 2 * (l * l - 4 * mq - 2) * (2 * mq + 1) / l**4
        params = PhysParams(lam=lam)
        prob = qes_channel_problem(mprime, QesSpec.transplanted(mq, params, l), params, 2000)
        if s2 < 0:
            assert prob.bc[0] is None and prob.grid.a == 1e-3
        else:
            assert prob.bc[0].exponent == pytest.approx(math.sqrt(s2), rel=1e-12)
            assert prob.bc[0].profile is None and prob.grid.a == 0.0
        assert prob.bc[1].profile is None
