import math

import numpy as np
import pytest

from curvosc import crs
from curvosc.crs import QesSpec
from curvosc.errors import (
    DegenerateDerivativeError,
    NonpositiveCurvatureError,
    SingularPointError,
    ZeroAError,
)
from curvosc.numerics import Grid1D, residual_norm
from curvosc.params import PhysParams
from curvosc.special_functions import theta_of_x
from curvosc.verify import _crs_wavefunction_plain_sin

UNIT = PhysParams()


class TestSpecialParams:
    def test_unit_values(self):
        spec = crs.special_params(0.0, UNIT)
        sqrt5 = math.sqrt(5.0)
        assert spec.delta == pytest.approx(sqrt5, rel=1e-15)
        assert spec.beta == pytest.approx(2 + sqrt5, rel=1e-15)
        assert spec.gamma == pytest.approx(-sqrt5, rel=1e-15)

    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0, 0.5, -1.0])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.0])
    def test_mprimeq_roundtrip(self, mq, lam):
        p = PhysParams(lam=lam)
        spec = crs.special_params(mq, p)
        assert (spec.beta + spec.gamma) / (4 * lam) - 0.5 == pytest.approx(mq, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.0])
    def test_beta_gamma_difference(self, lam):
        p = PhysParams(lam=lam)
        spec = crs.special_params(1.0, p)
        assert spec.beta - spec.gamma == pytest.approx(
            2 * lam + 2 * lam * p.delta, rel=1e-14)

    def test_two_formula_forms_coincide(self):
        for lam in (0.1, 1.0, 7.0):
            p = PhysParams(lam=lam, omega=1.3)
            a = crs.special_params(1.5, p)
            b = QesSpec.build(A=-4 * lam, B=0.0, C1=1.0, C2=0.0, mprime_q=1.5, params=p)
            assert a.beta == pytest.approx(b.beta, rel=1e-14)
            assert a.gamma == pytest.approx(b.gamma, rel=1e-14)
            assert a.c_shift == pytest.approx(b.c_shift, rel=1e-14)

    def test_rejects_flat(self):
        with pytest.raises(NonpositiveCurvatureError):
            crs.special_params(0.0, PhysParams(lam=0.0))

    @pytest.mark.parametrize("lam,omega_prime,delta", [
        (1e300, 5e299, 1.0), (1e200, 5e199, 1.0), (1e-200, 1.0, 2e200)])
    def test_frequency_and_delta_stay_finite(self, lam, omega_prime, delta):
        # squaring lam or 1/lam would overflow at these curvatures
        p = PhysParams(lam=lam)
        assert p.omega_prime == pytest.approx(omega_prime, rel=1e-15)
        assert p.delta == pytest.approx(delta, rel=1e-15)
        assert p.omega_prime == pytest.approx(lam * p.hbar * p.delta / (2 * p.mass), rel=1e-15)


class TestXGeneral:
    def test_special_case_is_cos_2theta(self):
        spec = crs.special_params(1.0, UNIT)
        for x in (0.1, 0.7, 2.0):
            assert crs.x_general(spec, UNIT, x) == pytest.approx(
                math.cos(2 * theta_of_x(x, 1.0)), rel=1e-14)

    def test_cos_at_origin(self):
        spec = QesSpec.build(A=-1.0, B=0.0, C1=1.0, C2=0.0, mprime_q=0.0, params=UNIT)
        assert crs.x_general(spec, UNIT, 0.0) == 1.0

    def test_zero_a_rejected(self):
        spec = QesSpec.build(A=0.0, B=1.0, C1=1.0, C2=0.0, mprime_q=0.0, params=UNIT)
        with pytest.raises(ZeroAError):
            crs.x_general(spec, UNIT, 1.0)

    def test_positive_a_with_c2_gives_sinh(self):
        spec = QesSpec.build(A=4.0, B=0.0, C1=0.0, C2=1.5, mprime_q=0.0, params=UNIT)
        for x in (-1.2, 0.3, 2.0):
            assert crs.x_general(spec, UNIT, x) == pytest.approx(
                1.5 * math.sinh(2 * theta_of_x(x, 1.0)), rel=1e-14)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
    def test_example2_is_sqrt_lam_x(self, lam):
        p = PhysParams(lam=lam)
        spec = QesSpec.example2(1.0, p)
        assert crs.x_general(spec, p, 0.7) == pytest.approx(math.sqrt(lam) * 0.7, rel=1e-15)
        xs = np.array([[-3.0, -0.4, 0.1], [0.9, 2.0, 5.0]])
        np.testing.assert_allclose(crs.x_general(spec, p, xs), math.sqrt(lam) * xs,
                                   rtol=1e-15, atol=0)


class TestConstraint:
    def test_special_choice_satisfies(self):
        lam = 1.0
        X = lambda x: math.cos(2 * theta_of_x(x, lam))
        worst = max(abs(crs.x_constraint_residual(X, -4 * lam, 0.0, UNIT, x))
                    for x in np.linspace(0.1, 5, 50))
        assert worst < 1e-6

    def test_linear_solution_satisfies(self):
        X = lambda x: math.sqrt(1.0) * x
        worst = max(abs(crs.x_constraint_residual(X, 1.0, 0.0, UNIT, x))
                    for x in np.linspace(0.1, 5, 50))
        assert worst < 1e-6

    def test_wrong_input_has_known_residual(self):
        # X = x^2 with A = B = 0 leaves exactly 2K + 2 lam x^2
        for x in (0.3, 1.0, 2.0):
            res = crs.x_constraint_residual(lambda t: t * t, 0.0, 0.0, UNIT, x)
            assert res == pytest.approx(2 * (1 + x * x) + 2 * x * x, rel=1e-6)


class TestPotentialGeneral:
    def test_constant_when_beta_gamma_zero(self):
        spec = QesSpec(A=-4.0, B=0.0, C1=1.0, C2=0.0, beta=0.0, gamma=0.0,
                       c_shift=3.25, mprime_q=0.0, delta=1.0)
        for x in (0.2, 1.0, 2.0):
            assert crs.potential_general(spec, UNIT, x) == 3.25

    def test_degenerate_derivative_rejected(self):
        # X = cos(2 Theta) is flat at x = 0
        spec = crs.special_params(0.0, UNIT)
        with pytest.raises(DegenerateDerivativeError):
            crs.potential_general(spec, UNIT, 0.0)

    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0, 0.5])
    def test_matches_special_closed_form(self, mq):
        spec = crs.special_params(mq, UNIT)
        for x in np.linspace(0.1, 5, 25):
            a = crs.potential_general(spec, UNIT, float(x))
            b = crs.crs_potential_special(mq, UNIT, float(x))
            assert a == pytest.approx(b, rel=1e-10)


class TestPotentialSpecial:
    def test_half_integer_channel_finite_at_origin(self):
        v0 = crs.crs_potential_special(0.5, UNIT, 0.0)
        assert v0 == pytest.approx(-1.0 / 8.0, rel=1e-15)

    def test_singular_at_origin_otherwise(self):
        with pytest.raises(SingularPointError):
            crs.crs_potential_special(0.0, UNIT, 0.0)

    def test_monotone_beyond_some_point(self):
        xs = np.linspace(0.8, 0.99 * crs.x_pole(UNIT), 200)
        vals = [crs.crs_potential_special(0.0, UNIT, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestWavefunction:
    def test_n0_reduces_to_prefactor(self):
        # 2F1 factor is 1 at N = 0, so the two conventions differ only in
        # the cosine base
        mq = 1
        phi = crs.crs_wavefunction_special((0, mq), UNIT, 0.7)
        th = theta_of_x(0.7, 1.0)
        expo = 1 + mq / 2 + UNIT.omega_prime / 2
        expected = (abs(complex(-math.sin(2 * th) ** 2) ** -0.75)
                    * math.sin(th) ** 2 * math.tan(th) ** mq
                    * (math.cos(th) ** 2) ** expo)
        assert abs(phi) == pytest.approx(expected, rel=1e-13)

    def test_eigen_equation_residual_sin_squared(self):
        # the sin^2 convention satisfies the eigen-equation
        mq, N = 0, 1
        E = crs.crs_energy((N, mq), UNIT)
        grid = Grid1D(0.1, 0.9 * crs.x_pole(UNIT), 400)
        res = residual_norm(
            lambda x: crs.crs_operator_coefficients(UNIT, x),
            lambda x: crs.crs_potential_special(mq, UNIT, x),
            lambda x: crs.crs_wavefunction_special_real((N, mq), UNIT, x),
            E, grid)
        assert res < 1e-6

    def test_plain_sin_convention_fails_equation(self):
        mq, N = 0, 1
        E = crs.crs_energy((N, mq), UNIT)
        grid = Grid1D(0.1, 0.9 * crs.x_pole(UNIT), 400)
        res = residual_norm(
            lambda x: crs.crs_operator_coefficients(UNIT, x),
            lambda x: crs.crs_potential_special(mq, UNIT, x),
            lambda x: _crs_wavefunction_plain_sin((N, mq), UNIT, x),
            E, grid)
        assert res > 1e-2

    def test_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            crs.crs_wavefunction_special((0, 0), UNIT, 0.0)


class TestEnergy:
    def test_unit_ground_state(self):
        # omega' = sqrt(5)/2, E = sqrt(5)/2 + 1/2
        assert crs.crs_energy((0, 0), UNIT) == pytest.approx(
            math.sqrt(5) / 2 + 0.5, rel=1e-15)

    def test_increasing_in_n(self):
        for mq in (0, 1, 2):
            es = [crs.crs_energy((N, mq), UNIT) for N in range(5)]
            assert all(b > a for a, b in zip(es, es[1:]))

    def test_gap_closed_form(self):
        p = PhysParams(lam=0.7, omega=1.2)
        for N in (1, 2, 3):
            for mq in (0, 1):
                gap = crs.crs_energy((N, mq), p) - crs.crs_energy((N - 1, mq), p)
                closed = (2 * p.hbar * p.omega_prime
                          + p.lam * p.hbar**2 / (2 * p.mass) * (8 * N + 4 * abs(mq)))
                assert gap == pytest.approx(closed, rel=1e-13)

    def test_rejects_flat(self):
        with pytest.raises(NonpositiveCurvatureError):
            crs.crs_energy((0, 0), PhysParams(lam=0.0))


class TestOperatorCoefficients:
    def test_at_origin(self):
        assert crs.crs_operator_coefficients(UNIT, 0.0) == (-0.5, 0.0, 0.0)

    def test_flat_everywhere(self):
        p = PhysParams(lam=0.0)
        for x in (0.0, 1.0, 5.0):
            assert crs.crs_operator_coefficients(p, x) == (-0.5, 0.0, 0.0)

    def test_self_adjoint_certificate(self):
        # with w = (1+lam x^2)^(-1/2): (w K)'/w = lam x
        lam, h = 1.3, 1e-6
        w = lambda x: (1 + lam * x * x) ** -0.5
        for x in (0.3, 1.0, 2.4):
            d = (w(x + h) * (1 + lam * (x + h) ** 2)
                 - w(x - h) * (1 + lam * (x - h) ** 2)) / (2 * h)
            assert d / w(x) == pytest.approx(lam * x, rel=1e-8)
