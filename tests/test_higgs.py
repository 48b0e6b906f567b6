import dataclasses
import math
import re

import numpy as np
import pytest

from curvosc import crs, higgs, transform
from curvosc.errors import (
    CurvoscError,
    NonpositiveCurvatureError,
    NonpositiveParameterError,
    ParameterOverflowError,
    QuantumNumberError,
    SingularPointError,
)
from curvosc.numerics import Grid1D, residual_norm
from curvosc.params import PhysParams

UNIT = PhysParams()


class TestPhysParams:
    @pytest.mark.parametrize("field,value", [
        ("mass", 0.0), ("mass", -1.0), ("hbar", -1.0), ("hbar", math.nan),
        ("omega", 0.0), ("omega", math.nan)])
    def test_nonpositive_field_is_a_curvosc_error(self, field, value):
        # the CLI prints the same line; a library caller catches it as one
        # of the package's own errors
        with pytest.raises(NonpositiveParameterError,
                           match=f"^{field} must be positive, got {value}$") as exc:
            PhysParams(**{field: value})
        assert isinstance(exc.value, CurvoscError) and exc.value.inputs == (field,)


BIG = 1e200
# formulas that square a parameter, each called with one parameter whose
# square overflows, and that parameter's name
SQUARES_A_PARAMETER = {
    "crs_operator_coefficients": (
        lambda: crs.crs_operator_coefficients(PhysParams(hbar=BIG), 1.0), "hbar"),
    "crs_potential_special-mprime_q": (
        lambda: crs.crs_potential_special(BIG, UNIT, 0.5), "mprime_q"),
    "crs_potential_special-omega": (
        lambda: crs.crs_potential_special(0.5, PhysParams(omega=BIG), 0.5), "omega"),
    "map_potential-mprime_q": (
        lambda: transform.map_potential(BIG, UNIT, lambda x: 0 * x, 1.0), "mprime_q"),
    "map_potential-hbar": (
        lambda: transform.map_potential(0.5, PhysParams(hbar=BIG), lambda x: 0 * x, 1.0),
        "hbar"),
    "oscillator_potential": (
        lambda: higgs.oscillator_potential(PhysParams(omega=BIG), 1.0), "omega"),
    "special_params": (lambda: crs.special_params(1.0, PhysParams(omega=BIG)), "omega"),
    "example1-l": (lambda: crs.QesSpec.example1(BIG, 1.0, UNIT), "l"),
    "example2-mprime_q": (lambda: crs.QesSpec.example2(BIG, UNIT), "mprime_q"),
    "example2-hbar": (lambda: crs.QesSpec.example2(1.0, PhysParams(hbar=BIG)), "hbar"),
    "potential_general": (lambda: crs.potential_general(
        crs.QesSpec.example2(1.0, UNIT), PhysParams(hbar=BIG), 0.5), "hbar"),
    "qes_potential-mprime_q": (lambda: higgs.qes_potential(
        dataclasses.replace(crs.QesSpec.example1(3.0, 1.0, UNIT), mprime_q=BIG), UNIT, 0.5),
        "mprime_q"),
    "qes_potential-omega": (lambda: higgs.qes_potential(
        crs.QesSpec.example2(1.0, PhysParams(omega=BIG)), PhysParams(omega=BIG), 0.5), "omega"),
    "qes_potential-hbar": (lambda: higgs.qes_potential(
        crs.QesSpec.example2(1.0, UNIT), PhysParams(hbar=BIG), 0.5), "hbar"),
    "higgs_radial_coefficients-hbar": (
        lambda: higgs.higgs_radial_coefficients(0, PhysParams(hbar=BIG), 0.5), "hbar"),
    "higgs_radial_coefficients-mprime": (
        lambda: higgs.higgs_radial_coefficients(BIG, UNIT, 0.5), "mprime"),
}


@pytest.mark.parametrize("case", SQUARES_A_PARAMETER)
def test_overflowing_square_names_the_parameter(case):
    # float ** raised Python's bare OverflowError (34, 'Numerical result out
    # of range') in each of these
    call, name = SQUARES_A_PARAMETER[case]
    with pytest.raises(ParameterOverflowError,
                       match=f"^{re.escape(name)} = 1e\\+200 has no finite square$") as exc:
        call()
    # the error blames the input by its library name
    assert exc.value.inputs == (name,)


class TestOscillatorPotential:
    def test_value(self):
        # (1/2) m omega^2 r^2 with m = 2, omega = 3, r = 1.5
        assert higgs.oscillator_potential(PhysParams(mass=2.0, omega=3.0), 1.5) == 20.25


class TestRadialCoefficients:
    def test_p0_frozen_value(self):
        # m'=0, r=1, lam=1: p0 = -(1/2)(3 + 15/4) = -27/8
        _, _, p0 = higgs.higgs_radial_coefficients(0, UNIT, 1.0)
        assert p0 == pytest.approx(-27.0 / 8.0, rel=1e-15)

    def test_flat_limit(self):
        p = PhysParams(lam=0.0)
        for r in (0.5, 2.0):
            p2, p1, p0 = higgs.higgs_radial_coefficients(1, p, r)
            assert p2 == -0.5
            assert p1 == pytest.approx(-0.5 / r, rel=1e-15)
            assert p0 == pytest.approx(0.5 / r**2, rel=1e-15)

    def test_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            higgs.higgs_radial_coefficients(0, UNIT, 0.0)

    def test_overflowing_curvature_is_a_typed_error(self):
        # lam^2 overflows for lam above about 1.3e154
        with pytest.raises(ParameterOverflowError, match="lam"):
            higgs.higgs_radial_coefficients(0, PhysParams(lam=1e300), 1.0)

    def test_self_adjoint_certificate(self):
        # weight w = r makes (w P)'/w equal the first-derivative coefficient:
        # (Q - P')/P = 1/r with P = (1+lam r^2)^2, Q = (1+lam r^2)(1+5 lam r^2)/r
        lam, h = 0.7, 1e-6
        P = lambda r: (1 + lam * r * r) ** 2
        for r in (0.3, 1.1, 2.6):
            dP = ((r + h) * P(r + h) - (r - h) * P(r - h)) / (2 * h)
            Q = (1 + lam * r * r) * (1 + 5 * lam * r * r) / r
            assert dP / r == pytest.approx(Q, rel=1e-9)


class TestWavefunction:
    def test_origin_values(self):
        assert higgs.higgs_wavefunction((0, 0), UNIT, 0.0) == 1.0
        assert higgs.higgs_wavefunction((0, 1), UNIT, 0.0) == 0.0
        assert higgs.higgs_wavefunction((2, 3), UNIT, 0.0) == 0.0

    def test_ground_state_nodeless_decreasing(self):
        rs = np.linspace(0.0, 10, 300)
        vals = [higgs.higgs_wavefunction((0, 0), UNIT, float(r)) for r in rs]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("N,mp", [(1, 0), (2, 1), (3, 2)])
    def test_node_count_equals_n(self, N, mp):
        rs = np.linspace(1e-3, 25, 4000)
        vals = np.array([higgs.higgs_wavefunction((N, mp), UNIT, float(r)) for r in rs])
        assert int(np.sum(vals[:-1] * vals[1:] < 0)) == N

    @pytest.mark.parametrize("N", [0, 1, 2])
    @pytest.mark.parametrize("mp", [0, 1, 2])
    def test_eigen_equation_residual(self, N, mp):
        E = crs.oscillator_energy((N, mp), UNIT)
        grid = Grid1D(0.05, 20.0, 800)
        res = residual_norm(
            lambda r: higgs.higgs_radial_coefficients(mp, UNIT, r),
            lambda r: 0.5 * r * r,
            lambda r: higgs.higgs_wavefunction((N, mp), UNIT, r),
            E, grid)
        assert res < 1e-6

    def test_parity_in_mprime(self):
        for r in (0.4, 1.3):
            assert higgs.higgs_wavefunction((1, 2), UNIT, r) == \
                higgs.higgs_wavefunction((1, -2), UNIT, r)

    def test_gaussian_limit_at_small_lam(self):
        # (1 + lam r^2)^-expo with expo ~ 1/(2 lam): a base rounded to 1
        # left the ground state 5e-3 off exp(-r^2/2) at lam = 1e-14
        r = np.linspace(0.5, 3.0, 26)
        psi = higgs.higgs_wavefunction((0, 0), PhysParams(lam=1e-14), r)
        assert np.max(np.abs(psi / np.exp(-r * r / 2) - 1)) <= 1e-12


class TestEnergy:
    def test_flat_ground_state(self):
        p = PhysParams(lam=0.0, omega=1.7)
        assert crs.oscillator_energy((0, 0), p) == pytest.approx(1.7, rel=1e-15)
        assert crs.oscillator_energy((1, 2), p) == pytest.approx(1.7 * 5, rel=1e-15)

    def test_unit_ground_state(self):
        assert crs.oscillator_energy((0, 0), UNIT) == pytest.approx(
            math.sqrt(5) / 2 + 0.5, rel=1e-15)

    def test_degenerate_pairs(self):
        # E depends only on 2N + |m'| + 1
        assert crs.oscillator_energy((2, 1), UNIT) == crs.oscillator_energy((1, 3), UNIT)
        assert crs.oscillator_energy((3, 0), UNIT) == crs.oscillator_energy((0, 6), UNIT)

    def test_parity(self):
        assert crs.oscillator_energy((1, 2), UNIT) == crs.oscillator_energy((1, -2), UNIT)

    @pytest.mark.parametrize("qn,lam,error", [
        ((0, 0), -3.0, NonpositiveCurvatureError),
        ((0, 0), math.nan, NonpositiveCurvatureError),
        ((0, math.nan), 1.0, QuantumNumberError),
        ((0, math.inf), 1.0, QuantumNumberError),
        ((1, -math.inf), 0.5, QuantumNumberError),
        ((0, 1e200), 1.0, ParameterOverflowError),
        ((1, 0), 1e308, ParameterOverflowError),
        ((1, 0), math.inf, ParameterOverflowError),
    ], ids=["lam<0", "lam=nan", "mprime=nan", "mprime=inf", "mprime=-inf",
            "mprime=1e200", "lam=1e308", "lam=inf"])
    def test_outside_the_domain_is_a_curvosc_error(self, qn, lam, error):
        with pytest.raises(error) as exc:
            crs.oscillator_energy(qn, PhysParams(lam=lam))
        assert isinstance(exc.value, CurvoscError)

    def test_shared_spectrum_takes_the_flat_limit(self):
        p = PhysParams(lam=0.0, omega=1.3)
        assert crs.oscillator_energy((2, 1), p) == pytest.approx(1.3 * 6, rel=1e-15)
        with pytest.raises(ParameterOverflowError):
            crs.oscillator_energy((0, 1e200), p)
