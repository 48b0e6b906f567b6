import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvosc import crs, higgs, transform
from curvosc.errors import (
    NegativeRadiusError,
    NonpositiveCurvatureError,
    OutOfImageError,
    SingularPointError,
)
from curvosc.params import PhysParams
from curvosc.special_functions import theta_of_x, upsilon_of_r

UNIT = PhysParams()


class TestCoordinateMap:
    def test_origin(self):
        assert transform.x_of_r(UNIT, 0.0) == 0.0
        assert transform.r_of_x(UNIT, 0.0) == 0.0

    def test_supremum(self):
        # x(r) -> sinh(pi/2)/sqrt(lam) ~ 2.3013/sqrt(lam), never attained
        assert crs.x_pole(UNIT) == pytest.approx(2.3012989023072947, rel=1e-15)
        assert transform.x_of_r(UNIT, 1e9) < crs.x_pole(UNIT)

    @settings(derandomize=True)
    @given(st.floats(1e-3, 1e3))
    def test_roundtrip(self, r):
        assert transform.r_of_x(UNIT, transform.x_of_r(UNIT, r)) == pytest.approx(r, rel=1e-12)

    def test_strictly_increasing(self):
        rs = np.logspace(-2, 2, 100)
        xs = [transform.x_of_r(UNIT, float(r)) for r in rs]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_theta_upsilon_identity(self, lam):
        params = PhysParams(lam=lam)
        for r in np.logspace(-3, 3, 30):
            th = theta_of_x(transform.x_of_r(params, float(r)), lam)
            assert th == pytest.approx(upsilon_of_r(float(r), lam), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(NegativeRadiusError):
            transform.x_of_r(UNIT, -1.0)
        with pytest.raises(OutOfImageError):
            transform.r_of_x(UNIT, crs.x_pole(UNIT))


class TestGFactor:
    def test_constant_phase(self):
        args = {cmath.phase(transform.g_factor(UNIT, r)) for r in (0.1, 1.0, 7.0)}
        ref = cmath.phase(complex(-2, 2))
        assert all(a == pytest.approx(ref, abs=1e-15) for a in args)

    def test_modulus_at_one(self):
        # |g(1)| = 2 sqrt2 * 2^(-1/2) = 2 for lam = 1
        assert abs(transform.g_factor(UNIT, 1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            transform.g_factor(UNIT, 0.0)


class TestMapPotential:
    def test_zero_source_half_integer_channel(self):
        for r in (0.2, 1.0, 4.0):
            assert transform.map_potential(0.5, UNIT, lambda x: 0.0, r) == pytest.approx(
                1.0 / 8.0, rel=1e-15)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("mq", [0.0, 1.0, 2.0, 0.5])
    def test_special_model_closure(self, lam, mq):
        params = PhysParams(lam=lam)
        for r in np.logspace(-0.5, 1.0, 40):
            mapped = transform.map_potential(
                mq, params, lambda x: crs.crs_potential_special(mq, params, x), float(r))
            assert mapped == pytest.approx(0.5 * r * r, rel=1e-12)


class TestMapWavefunction:
    def test_identity_source_returns_g(self):
        for r in (0.3, 1.0, 2.0):
            assert transform.map_wavefunction(UNIT, lambda x: 1.0, r) == \
                transform.g_factor(UNIT, r)

    def test_linearity(self):
        phi1 = lambda x: complex(x, 0.2)
        phi2 = lambda x: complex(math.sin(x), -x)
        a, b = 1.3, -0.7j
        for r in (0.5, 1.5):
            lhs = transform.map_wavefunction(UNIT, lambda x: a * phi1(x) + b * phi2(x), r)
            rhs = (a * transform.map_wavefunction(UNIT, phi1, r)
                   + b * transform.map_wavefunction(UNIT, phi2, r))
            assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("N,mq", [(0, 0), (0, 1), (1, 0), (2, 2), (1, 2)])
    def test_ratio_constancy_to_radial_eigenfunction(self, N, mq):
        rs = np.logspace(math.log10(0.05), math.log10(5.0), 50)
        ratios = np.array([
            higgs.higgs_wavefunction((N, mq), UNIT, float(r))
            / transform.map_wavefunction(
                UNIT, lambda x: crs.crs_wavefunction_special((N, mq), UNIT, x), float(r))
            for r in rs])
        mean = ratios.mean()
        assert np.sqrt(np.mean(np.abs(ratios - mean) ** 2)) / abs(mean) < 1e-6


# each map at one valid point, for any curvature
MAPS = {
    "x_of_r": lambda p: transform.x_of_r(p, 1.0),
    "r_of_x": lambda p: transform.r_of_x(p, 1.0),
    "g_factor": lambda p: transform.g_factor(p, 1.0),
    "map_potential": lambda p: transform.map_potential(1.0, p, lambda x: 0.0, 1.0),
    "map_wavefunction": lambda p: transform.map_wavefunction(p, lambda x: 1.0, 1.0),
}


@pytest.mark.parametrize("lam", [0.0, -1.0])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_map_rejects_nonpositive_curvature(name, lam):
    MAPS[name](UNIT)
    with pytest.raises(NonpositiveCurvatureError):
        MAPS[name](PhysParams(lam=lam))
