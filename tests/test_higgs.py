import math

import numpy as np
import pytest

from curvosc import higgs
from curvosc.errors import SingularPointError
from curvosc.higgs import RadialChannel
from curvosc.numerics import Grid1D, residual_norm
from curvosc.params import PhysParams

UNIT = PhysParams()


class TestRadialCoefficients:
    def test_p0_frozen_value(self):
        # m'=0, r=1, lam=1: p0 = -(1/2)(3 + 15/4) = -27/8
        _, _, p0 = higgs.higgs_radial_coefficients(RadialChannel(0, UNIT), 1.0)
        assert p0 == pytest.approx(-27.0 / 8.0, rel=1e-15)

    def test_flat_limit(self):
        p = PhysParams(lam=0.0)
        for r in (0.5, 2.0):
            p2, p1, p0 = higgs.higgs_radial_coefficients(RadialChannel(1, p), r)
            assert p2 == -0.5
            assert p1 == pytest.approx(-0.5 / r, rel=1e-15)
            assert p0 == pytest.approx(0.5 / r**2, rel=1e-15)

    def test_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            higgs.higgs_radial_coefficients(RadialChannel(0, UNIT), 0.0)

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
        E = higgs.higgs_energy((N, mp), UNIT)
        grid = Grid1D(0.05, 20.0, 800)
        res = residual_norm(
            lambda r: higgs.higgs_radial_coefficients(RadialChannel(mp, UNIT), r),
            lambda r: 0.5 * r * r,
            lambda r: higgs.higgs_wavefunction((N, mp), UNIT, r),
            E, grid, step=lambda r: 1e-3 * (1 + r))
        assert res < 1e-6

    def test_parity_in_mprime(self):
        for r in (0.4, 1.3):
            assert higgs.higgs_wavefunction((1, 2), UNIT, r) == \
                higgs.higgs_wavefunction((1, -2), UNIT, r)


class TestEnergy:
    def test_flat_ground_state(self):
        p = PhysParams(lam=0.0, omega=1.7)
        assert higgs.higgs_energy((0, 0), p) == pytest.approx(1.7, rel=1e-15)
        assert higgs.higgs_energy((1, 2), p) == pytest.approx(1.7 * 5, rel=1e-15)

    def test_unit_ground_state(self):
        assert higgs.higgs_energy((0, 0), UNIT) == pytest.approx(
            math.sqrt(5) / 2 + 0.5, rel=1e-15)

    def test_degenerate_pairs(self):
        # E depends only on 2N + |m'| + 1
        assert higgs.higgs_energy((2, 1), UNIT) == higgs.higgs_energy((1, 3), UNIT)
        assert higgs.higgs_energy((3, 0), UNIT) == higgs.higgs_energy((0, 6), UNIT)

    def test_parity(self):
        assert higgs.higgs_energy((1, 2), UNIT) == higgs.higgs_energy((1, -2), UNIT)
