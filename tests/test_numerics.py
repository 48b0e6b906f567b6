import math

import numpy as np
import pytest

from curvosc import crs, higgs
from curvosc.errors import (
    NodeDetectedError,
    NonpositiveWeightError,
    UnresolvedError,
    ZeroNormError,
)
from curvosc.numerics import (
    EndpointRule,
    Grid1D,
    SturmLiouvilleProblem,
    assemble,
    derivatives,
    lowest_eigenvalues,
    normalize,
    rayleigh_quotient,
    residual_norm,
    richardson_eigenvalues,
)
from curvosc.params import PhysParams
from curvosc.problems import crs_problem, crs_spectrum_numeric, higgs_spectrum_numeric

UNIT = PhysParams()

ONE = lambda x: np.ones_like(np.asarray(x, float))


def scalar_profile(rule):
    """phi and phi' of an endpoint rule as plain scalar functions."""
    if rule.kind == "decay":
        mu = rule.exponent
        return (lambda t: t ** -mu), (lambda t: -mu * t ** (-mu - 1))
    sig, c, ser = rule.exponent, rule.center, rule.series

    def parts(t):
        d = abs(t - c)
        poly = 1 + sum(cj * d ** (j + 1) for j, cj in enumerate(ser))
        dpoly = sum((j + 1) * cj * d ** j for j, cj in enumerate(ser))
        return d, poly, dpoly

    def phi(t):
        d, poly, _ = parts(t)
        return d ** sig * poly

    def dphi(t):
        d, poly, dpoly = parts(t)
        return math.copysign(1.0, t - c) * (sig * d ** (sig - 1) * poly + d ** sig * dpoly)

    return phi, dphi


def reference_assemble(prob):
    """The corner treatment written out cell by cell with scalar phi: one
    24-point Gauss-Legendre sum per cell, divided by phi(x_i) h."""
    gx, gw = np.polynomial.legendre.leggauss(24)
    n, h = prob.grid.n, prob.grid.h
    x, xf = prob.grid.points(), prob.grid.faces()
    pf = prob.p(xf)
    q, w = np.array(prob.q(x), float), np.array(prob.w(x), float)
    g = np.full(n + 1, 1.0 / h)
    extra = [0.0, 0.0]
    for side, rule in enumerate(prob.bc):
        if rule.kind == "dirichlet":
            continue
        phi, dphi = scalar_profile(rule)
        m = rule.cells if rule.cells is not None else max(40, n // 5)
        m = min(m, n)
        faces = range(1, m) if side == 0 else range(max(n - m, 1), n)
        cells = range(m) if side == 0 else range(n - m, n)
        for j in faces:
            g[j] = dphi(xf[j]) / (phi(x[j]) - phi(x[j - 1]))
        for i in cells:
            lo, hi = xf[i], xf[i + 1]
            t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gx
            weight = 0.5 * (hi - lo) * gw * np.array([phi(tk) for tk in t]) / (phi(x[i]) * h)
            q[i] = np.dot(weight, prob.q(t))
            w[i] = np.dot(weight, prob.w(t))
        if side == 0:
            extra[0] = pf[0] * dphi(xf[0]) / phi(x[0]) / h
        else:
            extra[1] = -pf[n] * dphi(xf[n]) / phi(x[n - 1]) / h
    off = -pf[1:-1] * g[1:-1] / h
    diag = (pf[:-1] * g[:-1] + pf[1:] * g[1:]) / h + q
    left, right = prob.bc
    if left.kind != "dirichlet":
        diag[0] = pf[1] * g[1] / h + q[0] + extra[0]
    if right.kind != "dirichlet":
        diag[-1] = pf[-2] * g[-2] / h + q[-1] + extra[1]
    if left.tie:
        phi, _ = scalar_profile(left)
        tau = phi(x[0]) / phi(x[1])
        diag[1] += 2 * tau * off[0] + tau * tau * diag[0]
        w[1] += tau * tau * w[0]
        diag, off, w = diag[1:], off[1:], w[1:]
    return diag, off, w


def flat_oscillator(n=2000, a=-10.0, b=10.0):
    # -psi'' + x^2 psi: eigenvalues 2k + 1
    return SturmLiouvilleProblem(ONE, lambda x: np.asarray(x, float) ** 2, ONE,
                                 Grid1D(a, b, n))


class TestGrid:
    def test_spacing(self):
        g = Grid1D(0.0, 1.0, 9)
        assert g.h == pytest.approx(0.1)
        assert g.points()[0] == pytest.approx(0.1)
        assert g.points()[-1] == pytest.approx(0.9)

    def test_refined_halves_h(self):
        g = Grid1D(0.0, 1.0, 9)
        assert g.refined().h == pytest.approx(g.h / 2)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2)


class TestAssemble:
    def test_stencil_entries(self):
        prob = flat_oscillator(n=10, a=0.0, b=1.1)
        sys_ = assemble(prob)
        h = prob.grid.h
        x = prob.grid.points()
        assert sys_.k_off == pytest.approx(-np.ones(9) / h**2)
        assert sys_.k_diag == pytest.approx(2 / h**2 + x**2)
        assert sys_.m_diag == pytest.approx(np.ones(10))

    def test_nonpositive_weight_rejected(self):
        prob = SturmLiouvilleProblem(ONE, ONE, lambda x: np.asarray(x, float) - 0.5,
                                     Grid1D(0.0, 1.0, 9))
        with pytest.raises(NonpositiveWeightError):
            assemble(prob)

    def test_flat_oscillator_eigenvalues(self):
        res = lowest_eigenvalues(flat_oscillator(), 3)
        assert res.eigenvalues == pytest.approx([1.0, 3.0, 5.0], rel=1e-4)

    def test_refinement_shrinks_error_fourfold(self):
        e = []
        for n in (500, 1001):
            res = lowest_eigenvalues(flat_oscillator(n=n), 1)
            e.append(abs(res.eigenvalues[0] - 1.0))
        assert e[0] / e[1] == pytest.approx(4.0, rel=0.15)


class TestCornerQuadrature:
    @pytest.mark.parametrize("prob", [
        # power rule with series and tie at the left corner
        SturmLiouvilleProblem(
            lambda x: 1 + x, lambda x: 2 / x**2 + x, lambda x: 1 + 0.5 * x**2,
            Grid1D(0.0, 2.0, 301),
            (EndpointRule.power(1.5, 0.0, series=(0.4, -0.1), tie=True),
             EndpointRule.dirichlet())),
        # decaying tail on the right
        SturmLiouvilleProblem(
            ONE, lambda x: 0.75 / x**2, lambda x: 1 / x,
            Grid1D(0.5, 20.0, 299),
            (EndpointRule.dirichlet(), EndpointRule.decay(1.5, cells=30))),
        # power corner on the right, corrected cells spanning two blocks
        SturmLiouvilleProblem(
            lambda x: 2 - x, lambda x: 6 / (1 - x) ** 2, ONE,
            Grid1D(0.0, 1.0 - 1e-3, 300),
            (EndpointRule.dirichlet(), EndpointRule.power(3.0, 1.0, cells=280))),
    ], ids=["power-series-tie", "decay", "power-right"])
    def test_matches_scalar_reference(self, prob):
        system = assemble(prob)
        for got, want in zip((system.k_diag, system.k_off, system.m_diag),
                             reference_assemble(prob)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11

    def test_right_tie_rejected(self):
        prob = SturmLiouvilleProblem(ONE, ONE, ONE, Grid1D(0.0, 1.0 - 1e-3, 50),
                                     (EndpointRule.dirichlet(),
                                      EndpointRule.power(3.0, 1.0, tie=True)))
        with pytest.raises(ValueError, match="left endpoint only"):
            assemble(prob)

    def test_ratio_survives_where_phi_underflows(self):
        rule = EndpointRule.power(1000.0, 0.0)
        h = 1e-3
        assert h**1000.0 == 0.0
        for t, t0 in ((h, 1.5 * h), (1.5 * h, h)):
            r = float(rule.ratio(t, t0))
            assert math.isfinite(r) and r > 0
            assert r == pytest.approx(math.exp(1000.0 * math.log(t / t0)), rel=1e-12)
        assert float(rule.log_derivative(h)) == pytest.approx(1000.0 / h, rel=1e-14)

    def test_nonfinite_system_raises_typed_error(self):
        grid = Grid1D(0.0, 1.0, 200)
        xf = grid.faces()
        q = lambda x: np.where((x > xf[2]) & (x < xf[3]), np.nan, 0.0 * x)
        prob = SturmLiouvilleProblem(ONE, q, ONE, grid,
                                     (EndpointRule.power(1.0, 0.0), EndpointRule.dirichlet()))
        with pytest.raises(UnresolvedError):
            lowest_eigenvalues(prob, 2)


class TestLowestEigenvalues:
    def test_k1_flat_ground_state(self):
        res = lowest_eigenvalues(flat_oscillator(n=8000), 1)
        assert res.eigenvalues[0] == pytest.approx(1.0, abs=1e-6)

    def test_richardson(self):
        extrap, coarse, fine = richardson_eigenvalues(flat_oscillator(n=500), 2)
        exact = np.array([1.0, 3.0])
        assert np.max(np.abs(extrap - exact)) < 1e-7
        assert np.max(np.abs(coarse.eigenvalues - exact)) > np.max(np.abs(extrap - exact))

    def test_eigenvector_normalization_and_sign(self):
        prob = flat_oscillator(n=800)
        res = lowest_eigenvalues(prob, 3)
        x = prob.grid.points()
        w = np.ones_like(x)
        for j in range(3):
            v = res.eigenvectors[:, j]
            assert np.sum(w * v * v) * prob.grid.h == pytest.approx(1.0, rel=1e-12)
            big = np.nonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
            assert v[big[0]] > 0

    def test_tied_system_eigenvectors(self):
        # the tie removes the first grid point from the solve; the returned
        # eigenvectors are expanded back onto the full grid
        rule = EndpointRule.power(1.5, 0.0, series=(0.4, -0.1), tie=True)
        prob = SturmLiouvilleProblem(lambda x: 1 + x, lambda x: 2 / x**2 + x,
                                     lambda x: 1 + 0.5 * x**2, Grid1D(0.0, 2.0, 301),
                                     (rule, EndpointRule.dirichlet()))
        res = lowest_eigenvalues(prob, 3)
        x = prob.grid.points()
        assert res.eigenvectors.shape == (301, 3)
        for j in range(3):
            v = res.eigenvectors[:, j]
            assert np.sum(prob.w(x) * v * v) * prob.grid.h == pytest.approx(1.0, rel=1e-12)
            assert v[0] == pytest.approx(float(rule.ratio(x[0], x[1])) * v[1], rel=1e-14)
            big = np.nonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
            assert v[big[0]] > 0

    def test_node_counts_match_index(self):
        res = lowest_eigenvalues(flat_oscillator(n=1000), 5)
        for j in range(5):
            v = res.eigenvectors[:, j]
            vv = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            assert int(np.sum(vv[:-1] * vv[1:] < 0)) == j

    def test_residual_norms_small(self):
        res = lowest_eigenvalues(flat_oscillator(), 3)
        assert np.all(res.residual_norms < 1e-10)

    def test_k_budget_enforced(self):
        with pytest.raises(UnresolvedError):
            lowest_eigenvalues(flat_oscillator(n=100), 30)

    def test_eigenvalues_strictly_ascending(self):
        res = lowest_eigenvalues(flat_oscillator(), 6)
        assert np.all(np.diff(res.eigenvalues) > 0)


class TestSpectrumProtocols:
    def test_higgs_channel_matches_closed_form(self):
        exact = np.array([higgs.higgs_energy((N, 0), UNIT) for N in range(3)])
        num = higgs_spectrum_numeric(0, UNIT, 3, n=2000)
        assert np.max(np.abs(num - exact) / exact) < 1e-7

    def test_crs_channel_matches_closed_form(self):
        exact = np.array([crs.crs_energy((N, 1), UNIT) for N in range(3)])
        num = crs_spectrum_numeric(1, UNIT, 3, n=2000)
        assert np.max(np.abs(num - exact) / exact) < 1e-6

    @pytest.mark.parametrize("model,lam", [
        ("higgs", 0.01), ("higgs", 0.001), ("crs", 0.01), ("crs", 0.001)])
    def test_small_curvature(self, model, lam):
        # wall exponents near 100 and 1000: d**sigma alone under/overflows
        params = PhysParams(lam=lam)
        energy = higgs.higgs_energy if model == "higgs" else crs.crs_energy
        solve = higgs_spectrum_numeric if model == "higgs" else crs_spectrum_numeric
        for mp in (0, 1, 2):
            exact = np.array([energy((N, mp), params) for N in range(3)])
            num = solve(mp, params, 3)
            assert np.max(np.abs(num - exact) / exact) < 1e-5

    def test_crs_eigenvector_matches_wavefunction(self):
        # |phi| (sin^2 convention) against the discretized eigenvector,
        # up to one global scale, on the interior 80% of the grid
        mq = 1
        xs = crs.x_pole(UNIT)
        grid = Grid1D(0.0, xs - 1e-4, 3000)
        V = lambda x: np.vectorize(
            lambda t: crs.crs_potential_special(float(t), mq, UNIT))(x)
        bc = (EndpointRule.power(0.5 + mq, 0.0),
              EndpointRule.power((1 + UNIT.delta) / 2, xs))
        prob = crs_problem(UNIT, V, grid, bc)
        res = lowest_eigenvalues(prob, 2)
        x = grid.points()
        for N in (0, 1):
            v = res.eigenvectors[:, N]
            ref = np.array([abs(crs.crs_wavefunction_special((N, mq), UNIT, float(t)))
                            for t in x])
            i0, i1 = int(0.1 * x.size), int(0.9 * x.size)
            vs, rs = v[i0:i1], ref[i0:i1]
            scale = np.dot(np.abs(vs), rs) / np.dot(vs, vs)
            mask = rs > 1e-2 * rs.max()
            dev = np.max(np.abs(np.abs(vs[mask]) * scale - rs[mask]) / rs[mask])
            assert dev < 1e-4


class TestDerivatives:
    def test_sine_with_scalar_and_array_step(self):
        x = np.linspace(0.1, 3.0, 30)
        for step in (1e-3, np.full(x.shape, 1e-3)):
            f, d1, d2 = derivatives(np.sin, x, step)
            assert np.array_equal(f, np.sin(x))
            assert np.max(np.abs(d1 - np.cos(x))) < 1e-11
            assert np.max(np.abs(d2 + np.sin(x))) < 1e-7

    def test_constant_broadcasts(self):
        x = np.linspace(0.0, 1.0, 5)
        f, d1, d2 = derivatives(lambda t: 2.0, x, 0.1)
        assert f.shape == d1.shape == d2.shape == x.shape
        assert np.all(f == 2.0) and np.all(d1 == 0.0) and np.all(d2 == 0.0)


class TestResidualNorm:
    def test_constant_state(self):
        grid = Grid1D(0.0, 1.0, 50)
        res = residual_norm(lambda x: (1.0, 0.3 * x, 0.0), lambda x: 2.0,
                            lambda x: 1.0, 2.0, grid)
        assert res < 1e-12

    def test_exact_pair_small_then_perturbed_jumps(self):
        mp = 0
        E = higgs.higgs_energy((0, mp), UNIT)
        grid = Grid1D(0.05, 20.0, 500)
        args = (
            lambda r: higgs.higgs_radial_coefficients(higgs.RadialChannel(mp, UNIT), r),
            lambda r: 0.5 * r * r,
            lambda r: higgs.higgs_wavefunction((0, mp), UNIT, r),
        )
        step = lambda r: 1e-3 * (1 + r)
        assert residual_norm(*args, E, grid, step=step) < 1e-6
        assert residual_norm(*args, E * (1 + 1e-3), grid, step=step) > 1e-4


class TestRayleighQuotient:
    def _higgs_problem(self, mp=0, n=1200):
        from curvosc.problems import higgs_radial_problem
        V = lambda r: 0.5 * np.asarray(r, float) ** 2
        return higgs_radial_problem(mp, UNIT, V, Grid1D(0.1, 12.0, n),
                                    (EndpointRule.dirichlet(),) * 2)

    def test_exact_ground_state(self):
        prob = self._higgs_problem()
        E, c = rayleigh_quotient(prob, lambda r: higgs.higgs_wavefunction((0, 0), UNIT, r))
        assert c < 1e-6
        assert E == pytest.approx(higgs.higgs_energy((0, 0), UNIT), rel=1e-6)

    def test_mixture_is_not_constant(self):
        prob = self._higgs_problem()
        mix = lambda r: (higgs.higgs_wavefunction((0, 0), UNIT, r)
                         + 0.2 * higgs.higgs_wavefunction((1, 0), UNIT, r))
        # the mixture keeps a positive sign on [0.1, 12] but is no eigenstate
        E, c = rayleigh_quotient(prob, mix)
        assert c > 1e-2

    def test_node_detected(self):
        prob = self._higgs_problem()
        with pytest.raises(NodeDetectedError):
            rayleigh_quotient(prob, lambda r: higgs.higgs_wavefunction((1, 0), UNIT, r))


class TestNormalize:
    def test_idempotent(self):
        x = np.linspace(0.01, 1, 200)
        w = np.ones_like(x)
        v = normalize(np.exp(-x), w, x[1] - x[0])
        v2 = normalize(v, w, x[1] - x[0])
        assert np.max(np.abs(v - v2)) < 1e-14

    def test_scale_invariance(self):
        x = np.linspace(0.01, 1, 200)
        w = 1 + x
        h = x[1] - x[0]
        assert normalize(3 * np.sin(x), w, h) == pytest.approx(normalize(np.sin(x), w, h))

    def test_wavefunction_normalizable(self):
        grid = Grid1D(1e-4, 40.0, 4000)
        r = grid.points()
        psi = np.array([higgs.higgs_wavefunction((0, 1), UNIT, float(t)) for t in r])
        v = normalize(psi, r, grid.h)
        assert np.isfinite(v).all()
        assert np.trapezoid(r * v * v, dx=grid.h) == pytest.approx(1.0, rel=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            normalize(np.zeros(10), np.ones(10), 0.1)


class TestConvergenceOrder:
    def test_second_order(self):
        errs = []
        for n in (400, 801, 1603):
            res = lowest_eigenvalues(flat_oscillator(n=n), 1)
            errs.append(abs(res.eigenvalues[0] - 1.0))
        for e0, e1 in zip(errs, errs[1:]):
            order = math.log2(e0 / e1)
            assert 1.8 <= order <= 2.2
