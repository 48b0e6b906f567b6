import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from curvosc import crs, higgs, numerics
from curvosc.errors import NodeDetectedError, NonpositiveWeightError, UnresolvedError
from curvosc.numerics import (
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
from curvosc.numerics import (
    _bisection, _coarse_polished, _gershgorin, _polished, _prolongation)
from curvosc.params import PhysParams
from curvosc.problems import (
    crs_natural_problem,
    crs_problem,
    crs_spectrum_numeric,
    higgs_oscillator_problem,
    higgs_radial_problem,
    higgs_spectrum_numeric,
    qes_channel_problem,
)

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


def corner_width(rule, n):
    """Cells of a corner that assemble corrects: max(40, n // 5) at a power
    corner, 2 at a decay corner, at most n."""
    return min(max(40, n // 5) if rule.kind == "power" else 2, n)


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
        m = corner_width(rule, n)
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


def full_order_assemble(prob):
    """The assembled entries with every corrected cell averaged by the
    24-point Gauss-Legendre rule, all cells of a corner at once; the profile
    enters through EndpointRule.ratio and log_derivative, so any sigma
    stays finite."""
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
        m = corner_width(rule, n)
        if side == 0:
            j, i = np.arange(1, m), np.arange(m)
            ref = x[j]
            extra[0] = pf[0] * rule.log_derivative(xf[0]) * rule.ratio(xf[0], x[0]) / h
        else:
            j, i = np.arange(max(n - m, 1), n), np.arange(n - m, n)
            ref = x[j - 1]
            extra[1] = -pf[n] * rule.log_derivative(xf[n]) * rule.ratio(xf[n], x[n - 1]) / h
        dp = rule.ratio(x[j], ref) - rule.ratio(x[j - 1], ref)
        flux = rule.log_derivative(xf[j]) * rule.ratio(xf[j], ref)
        g[j] = np.divide(flux, dp, out=g[j], where=dp != 0)    # sigma = 0 keeps 1/h
        half = 0.5 * (xf[i + 1] - xf[i])
        t = 0.5 * (xf[i + 1] + xf[i])[:, None] + half[:, None] * gx
        weight = rule.ratio(t, x[i, None]) * (half / h)[:, None] * gw
        q[i] = np.sum(prob.q(t) * weight, axis=1)
        w[i] = np.sum(prob.w(t) * weight, axis=1)
    off = -pf[1:-1] * g[1:-1] / h
    diag = (pf[:-1] * g[:-1] + pf[1:] * g[1:]) / h + q
    left, right = prob.bc
    if left.kind != "dirichlet":
        diag[0] = pf[1] * g[1] / h + q[0] + extra[0]
    if right.kind != "dirichlet":
        diag[-1] = pf[-2] * g[-2] / h + q[-1] + extra[1]
    if left.tie:
        tau = float(left.ratio(x[0], x[1]))
        diag[1] += 2 * tau * off[0] + tau * tau * diag[0]
        w[1] += tau * tau * w[0]
        diag, off, w = diag[1:], off[1:], w[1:]
    return diag, off, w


def corner_problem(sigma, side, n=2001):
    """A power corner of exponent sigma on one end of (0, 1), q singular
    like d^(-5/2) at both ends, so that q phi is not a polynomial for any
    integer sigma."""
    rules = [EndpointRule.dirichlet(), EndpointRule.dirichlet()]
    rules[side] = EndpointRule.power(sigma, float(side))
    return SturmLiouvilleProblem(
        lambda x: 1 + 0.5 * x, lambda x: 2 / x**2.5 + 3 / (1 - x) ** 2.5 + x,
        lambda x: 1 + x**2, Grid1D(0.0, 1.0, n), tuple(rules))


def backward_errors(prob, vals, vectors):
    """||(K - E M) v|| / || |K||v| + |E| M|v| || of each pair (E, v), v the
    columns of vectors on the full grid, on the assembled (tie-reduced)
    system of prob: each residual held against the roundoff scale of its
    own products, so a converged pair reads about 1e-16."""
    system = assemble(prob)
    kd, ko, md = system.k_diag, system.k_off, system.m_diag
    v = vectors.T[:, 1:] if system.tie_left is not None else vectors.T
    E = np.asarray(vals, float)[:, None]
    r = (kd - E * md) * v
    r[:, :-1] += ko * v[:, 1:]
    r[:, 1:] += ko * v[:, :-1]
    av = np.abs(v)
    s = (np.abs(kd) + np.abs(E) * md) * av
    s[:, :-1] += np.abs(ko) * av[:, 1:]
    s[:, 1:] += np.abs(ko) * av[:, :-1]
    return np.sqrt(np.sum(r * r, axis=1) / np.sum(s * s, axis=1))


def flat_oscillator(n=2000, a=-10.0, b=10.0):
    # -psi'' + x^2 psi: eigenvalues 2k + 1
    return SturmLiouvilleProblem(ONE, lambda x: np.asarray(x, float) ** 2, ONE,
                                 Grid1D(a, b, n))


# problems whose corner nodes assemble lays out: two power corners, a tie
# with a decay corner, and two corners that overlap on all 45 cells
CORNER_LAYOUTS = [
    pytest.param(higgs_oscillator_problem(1, PhysParams(lam=0.003), 2000), id="polar"),
    pytest.param(qes_channel_problem(2, 1, 1, UNIT, 1000), id="qes2-tie-decay"),
    pytest.param(SturmLiouvilleProblem(
        ONE, lambda x: 1 / x**2 + 1 / (1 - x) ** 2, ONE, Grid1D(0.0, 1.0, 45),
        (EndpointRule.power(1.5, 0.0), EndpointRule.power(2.0, 1.0))),
        id="overlapping-corners"),
    # a decay corner alone, on its 2 cells
    pytest.param(SturmLiouvilleProblem(
        ONE, lambda x: x**2, ONE, Grid1D(1.0, 6.0, 300),
        (EndpointRule.dirichlet(), EndpointRule.decay(1.5))),
        id="decay-default-cells"),
]


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
        vals = lowest_eigenvalues(flat_oscillator(), 3)
        assert vals == pytest.approx([1.0, 3.0, 5.0], rel=1e-4)

    def test_refinement_shrinks_error_fourfold(self):
        e = []
        for n in (500, 1001):
            e.append(abs(lowest_eigenvalues(flat_oscillator(n=n), 1)[0] - 1.0))
        assert e[0] / e[1] == pytest.approx(4.0, rel=0.15)


class TestCornerQuadrature:
    @pytest.mark.parametrize("prob", [
        # power rule with series and tie at the left corner
        SturmLiouvilleProblem(
            lambda x: 1 + x, lambda x: 2 / x**2 + x, lambda x: 1 + 0.5 * x**2,
            Grid1D(0.0, 2.0, 301),
            (EndpointRule.power(1.5, 0.0, series=(0.4, -0.1), tie=True),
             EndpointRule.dirichlet())),
        # decaying tail on the right, on a grid whose 2 corrected cells
        # span a tenth of it
        SturmLiouvilleProblem(
            ONE, lambda x: 0.75 / x**2, lambda x: 1 / x,
            Grid1D(0.5, 20.0, 19),
            (EndpointRule.dirichlet(), EndpointRule.decay(1.5))),
        # power corner on the right, its 40 corrected cells over most of
        # the grid
        SturmLiouvilleProblem(
            lambda x: 2 - x, lambda x: 6 / (1 - x) ** 2, ONE,
            Grid1D(0.0, 1.0 - 1e-3, 45),
            (EndpointRule.dirichlet(), EndpointRule.power(3.0, 1.0))),
    ], ids=["power-series-tie", "decay", "power-right"])
    def test_matches_scalar_reference(self, prob):
        system = assemble(prob)
        for got, want in zip((system.k_diag, system.k_off, system.m_diag),
                             reference_assemble(prob)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11

    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.5, 1.0, 3.0, 22.0, 102.0])
    def test_graded_orders_match_full_order(self, sigma, side):
        system = assemble(corner_problem(sigma, side))
        for got, want in zip((system.k_diag, system.k_off, system.m_diag),
                             full_order_assemble(corner_problem(sigma, side))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11

    @pytest.mark.parametrize("prob", [
        # grids that stop short of the singular point: the equator at
        # pi/2 - 1e-6 (sigma ~ 12 at lam = 0.1), the tan pole at x* - 1e-4,
        # the wide crs wall at 1e-4 from the origin
        higgs_oscillator_problem(1, PhysParams(lam=0.1), 4000),
        crs_natural_problem(1, UNIT, 4000),
        crs_problem(UNIT, lambda x: crs.crs_potential_special(x, 1, UNIT),
                    Grid1D(1e-4, 10.0, 16000),
                    (EndpointRule.power(1.5, 0.0), EndpointRule.dirichlet())),
        # tie-reduced resonant channel with series and a decay closure
        qes_channel_problem(2, 1, 1, UNIT, 4000),
    ], ids=["polar-equator", "crs-tan-pole", "crs-wide", "qes2-tie"])
    def test_graded_orders_match_full_order_on_model_problems(self, prob):
        system = assemble(prob)
        for got, want in zip((system.k_diag, system.k_off, system.m_diag),
                             full_order_assemble(prob)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11

    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 1.0, 22.0, 102.0, 1000.0])
    @pytest.mark.parametrize("gap", [0.0, 1e-6, 1e-4, 1.0])
    def test_ladder_orders(self, sigma, gap):
        # cells of width h, nearest the corner first, the grid ending gap
        # short of the singular point
        h = 1e-3
        dist = gap + h * np.arange(1, 2001)
        half = np.full(dist.shape, h / 2)
        for centre, mid in ((0.0, dist), (5.0, 5.0 - dist)):
            orders = np.asarray(numerics._ORDERS)[
                numerics._rungs(EndpointRule.power(sigma, centre), mid, half)]
            assert orders.max() <= 24 and orders.min() >= 4
            assert np.all(np.diff(orders) <= 0)       # never more nodes farther out
            if gap == 0.0:
                assert orders[0] == 24                # the cell touching the corner
        decay = numerics._rungs(EndpointRule.decay(1.5), dist, half)
        assert np.all(np.asarray(numerics._ORDERS)[decay] == 24)

    @staticmethod
    def counted(prob):
        """prob with q and w wrapped to record the arrays they receive."""
        seen = {"q": [], "w": []}

        def wrap(name, f):
            def g(t):
                seen[name].append(np.array(t))
                return f(t)
            return g

        return (SturmLiouvilleProblem(prob.p, wrap("q", prob.q), wrap("w", prob.w),
                                      prob.grid, prob.bc), seen)

    @pytest.mark.parametrize("prob", CORNER_LAYOUTS + [
        pytest.param(flat_oscillator(n=50), id="dirichlet")])
    def test_one_q_and_one_w_call(self, prob):
        wrapped, seen = self.counted(prob)
        got = assemble(wrapped)
        assert len(seen["q"]) == 1 and len(seen["w"]) == 1
        assert np.array_equal(seen["q"][0], seen["w"][0])
        want = assemble(prob)
        for a, b in zip((got.k_diag, got.k_off, got.m_diag),
                        (want.k_diag, want.k_off, want.m_diag)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("prob", CORNER_LAYOUTS)
    def test_each_corner_cell_gets_its_rung_node_count(self, prob):
        # the model sees the points outside the corners, then every corner
        # node, each corner's nodes strictly inside the cell they average
        wrapped, seen = self.counted(prob)
        assemble(wrapped)
        t = seen["q"][0]
        n = prob.grid.n
        x, xf = prob.grid.points(), prob.grid.faces()
        sampled = np.ones(n, bool)
        corners = []
        for side, rule in enumerate(prob.bc):
            if rule.kind == "dirichlet":
                continue
            m = corner_width(rule, n)
            i = np.arange(m) if side == 0 else np.arange(n - m, n)
            sampled[i] = False
            corners.append((rule, i))
        assert np.array_equal(t[:np.count_nonzero(sampled)], x[sampled])
        at = np.count_nonzero(sampled)
        for rule, i in corners:
            mid, half = 0.5 * (xf[i + 1] + xf[i]), 0.5 * (xf[i + 1] - xf[i])
            count = np.asarray(numerics._ORDERS)[numerics._rungs(rule, mid, half)]
            nodes = t[at:at + count.sum()]
            cell = np.repeat(i, count)
            assert np.all((nodes > xf[cell]) & (nodes < xf[cell + 1]))
            assert np.array_equal(np.bincount(np.searchsorted(xf, nodes) - 1 - i[0],
                                              minlength=i.size), count)
            at += count.sum()
        assert at == t.size

    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    def test_weight_nonpositive_only_inside_a_corner_cell_raises(self, side):
        # w dips below 0 between two grid points of a corrected cell: only
        # the quadrature nodes see it
        grid = Grid1D(0.0, 1.0, 100)
        x, h = grid.points(), grid.h
        c = x[5] if side == 0 else x[-6]
        w = lambda t: np.where((t > c + 0.05 * h) & (t < c + 0.45 * h), -1.0, 1.0)
        assert np.all(w(x) > 0)
        bc = [EndpointRule.dirichlet(), EndpointRule.dirichlet()]
        bc[side] = EndpointRule.power(1.5, 0.0 if side == 0 else 1.0)
        assemble(SturmLiouvilleProblem(ONE, ONE, ONE, grid, tuple(bc)))
        with pytest.raises(NonpositiveWeightError, match="weight w"):
            assemble(SturmLiouvilleProblem(ONE, ONE, w, grid, tuple(bc)))

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

    def test_empty_series_is_the_bare_power(self):
        # without a series the profile is |t - c|^sigma: ratio and
        # log-derivative are the bare formulas, bit for bit
        sig, c = 1.7, 0.3
        rule = EndpointRule.power(sig, c)
        t = np.concatenate((np.linspace(-2.0, 0.29, 40), np.linspace(0.31, 2.0, 40)))
        t0 = t[::-1]
        assert np.array_equal(rule.ratio(t, t0), (np.abs(t - c) / np.abs(t0 - c)) ** sig)
        assert np.array_equal(rule.log_derivative(t), np.sign(t - c) * (sig / np.abs(t - c)))

    def test_series_is_the_horner_polynomial(self):
        # with a series: poly(d) and poly'(d) by numpy's Horner evaluation,
        # bit for bit, however often the rule is called
        sig, c, ser = -0.5, 0.0, (0.4, -0.1, 0.02)
        rule = EndpointRule.power(sig, c, series=ser)
        P = np.polynomial.polynomial
        t = np.linspace(0.01, 2.0, 50)
        t0 = t[::-1]
        d, d0 = np.abs(t - c), np.abs(t0 - c)
        poly = lambda x: P.polyval(x, (1.0,) + ser)
        dpoly = P.polyval(d, P.polyder((1.0,) + ser))
        for _ in range(2):
            assert np.array_equal(rule.ratio(t, t0), (d / d0) ** sig * (poly(d) / poly(d0)))
            assert np.array_equal(rule.log_derivative(t), np.sign(t - c) * (sig / d + dpoly / poly(d)))

    def test_nonfinite_system_raises_typed_error(self):
        grid = Grid1D(0.0, 1.0, 200)
        xf = grid.faces()
        q = lambda x: np.where((x > xf[2]) & (x < xf[3]), np.nan, 0.0 * x)
        prob = SturmLiouvilleProblem(ONE, q, ONE, grid,
                                     (EndpointRule.power(1.0, 0.0), EndpointRule.dirichlet()))
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="non-finite"):
                solve(prob, 2)


class TestLowestEigenvalues:
    def test_k1_flat_ground_state(self):
        vals = lowest_eigenvalues(flat_oscillator(n=8000), 1)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(1.0, abs=1e-6)

    def test_richardson(self):
        extrap, coarse, fine = richardson_eigenvalues(flat_oscillator(n=500), 2)
        exact = np.array([1.0, 3.0])
        assert np.max(np.abs(extrap - exact)) < 1e-7
        assert np.max(np.abs(coarse - exact)) > np.max(np.abs(extrap - exact))
        assert np.array_equal(extrap, (4 * fine - coarse) / 3)
        # the coarse grid is polished from a loose bisection on its guess
        # grid, the fine grid from the coarse vectors
        by_hand = polished_pair(flat_oscillator(n=500), 2)
        assert np.array_equal(coarse, by_hand[0]) and np.array_equal(fine, by_hand[1])

    def test_eigenvector_normalization_and_sign(self):
        prob = flat_oscillator(n=800)
        res = lowest_eigenpairs(prob, 3)
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
        res = lowest_eigenpairs(prob, 3)
        x = prob.grid.points()
        assert res.eigenvectors.shape == (301, 3)
        for j in range(3):
            v = res.eigenvectors[:, j]
            assert np.sum(prob.w(x) * v * v) * prob.grid.h == pytest.approx(1.0, rel=1e-12)
            assert v[0] == pytest.approx(float(rule.ratio(x[0], x[1])) * v[1], rel=1e-14)
            big = np.nonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
            assert v[big[0]] > 0

    def test_node_counts_match_index(self):
        res = lowest_eigenpairs(flat_oscillator(n=1000), 5)
        for j in range(5):
            v = res.eigenvectors[:, j]
            vv = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            assert int(np.sum(vv[:-1] * vv[1:] < 0)) == j

    def test_residual_norms_small(self):
        prob = flat_oscillator()
        res = lowest_eigenpairs(prob, 3)
        assert np.all(backward_errors(prob, res.eigenvalues, res.eigenvectors) < 1e-10)

    def test_k_budget_enforced(self):
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="budget"):
                solve(flat_oscillator(n=100), 30)

    def test_eigenvalues_strictly_ascending(self):
        assert np.all(np.diff(lowest_eigenvalues(flat_oscillator(), 6)) > 0)
        assert np.all(np.diff(lowest_eigenpairs(flat_oscillator(), 6).eigenvalues) > 0)

    def test_spectral_edge_guard(self):
        # q = 1e9 lifts the whole spectrum to within 5 % of the edge
        # max(d) + 2 max|e| of the standard form
        prob = SturmLiouvilleProblem(ONE, lambda x: 1e9 * ONE(x), ONE, Grid1D(0.0, 1.0, 100))
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="spectral edge"):
                solve(prob, 3)

    @pytest.mark.parametrize("prob,k", [
        (higgs_oscillator_problem(0, UNIT, 8001), 50),
        (qes_channel_problem(2, 1, 1, UNIT, 2001), 1),
    ], ids=["polar-k50", "qes2-tied"])
    def test_both_paths_bitwise_equal(self, prob, k):
        vals = lowest_eigenvalues(prob, k)
        assert vals.shape == (k,)
        assert np.array_equal(vals, lowest_eigenpairs(prob, k).eigenvalues)


class TestBackwardError:
    # converged pairs read roundoff against the componentwise scale
    # |K||v| + |E| M|v|, on a deep polar solve, a resonant tied QES
    # channel and the crs natural branch
    CASES = {
        "polar-k50": (higgs_oscillator_problem(0, UNIT, 8001), 50),
        "qes2-tied": (qes_channel_problem(2, 1, 1, UNIT, 2001), 1),
        "crs-natural": (crs_natural_problem(1, UNIT, 4000), 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_converged_pairs_read_roundoff(self, case):
        prob, k = self.CASES[case]
        res = lowest_eigenpairs(prob, k)
        errors = backward_errors(prob, res.eigenvalues, res.eigenvectors)
        assert errors.shape == (k,)
        assert np.all(errors < 1e-13)

    def test_shifted_eigenvalues_raise_the_residual(self):
        prob, k = self.CASES["polar-k50"]
        res = lowest_eigenpairs(prob, k)
        exact = backward_errors(prob, res.eigenvalues, res.eigenvectors)
        shifted = backward_errors(prob, res.eigenvalues * (1 + 1e-6), res.eigenvectors)
        assert np.all(exact < 1e-13)
        assert np.all(shifted > 10 * exact)
        assert np.median(shifted / exact) > 1e4


def relative_bisection(prob, k):
    """The k lowest eigenvalues of prob by bisection to relative accuracy
    (LAPACK's recommended ABSTOL of twice the underflow threshold)."""
    d, e = assemble(prob).standard_form()
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1),
                            tol=2 * np.finfo(float).tiny)


def polished_pair(prob, k):
    """Both grids of a Richardson pair written out: the coarse grid polished
    from a bisection to sqrt(eps) ||T_g|| on a guess grid of max(n/16, 40 k)
    points (to the default tolerance where two of those guesses lie within
    4 tol), keeping its vectors in single precision, the fine grid from
    those vectors prolonged.  None stands for a grid whose certificate
    fails (for both where the coarse one fails)."""
    coarse_sys, fine_sys = assemble(prob), assemble(prob.refined())
    d, e = coarse_sys.standard_form()
    grid = prob.grid
    guess = SturmLiouvilleProblem(prob.p, prob.q, prob.w, Grid1D(
        grid.a, grid.b, max(grid.n // 16, 40 * k)), prob.bc)
    gd, ge = assemble(guess).standard_form()
    tol = np.sqrt(np.finfo(float).eps) * _gershgorin(gd, ge)[1]
    guesses = eigh_tridiagonal(gd, ge, eigvals_only=True, select="i",
                               select_range=(0, k - 1), tol=tol)
    if np.any(np.diff(guesses) <= 4 * tol):
        guesses = eigh_tridiagonal(gd, ge, eigvals_only=True, select="i",
                                   select_range=(0, k - 1))
    vectors = np.empty((k, d.size), np.float32)
    coarse = _polished(d, e, shifts=guesses, vectors=vectors)
    if coarse is None:
        return None, None
    fd, fe = fine_sys.standard_form()
    prolong = _prolongation(coarse_sys, fine_sys, prob.bc)
    fine = _polished(fd, fe, starts=(prolong(u) for u in vectors))
    return coarse, fine


def polish_with(**starts):
    """A _polish hook for lowest_eigenvalues that polishes from the given
    starts or shifts."""
    return lambda system, d, e: _polished(d, e, **starts)


class TestSeededEigenvalues:
    # Richardson pairs: each grid is polished from seeds (the coarse grid
    # from a loose bisection on its guess grid, the fine grid from the
    # coarse vectors), and falls back to the bisection where the seeds
    # cannot be certified
    CASES = {
        "polar-k50": (higgs_oscillator_problem(0, UNIT, 4000), 50),
        "crs-k3": (crs_natural_problem(1, UNIT, 4000), 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_relative_accuracy_bisection(self, case):
        prob, k = self.CASES[case]
        assert all(vals is not None for vals in polished_pair(prob, k))
        _, coarse, fine = richardson_eigenvalues(prob, k)
        for vals, grid in ((coarse, prob), (fine, prob.refined())):
            ref = relative_bisection(grid, k)
            assert np.max(np.abs(vals - ref) / ref) <= 1e-9

    def test_bad_guesses_fall_back_to_bisection(self):
        prob, k = self.CASES["crs-k3"]
        fine = prob.refined()
        four = lowest_eigenvalues(prob, k + 1)
        other = lowest_eigenvalues(
            higgs_oscillator_problem(0, PhysParams(lam=0.3, omega=2.0), 1000), k)
        d, e = assemble(fine).standard_form()
        plain = _bisection(d, e, k, eigvals_only=True)
        # all equal, one repeated, out of order, one skipped, another problem's
        for near in (np.full(k, four[1]), four[[0, 0, 2]], four[[1, 0, 2]],
                     np.delete(four, 1), other):
            assert _polished(d, e, shifts=near) is None
            assert np.array_equal(lowest_eigenvalues(fine, k, _polish=polish_with(shifts=near)),
                                  plain)

    def test_bad_start_vectors_certified_or_bisection(self):
        # carried vectors out of order, one repeated in place of the next,
        # or carried from another problem on the same grid: the values
        # stand only where the certificate holds
        prob, k = self.CASES["polar-k50"]
        other = higgs_oscillator_problem(1, PhysParams(lam=0.3, omega=2.0), 4000)
        fine = prob.refined()
        fine_sys, ref = assemble(fine), relative_bisection(fine, k)
        fd, fe = fine_sys.standard_form()
        plain = _bisection(fd, fe, k, eigvals_only=True)
        for source, order in ((prob, np.roll(np.arange(k), 1)), (prob, np.arange(k)[::-1]),
                              (prob, np.r_[0, 0, 2:k]), (other, np.arange(k))):
            coarse_sys = assemble(source)
            d, e = coarse_sys.standard_form()
            _, u = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
            prolong = _prolongation(coarse_sys, fine_sys, prob.bc)
            starts = [prolong(u[:, j]) for j in order]
            certified = _polished(fd, fe, starts=starts)
            vals = lowest_eigenvalues(fine, k, _polish=polish_with(starts=starts))
            if certified is None:
                assert np.array_equal(vals, plain)
            else:
                assert np.max(np.abs(vals - ref) / ref) <= 1e-9
            if source is prob:
                assert certified is None

    @pytest.mark.parametrize("build,lam,k", [
        (higgs_oscillator_problem, 0.01, 3), (higgs_oscillator_problem, 0.001, 3),
        (crs_natural_problem, 0.01, 3), (crs_natural_problem, 0.001, 3),
        (higgs_oscillator_problem, 0.001, 50)],
        ids=["polar-lam0.01", "polar-lam0.001", "crs-lam0.01", "crs-lam0.001",
             "polar-lam0.001-k50"])
    def test_small_curvature_pairs_certify(self, build, lam, k):
        # the pair's own sqrt(eps) ||T|| exceeds the lowest gaps here; the
        # guess grid's is 256 times smaller at k = 3, and at k = 50 its
        # loose guesses collapse and are bisected again to the default
        # tolerance.  At lam = 0.001 the walls are steep (sigma ~ 1002 at
        # the polar equator), so the fine starts hold only where the
        # prolongation keeps (3/2)^sigma off the roundoff of the coarse
        # vector at the wall
        prob = build(1, PhysParams(lam=lam), 4000)
        certified = polished_pair(prob, k)
        assert all(vals is not None for vals in certified)
        _, coarse, fine = richardson_eigenvalues(prob, k)
        for vals, hand, grid in zip((coarse, fine), certified, (prob, prob.refined())):
            assert np.array_equal(vals, hand)
            ref = relative_bisection(grid, k)
            assert np.max(np.abs(vals - ref) / ref) <= 1e-9

    def test_planar_reference_pair_certifies(self):
        # verify's planar-Dirichlet reference pair, where the pair's own
        # loose tolerance exceeded the lowest gaps
        prob = higgs_radial_problem(0, UNIT, lambda r: 0.5 * np.asarray(r) ** 2,
                                    Grid1D(1e-4, 40.0, 2000), (EndpointRule.dirichlet(),) * 2)
        d, e = assemble(prob).standard_form()
        plain = _bisection(d, e, 3, eigvals_only=True)
        assert np.sqrt(np.finfo(float).eps) * _gershgorin(d, e)[1] > np.min(np.diff(plain))
        assert all(vals is not None for vals in polished_pair(prob, 3))

    def test_coarse_fallback_starts_the_fine_grid_from_the_coarse_values(self, monkeypatch):
        # loose guesses that skip a mode fail the coarse certificate; the
        # coarse grid falls back to the bisection and the fine grid starts
        # from its values
        prob, k = self.CASES["crs-k3"]
        bisection = numerics._bisection

        def skipping(d, e, k, tol=0.0, **options):
            if not tol:
                return bisection(d, e, k, **options)
            return np.delete(bisection(d, e, k + 1, tol=tol, **options), 1)

        monkeypatch.setattr(numerics, "_bisection", skipping)
        _, coarse, fine = richardson_eigenvalues(prob, k)
        monkeypatch.undo()
        d, e = assemble(prob).standard_form()
        assert np.array_equal(coarse, _bisection(d, e, k, eigvals_only=True))
        fd, fe = assemble(prob.refined()).standard_form()
        assert np.array_equal(fine, _polished(fd, fe, shifts=coarse))

    def test_repeats_bit_for_bit(self):
        prob, k = self.CASES["polar-k50"]
        first = richardson_eigenvalues(prob, k)
        for a, b in zip(first, richardson_eigenvalues(prob, k)):
            assert np.array_equal(a, b)

    @settings(max_examples=10, deadline=None, derandomize=True)
    # a benchmark configuration whose coarse polish converged to a
    # neighbouring eigenvalue while the shift followed the Rayleigh quotient
    # outside the cell of its guess
    @example(model="crs", lam=0.33684102686207995, omega=1.936192763251247, mprime=0, k=50)
    @given(model=st.sampled_from(("higgs", "crs")), lam=st.floats(0.1, 1.0),
           omega=st.floats(0.5, 2.0), mprime=st.sampled_from((0, 1)),
           k=st.sampled_from((3, 50)))
    def test_pair_matches_relative_accuracy_bisection(self, model, lam, omega, mprime, k):
        # no fallback on either grid, and both grids within 1e-9 of the
        # relative-accuracy bisection, itself off by up to 7.5e-10 from an
        # extended-precision Sturm count at lam = 1, omega = 0.5, m' = 0
        params = PhysParams(lam=lam, omega=omega)
        build = higgs_oscillator_problem if model == "higgs" else crs_natural_problem
        prob = build(mprime, params, 4000)
        certified = polished_pair(prob, k)
        assert all(vals is not None for vals in certified)
        _, coarse, fine = richardson_eigenvalues(prob, k)
        for vals, hand, grid in zip((coarse, fine), certified, (prob, prob.refined())):
            assert np.array_equal(vals, hand)
            ref = relative_bisection(grid, k)
            assert np.max(np.abs(vals - ref) / ref) <= 1e-9


def wide_crs_problem(mprime_q):
    """The wide-domain crs problem of problems.crs_spectrum_numeric_wide."""
    bc = (EndpointRule.power(0.5 + mprime_q, 0.0), EndpointRule.dirichlet())
    return crs_problem(UNIT, lambda x: crs.crs_potential_special(x, mprime_q, UNIT),
                       Grid1D(1e-4, 10.0, 16000), bc)


def stein_vectors(prob, k):
    """The k lowest eigenvectors (rows, on the full grid, weighted unit norm)
    by the bisection and inverse iteration (stebz/stein)."""
    system = assemble(prob)
    _, u = _bisection(*system.standard_form(), k)
    v = system.expand(u.T / np.sqrt(system.m_diag))
    w = np.asarray(prob.w(prob.grid.points()), float)
    return v / np.sqrt(np.sum(w * v * v, axis=1) * prob.grid.h)[:, None]


class TestSingleGridPolish:
    # single-grid solves polish guesses bisected on a coarser guess grid
    # and fall back to the bisection where they cannot be certified
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("example,l,mprime_q", [
        (1, 3.0, 0), (1, 3.0, 1), (1, 3.0, 2), (1, 4.0, 0), (1, 4.0, 1), (1, 4.0, 2),
        (2, None, 0), (2, None, 1), (2, None, 2)])
    def test_qes_channels_certified_near_relative_bisection(self, example, l, mprime_q, lam):
        # the default bisection leaves up to 6e-6 relative on these channels
        prob = qes_channel_problem(example, mprime_q, mprime_q, PhysParams(lam=lam), 8001, l=l)
        d, e = assemble(prob).standard_form()
        certified = _coarse_polished(prob, 3, d, e)
        assert certified is not None
        vals = lowest_eigenvalues(prob, 3)
        assert np.array_equal(vals, certified)
        ref = relative_bisection(prob, 3)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-7

    @pytest.mark.parametrize("case", ["guesses-miss-a-mode", "grid-too-small"])
    def test_fallback_is_the_bisection_bit_for_bit(self, case, monkeypatch):
        if case == "guesses-miss-a-mode":
            # 250 coarse points miss the ground state of this channel: the
            # guesses sit near modes 1-3, where the polish converges too
            monkeypatch.setattr(numerics, "_COARSEN", 32)
            prob, k = qes_channel_problem(2, 2, 2, UNIT, 8001), 3
        else:
            # max(1000 // 16, 40 k) = 600 guess points, more than half of 1000
            prob, k = flat_oscillator(n=1000), 15
        d, e = assemble(prob).standard_form()
        assert _coarse_polished(prob, k, d, e) is None
        plain = _bisection(d, e, k, eigvals_only=True)
        assert np.array_equal(lowest_eigenvalues(prob, k), plain)
        assert np.array_equal(lowest_eigenpairs(prob, k).eigenvalues, plain)

    @pytest.mark.parametrize("prob,k", [
        (higgs_oscillator_problem(0, UNIT, 8001), 50),
        (wide_crs_problem(1), 8),
        (qes_channel_problem(2, 2, 1, UNIT, 2000), 1),
        (flat_oscillator(), 4),
    ], ids=["polar-k50", "crs-wide", "qes2-neighbour", "flat-k4"])
    def test_polished_pairs_match_stein(self, prob, k):
        # the deep polar solve and the pairs that verify reads
        d, e = assemble(prob).standard_form()
        assert _coarse_polished(prob, k, d, e) is not None
        res = lowest_eigenpairs(prob, k)
        ref = stein_vectors(prob, k)
        w = np.asarray(prob.w(prob.grid.points()), float)
        overlap = np.abs(np.sum(w * ref * res.eigenvectors.T, axis=1)) * prob.grid.h
        assert np.all(overlap >= 1 - 1e-10)
        assert np.all(backward_errors(prob, res.eigenvalues, res.eigenvectors) < 1e-13)


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
        res = lowest_eigenpairs(prob, 2)
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


class TestConvergenceOrder:
    def test_second_order(self):
        errs = []
        for n in (400, 801, 1603):
            errs.append(abs(lowest_eigenvalues(flat_oscillator(n=n), 1)[0] - 1.0))
        for e0, e1 in zip(errs, errs[1:]):
            order = math.log2(e0 / e1)
            assert 1.8 <= order <= 2.2
