import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from curvosc import crs, higgs, numerics, problems, verify
from curvosc.crs import QesSpec
from curvosc.errors import (
    NodeDetectedError, NonpositiveWeightError, StateRangeError, UnresolvedError)
from curvosc.numerics import (
    EndpointRule,
    Grid1D,
    SturmLiouvilleProblem,
    assemble,
    derivatives,
    lowest_eigenpairs,
    lowest_eigenvalues,
    node_count,
    rayleigh_quotient,
    residual_norm,
    richardson_eigenvalues,
)
from curvosc.numerics import (
    _bisection, _coarse_polished, _gershgorin, _polished, _prolongation, _times)
from curvosc.params import PhysParams
from curvosc.problems import (
    crs_natural_problem,
    crs_wide_problem,
    higgs_oscillator_problem,
    higgs_radial_problem,
    qes_channel_problem,
    qes_rayleigh_problem,
)

UNIT = PhysParams()
# the sqrt(lam) x family at m'_Q = 1 and unit parameters
QES2 = QesSpec.example2(1, UNIT)

ONE = lambda x: np.ones_like(np.asarray(x, float))


def separate(p, q, w, grid, bc=(None, None)):
    """The problem of p, q and w given as one function each."""
    return SturmLiouvilleProblem(p, lambda t: (q(t), w(t)), grid, bc)


def scalar_profile(rule):
    """phi and phi' of a rule as plain scalar functions, phi from its log."""
    sig, c = rule.exponent, rule.center
    closed = rule.profile or (lambda t: (sig * math.log(abs(t - c)), sig / (t - c)))
    phi = lambda t: math.exp(float(closed(t)[0]))
    return phi, lambda t: float(closed(t)[1]) * phi(t)


# a corner at 0 closed by the profile phi = t^1.5 (1 + 0.4 t - 0.1 t^2)
PROFILE_RULE = EndpointRule(1.5, 0.0, lambda t: (
    1.5 * np.log(t) + np.log(1 + 0.4 * t - 0.1 * t * t),
    1.5 / t + (0.4 - 0.2 * t) / (1 + 0.4 * t - 0.1 * t * t)))


def profile_ratio(rule, t, t0):
    """phi(t)/phi(t0) of rule's profile, from its samples at t and t0."""
    return rule.sample_ratio(rule.sample(t)[0], rule.sample(t0)[0])


def corner_width(n):
    """Cells of a power corner that assemble corrects: max(40, n // 5), at
    most n."""
    return min(max(40, n // 5), n)


def standard(k_diag, k_off, m):
    """(d, e, m) of the pencil K v = E M v given by the diagonals of K and
    M: the standard form M^(-1/2) K M^(-1/2) beside M, as assemble returns it."""
    return k_diag / m, k_off / np.sqrt(m[:-1] * m[1:]), m


def reference_assemble(prob):
    """The corner treatment written out cell by cell with scalar phi: one
    24-point Gauss-Legendre sum per cell, divided by phi(x_i) h; K and M
    as (d, e, m)."""
    gx, gw = np.polynomial.legendre.leggauss(24)
    n, h = prob.grid.n, prob.grid.h
    x, xf = prob.grid.points(), prob.grid.faces()
    pf = prob.p(xf)
    q, w = (np.array(v, float) for v in prob.qw(x))
    g = np.full(n + 1, 1.0 / h)
    extra = [0.0, 0.0]
    for side, rule in enumerate(prob.bc):
        if rule is None:
            continue
        phi, dphi = scalar_profile(rule)
        m = corner_width(n)
        faces = range(1, m) if side == 0 else range(n - m + 1, n)
        cells = range(m) if side == 0 else range(n - m, n)
        for j in faces:
            g[j] = dphi(xf[j]) / (phi(x[j]) - phi(x[j - 1]))
        for i in cells:
            lo, hi = xf[i], xf[i + 1]
            t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gx
            weight = 0.5 * (hi - lo) * gw * np.array([phi(tk) for tk in t]) / (phi(x[i]) * h)
            qt, wt = prob.qw(t)
            q[i], w[i] = np.dot(weight, qt), np.dot(weight, wt)
        if side == 0:
            extra[0] = pf[0] * dphi(xf[0]) / phi(x[0]) / h
        else:
            extra[1] = -pf[n] * dphi(xf[n]) / phi(x[n - 1]) / h
    off = -pf[1:-1] * g[1:-1] / h
    diag = (pf[:-1] * g[:-1] + pf[1:] * g[1:]) / h + q
    left, right = prob.bc
    if left is not None:
        diag[0] = pf[1] * g[1] / h + q[0] + extra[0]
    if right is not None:
        diag[-1] = pf[-2] * g[-2] / h + q[-1] + extra[1]
    return standard(diag, off, w)


def full_order_assemble(prob):
    """The assembled entries with every corrected cell averaged by the
    24-point Gauss-Legendre rule, all cells of a corner at once; the profile
    enters through EndpointRule.sample and sample_ratio, so any sigma
    stays finite.  K and M as (d, e, m)."""
    gx, gw = np.polynomial.legendre.leggauss(24)
    n, h = prob.grid.n, prob.grid.h
    x, xf = prob.grid.points(), prob.grid.faces()
    pf = prob.p(xf)
    q, w = (np.array(v, float) for v in prob.qw(x))
    g = np.full(n + 1, 1.0 / h)
    extra = [0.0, 0.0]
    for side, rule in enumerate(prob.bc):
        if rule is None:
            continue
        m = corner_width(n)
        if side == 0:
            j, i = np.arange(1, m), np.arange(m)
            ref = x[j]
            extra[0] = pf[0] * rule.sample(xf[0])[1] * profile_ratio(rule, xf[0], x[0]) / h
        else:
            j, i = np.arange(n - m + 1, n), np.arange(n - m, n)
            ref = x[j - 1]
            extra[1] = -pf[n] * rule.sample(xf[n])[1] * profile_ratio(rule, xf[n], x[n - 1]) / h
        dp = profile_ratio(rule, x[j], ref) - profile_ratio(rule, x[j - 1], ref)
        flux = rule.sample(xf[j])[1] * profile_ratio(rule, xf[j], ref)
        g[j] = np.divide(flux, dp, out=g[j], where=dp != 0)    # sigma = 0 keeps 1/h
        half = 0.5 * (xf[i + 1] - xf[i])
        t = 0.5 * (xf[i + 1] + xf[i])[:, None] + half[:, None] * gx
        weight = profile_ratio(rule, t, x[i, None]) * (half / h)[:, None] * gw
        qt, wt = prob.qw(t)
        q[i], w[i] = np.sum(qt * weight, axis=1), np.sum(wt * weight, axis=1)
    off = -pf[1:-1] * g[1:-1] / h
    diag = (pf[:-1] * g[:-1] + pf[1:] * g[1:]) / h + q
    left, right = prob.bc
    if left is not None:
        diag[0] = pf[1] * g[1] / h + q[0] + extra[0]
    if right is not None:
        diag[-1] = pf[-2] * g[-2] / h + q[-1] + extra[1]
    return standard(diag, off, w)


def corner_problem(sigma, side, n=2001):
    """A power corner of exponent sigma on one end of (0, 1), q singular
    like d^(-5/2) at both ends, so that q phi is not a polynomial for any
    integer sigma."""
    rules = [None, None]
    rules[side] = EndpointRule(sigma, float(side))
    return separate(
        lambda x: 1 + 0.5 * x, lambda x: 2 / x**2.5 + 3 / (1 - x) ** 2.5 + x,
        lambda x: 1 + x**2, Grid1D(0.0, 1.0, n), tuple(rules))


def backward_errors(prob, vals, vectors):
    """||(K - E M) v|| / || |K||v| + |E| M|v| || of each pair (E, v), v the
    columns of vectors on the grid, on the assembled system of prob, K =
    M^(1/2) T M^(1/2): each residual held against the roundoff scale of its
    own products, so a converged pair reads about 1e-16."""
    d, e, md = assemble(prob)
    kd, ko = d * md, e * np.sqrt(md[:-1] * md[1:])
    v = vectors.T
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
    return separate(ONE, lambda x: np.asarray(x, float) ** 2, ONE, Grid1D(a, b, n))


# problems whose corner nodes assemble lays out: two power corners, two
# corners closed by the ground state, a bare power corner beside a power
# corner (a neighbour channel), and two corners that overlap on all 45 cells
CORNER_LAYOUTS = [
    pytest.param(higgs_oscillator_problem(1, PhysParams(lam=0.003), 2000), id="polar"),
    pytest.param(qes_channel_problem(1, QES2, UNIT, 1000), id="qes2-profile"),
    pytest.param(qes_channel_problem(2, QES2, UNIT, 1000), id="qes2-neighbour"),
    pytest.param(separate(
        ONE, lambda x: 1 / x**2 + 1 / (1 - x) ** 2, ONE, Grid1D(0.0, 1.0, 45),
        (EndpointRule(1.5, 0.0), EndpointRule(2.0, 1.0))),
        id="overlapping-corners"),
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

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0),
                                     (0.0, math.nan), (math.nan, 1.0)])
    def test_refuses_a_non_finite_end(self, a, b):
        with pytest.raises(ValueError, match="need finite a < b"):
            Grid1D(a, b, 10)


class TestAssemble:
    def test_stencil_entries(self):
        prob = flat_oscillator(n=10, a=0.0, b=1.1)
        d, e, m = assemble(prob)
        h = prob.grid.h
        x = prob.grid.points()
        assert e == pytest.approx(-np.ones(9) / h**2)
        assert d == pytest.approx(2 / h**2 + x**2)
        assert m == pytest.approx(np.ones(10))

    @pytest.mark.parametrize("ends", [(0, 1), (0,), (1,)], ids=["both", "left", "right"])
    def test_linear_profile_end_faces_are_dirichlet_walls(self, ends):
        # on d^1 every profile factor is exact at 1/h, so a sigma = 1 rule
        # assembles the walls' system; with both ends it reads 2.9e-14
        walls = separate(ONE, lambda x: 2 * ONE(x), ONE, Grid1D(0.0, 1.0, 301))
        bc = tuple(EndpointRule(1.0, float(side)) if side in ends else None for side in (0, 1))
        rules = replace(walls, bc=bc)
        for x, y in zip(assemble(walls), assemble(rules)):
            assert np.max(np.abs(y - x) / np.abs(x)) <= 1e-13

    def test_nonpositive_weight_rejected(self):
        prob = separate(ONE, ONE, lambda x: np.asarray(x, float) - 0.5, Grid1D(0.0, 1.0, 9))
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
        # profile rule at the left corner
        separate(
            lambda x: 1 + x, lambda x: 2 / x**2 + x, lambda x: 1 + 0.5 * x**2,
            Grid1D(0.0, 2.0, 301), (PROFILE_RULE, None)),
        # power corner on the right, its 40 corrected cells over most of
        # the grid
        separate(
            lambda x: 2 - x, lambda x: 6 / (1 - x) ** 2, ONE,
            Grid1D(0.0, 1.0 - 1e-3, 45),
            (None, EndpointRule(3.0, 1.0))),
    ], ids=["profile-left", "power-right"])
    def test_matches_scalar_reference(self, prob):
        for got, want in zip(assemble(prob), reference_assemble(prob)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11

    @pytest.mark.parametrize("rung", range(len(numerics._ORDERS)),
                             ids=[f"m{m}" for m in numerics._ORDERS])
    def test_gauss_legendre_tables(self, rung):
        # each m-point rule integrates x^(2j), j < m, over [-1, 1] to
        # roundoff, and is symmetric, so the odd powers integrate to zero;
        # its nodes are numpy's
        m, first = numerics._ORDERS[rung], numerics._FIRST[rung]
        x, w = numerics._NODES[first:first + m], numerics._WEIGHTS[first:first + m]
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        exact = 2 / (2 * np.arange(m) + 1)
        moments = np.array([np.sum(w * x ** (2 * j)) for j in range(m)])
        assert np.max(np.abs(moments - exact) / exact) <= 1e-14
        assert np.max(np.abs(x - np.polynomial.legendre.leggauss(m)[0])) <= 2e-16

    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.5, 1.0, 3.0, 22.0, 102.0])
    def test_graded_orders_match_full_order(self, sigma, side):
        for got, want in zip(assemble(corner_problem(sigma, side)),
                             full_order_assemble(corner_problem(sigma, side))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11

    @pytest.mark.parametrize("sigma", [-0.5, 0.5, 3.0, 22.0, 102.0])
    def test_mirror_image_assembles_the_mirrored_system(self, sigma):
        # the corner at 0 and its mirror image at 1, p, q and w composed
        # with t -> 1 - t: both corners are one rule in their outward
        # frames, so the systems agree row for row, reversed, up to the
        # rounding of the mirrored grid points (7.5e-11 in m at sigma = 1000)
        prob = corner_problem(sigma, 0)
        mirror = replace(prob, p=lambda t: prob.p(1 - t), qw=lambda t: prob.qw(1 - t),
                         bc=(None, EndpointRule(sigma, 1.0)))
        for got, want in zip(assemble(mirror), assemble(prob)):
            assert np.max(np.abs(got[::-1] - want) / np.abs(want)) <= 1e-11

    @pytest.mark.parametrize("prob", [
        # grids that end at the singular point: the equator (sigma ~ 12 at
        # lam = 0.1), the tan pole, the origin of the wide crs domain
        higgs_oscillator_problem(1, PhysParams(lam=0.1), 4000),
        crs_natural_problem(1, UNIT, 4000),
        crs_wide_problem(1, UNIT, 16000),
        # the solvable channel, closed at both ends by its ground state, and
        # a neighbour channel, closed by bare roots
        qes_channel_problem(1, QES2, UNIT, 4000),
        qes_channel_problem(2, QES2, UNIT, 2000),
    ], ids=["polar-equator", "crs-tan-pole", "crs-wide", "qes2-profile", "qes2-neighbour"])
    def test_graded_orders_match_full_order_on_model_problems(self, prob):
        for got, want in zip(assemble(prob), full_order_assemble(prob)):
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
                numerics._rungs(EndpointRule(sigma, centre), mid, half)]
            assert orders.max() <= 24 and orders.min() >= 4
            assert np.all(np.diff(orders) <= 0)       # never more nodes farther out
            if gap == 0.0:
                assert orders[0] == 24                # the cell touching the corner

    @staticmethod
    def counted(prob):
        """prob with qw wrapped to record the arrays it receives."""
        seen = []

        def qw(t):
            seen.append(np.array(t))
            return prob.qw(t)

        return replace(prob, qw=qw), seen

    @pytest.mark.parametrize("prob", CORNER_LAYOUTS + [
        pytest.param(flat_oscillator(n=50), id="dirichlet")])
    def test_one_qw_call(self, prob):
        wrapped, seen = self.counted(prob)
        got = assemble(wrapped)
        assert len(seen) == 1
        for a, b in zip(got, assemble(prob)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("prob", [
        pytest.param(higgs_oscillator_problem(1, UNIT, 8001), id="higgs-power"),
        pytest.param(crs_natural_problem(1, UNIT, 8001), id="crs-power"),
        pytest.param(qes_channel_problem(1, QES2, UNIT, 2000), id="qes2-profile")])
    def test_qw_runs_beside_a_small_working_set(self, prob):
        # through the one model evaluation assemble keeps the flat node array,
        # the corners' cells and weights and p times the face factors: 7.1-7.5
        # float64 words a point, where the corners' bookkeeping held 13.6-14.2
        live = []

        def qw(t):
            live.append(tracemalloc.get_traced_memory()[0])
            return prob.qw(t)

        wrapped = replace(prob, qw=qw)
        assemble(wrapped)                   # lazy set-up outside the count
        tracemalloc.start()
        try:
            assemble(wrapped)
        finally:
            tracemalloc.stop()
        assert live[-1] <= 10 * 8 * prob.grid.n

    @pytest.mark.parametrize("prob", CORNER_LAYOUTS)
    def test_each_corner_cell_gets_its_rung_node_count(self, prob):
        # the model sees the points outside the corners, then every corner
        # node, each corner's nodes strictly inside the cell they average,
        # the cells nearest the corner first
        wrapped, seen = self.counted(prob)
        assemble(wrapped)
        t = seen[0]
        n = prob.grid.n
        x, xf = prob.grid.points(), prob.grid.faces()
        sampled = np.ones(n, bool)
        corners = []
        for side, rule in enumerate(prob.bc):
            if rule is None:
                continue
            m = corner_width(n)
            i = np.arange(m) if side == 0 else np.arange(n - 1, n - 1 - m, -1)
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
            assert np.array_equal(np.bincount(np.abs(np.searchsorted(xf, nodes) - 1 - i[0]),
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
        bc = [None, None]
        bc[side] = EndpointRule(1.5, 0.0 if side == 0 else 1.0)
        assemble(separate(ONE, ONE, ONE, grid, tuple(bc)))
        with pytest.raises(NonpositiveWeightError, match="weight w"):
            assemble(separate(ONE, ONE, w, grid, tuple(bc)))

    def test_ratio_survives_where_phi_underflows(self):
        rule = EndpointRule(1000.0, 0.0)
        h = 1e-3
        assert h**1000.0 == 0.0
        for t, t0 in ((h, 1.5 * h), (1.5 * h, h)):
            r = float(profile_ratio(rule, t, t0))
            assert math.isfinite(r) and r > 0
            assert r == pytest.approx(math.exp(1000.0 * math.log(t / t0)), rel=1e-12)
        assert float(rule.sample(h)[1]) == pytest.approx(1000.0 / h, rel=1e-14)

    def test_power_rule_is_the_bare_power(self):
        # without a profile the rule is |t - c|^sigma: ratio and
        # log-derivative are the bare formulas, bit for bit
        sig, c = 1.7, 0.3
        rule = EndpointRule(sig, c)
        t = np.concatenate((np.linspace(-2.0, 0.29, 40), np.linspace(0.31, 2.0, 40)))
        t0 = t[::-1]
        assert np.array_equal(profile_ratio(rule, t, t0), (np.abs(t - c) / np.abs(t0 - c)) ** sig)
        assert np.array_equal(rule.sample(t)[1], np.sign(t - c) * (sig / np.abs(t - c)))

    def test_profile_rule_reads_its_pair(self):
        # with a profile: the ratio is exp(log phi(t) - log phi(t0)) and the
        # log-derivative the profile's own, bit for bit
        t = np.linspace(0.01, 2.0, 50)
        (log_phi, slope), (log_phi0, _) = PROFILE_RULE.profile(t), PROFILE_RULE.profile(t[::-1])
        assert np.array_equal(profile_ratio(PROFILE_RULE, t, t[::-1]),
                              np.exp(log_phi - log_phi0))
        assert np.array_equal(PROFILE_RULE.sample(t)[1], slope)

    def test_profile_read_once_per_point(self):
        # each corner reads its profile once, at distinct grid points, faces and nodes
        prob, seen = qes_channel_problem(1, QES2, UNIT, 1000), []
        traced = [replace(rule, profile=lambda t, f=rule.profile: seen.append(t) or f(t))
                  for rule in prob.bc]
        assemble(replace(prob, bc=tuple(traced)))
        assert len(seen) == 2 and all(np.unique(t).size == t.size for t in seen)

    def test_nonfinite_system_raises_typed_error(self):
        grid = Grid1D(0.0, 1.0, 200)
        xf = grid.faces()
        q = lambda x: np.where((x > xf[2]) & (x < xf[3]), np.nan, 0.0 * x)
        prob = separate(ONE, q, ONE, grid, (EndpointRule(1.0, 0.0), None))
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="non-finite"):
                solve(prob, 2)


class TestLowestEigenvalues:
    def test_k1_flat_ground_state(self):
        vals = lowest_eigenvalues(flat_oscillator(n=8000), 1)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(1.0, abs=1e-6)

    def test_richardson(self):
        extrap, coarse, fine, _ = richardson_eigenvalues(flat_oscillator(n=500), 2)
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
        _, vectors = lowest_eigenpairs(prob, 3)
        x = prob.grid.points()
        w = np.ones_like(x)
        for j in range(3):
            v = vectors[:, j]
            assert np.sum(w * v * v) * prob.grid.h == pytest.approx(1.0, rel=1e-12)
            big = np.nonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
            assert v[big[0]] > 0

    def test_profile_closed_system_eigenvectors(self):
        # a corner closed by a profile: one row per grid point, vectors
        # orthonormal in the assembled weights, V^T M V h = I, where the
        # profile-weighted corner cells make m differ from the sampled w
        rule = PROFILE_RULE
        prob = separate(lambda x: 1 + x, lambda x: 2 / x**2 + x, lambda x: 1 + 0.5 * x**2,
                        Grid1D(0.0, 2.0, 301), (rule, None))
        _, vectors = lowest_eigenpairs(prob, 3)
        _, _, m = assemble(prob)
        assert vectors.shape == (301, 3)
        assert not np.allclose(m, prob.qw(prob.grid.points())[1], rtol=1e-12, atol=0)
        gram = vectors.T @ (m[:, None] * vectors) * prob.grid.h
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        for j in range(3):
            v = vectors[:, j]
            big = np.nonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
            assert v[big[0]] > 0

    def test_node_counts_match_index(self):
        _, vectors = lowest_eigenpairs(flat_oscillator(n=1000), 5)
        for j in range(5):
            v = vectors[:, j]
            vv = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            assert int(np.sum(vv[:-1] * vv[1:] < 0)) == j

    def test_residual_norms_small(self):
        prob = flat_oscillator()
        assert np.all(backward_errors(prob, *lowest_eigenpairs(prob, 3)) < 1e-10)

    def test_k_budget_enforced(self):
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="budget"):
                solve(flat_oscillator(n=100), 30)

    def test_eigenvalues_strictly_ascending(self):
        assert np.all(np.diff(lowest_eigenvalues(flat_oscillator(), 6)) > 0)
        assert np.all(np.diff(lowest_eigenpairs(flat_oscillator(), 6)[0]) > 0)

    def test_spectral_edge_guard(self):
        # q = 1e9 lifts the whole spectrum to within 5 % of the edge
        # max(d) + 2 max|e| of the standard form
        prob = separate(ONE, lambda x: 1e9 * ONE(x), ONE, Grid1D(0.0, 1.0, 100))
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="spectral edge"):
                solve(prob, 3)

    @pytest.mark.parametrize("E0", [2e-13, -2e-13, 0.0])
    def test_roundoff_floor_guard(self, E0):
        # the edge max d + 2 max|e| is 1, so the floor is 1e3 eps = 2.2e-13
        d, e = np.full(8, 0.5), np.full(7, 0.25)
        with pytest.raises(UnresolvedError, match="roundoff"):
            numerics._checked(np.array([E0, 0.1]), d, e)
        assert numerics._checked(np.array([3e-13, 0.1]), d, e)[0] == 3e-13

    @pytest.mark.parametrize("l", [1e4, 1e6, 1e10])
    def test_qes_ground_level_below_the_roundoff_floor_is_refused(self, l):
        # E_0/edge reads 4.9e-14 at l = 1e4 and -3.4e-15 above; unguarded, the
        # channel gives 3.96, -2739 and -2.7e11 against the closed form 4.236
        spec = QesSpec.example1(l, 1, UNIT)
        for solve in (lowest_eigenvalues, lowest_eigenpairs):
            with pytest.raises(UnresolvedError, match="roundoff"):
                solve(qes_channel_problem(1, spec, UNIT, 2000), 3)

    @pytest.mark.parametrize("prob,least", [
        (qes_channel_problem(1, QesSpec.example1(3, 1, UNIT), UNIT, 2000), 5.7e-7),
        (qes_channel_problem(0, QesSpec.example1(1000, 0, UNIT), UNIT, 2000), 1.9e-12),
        (qes_channel_problem(0, QesSpec.example1(100, 0, UNIT), UNIT, 2000), 1.9e-10),
        (qes_channel_problem(0, QesSpec.example2(0, PhysParams(lam=1e-3)),
                             PhysParams(lam=1e-3), 2000), 1.8e-4),
        (qes_channel_problem(0, QesSpec.example2(0, PhysParams(lam=1e100)),
                             PhysParams(lam=1e100), 2000), 3e-7),
        (higgs_oscillator_problem(0, PhysParams(lam=0.001), 8001), 1.7e-10),
        (crs_natural_problem(0, PhysParams(lam=0.01), 8001), 5.8e-10),
    ], ids=["qes1-l3", "qes1-l1000", "qes1-l100", "qes2-lam1e-3", "qes2-lam1e100",
            "higgs-lam1e-3", "crs-lam1e-2"])
    def test_resolved_ground_levels_clear_the_roundoff_floor(self, prob, least):
        # the smallest E_0/edge of a shipped command, 1.7e-10 (higgs, the
        # fine grid at lam = 0.001), lies 770 times above the floor
        d, e, _ = assemble(prob)
        E0 = lowest_eigenvalues(prob, 1)[0]
        assert E0 / (np.max(d) + 2 * np.max(np.abs(e))) >= least

    @pytest.mark.parametrize("prob,k", [
        (higgs_oscillator_problem(0, UNIT, 8001), 50),
        (qes_channel_problem(1, QES2, UNIT, 2001), 1),
    ], ids=["polar-k50", "qes2-profile"])
    def test_both_paths_bitwise_equal(self, prob, k):
        vals = lowest_eigenvalues(prob, k)
        assert vals.shape == (k,)
        assert np.array_equal(vals, lowest_eigenpairs(prob, k)[0])


class TestBackwardError:
    # converged pairs read roundoff against the componentwise scale
    # |K||v| + |E| M|v|, on a deep polar solve, a resonant QES channel
    # closed by its ground state and the crs natural branch
    CASES = {
        "polar-k50": (higgs_oscillator_problem(0, UNIT, 8001), 50),
        "qes2-profile": (qes_channel_problem(1, QES2, UNIT, 2001), 1),
        "crs-natural": (crs_natural_problem(1, UNIT, 4000), 3),
    }

    # where the polish stops does not depend on its fixed start: every seed
    # of it reads roundoff (the deep polar solve, 0.1 s a seed, runs at the
    # shipped seed only)
    @pytest.mark.parametrize("case,seed", [("polar-k50", numerics._START_SEED)] + [
        (case, seed) for case in ("qes2-profile", "crs-natural")
        for seed in (*range(1, 21), numerics._START_SEED)])
    def test_converged_pairs_read_roundoff(self, case, seed, monkeypatch):
        monkeypatch.setattr(numerics, "_START_SEED", seed)
        prob, k = self.CASES[case]
        errors = backward_errors(prob, *lowest_eigenpairs(prob, k))
        assert errors.shape == (k,)
        assert np.all(errors < 1e-13)

    def test_shifted_eigenvalues_raise_the_residual(self):
        prob, k = self.CASES["polar-k50"]
        vals, vectors = lowest_eigenpairs(prob, k)
        exact = backward_errors(prob, vals, vectors)
        shifted = backward_errors(prob, vals * (1 + 1e-6), vectors)
        assert np.all(exact < 1e-13)
        assert np.all(shifted > 10 * exact)
        assert np.median(shifted / exact) > 1e4


def relative_bisection(prob, k):
    """The k lowest eigenvalues of prob by bisection to relative accuracy
    (LAPACK's recommended ABSTOL of twice the underflow threshold)."""
    d, e, _ = assemble(prob)
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1),
                            tol=2 * np.finfo(float).tiny)


def polished_pair(prob, k):
    """Both grids of a Richardson pair written out: the coarse grid polished
    from a bisection to sqrt(eps) ||T_g|| on a guess grid of max(n/16, 40 k)
    points (to the default tolerance where two of those guesses lie within
    4 tol), keeping its vectors in single precision, the fine grid from
    those vectors prolonged.  None stands for a grid whose certificate
    fails (for both where the coarse one fails)."""
    d, e, m = assemble(prob)
    grid = prob.grid
    guess = replace(prob, grid=Grid1D(grid.a, grid.b, max(grid.n // 16, 40 * k)))
    gd, ge, _ = assemble(guess)
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
    fd, fe, fm = assemble(prob.refined())
    prolong = _prolongation(grid, m, fm, prob.bc)
    fine = _polished(fd, fe, starts=(prolong(u) for u in vectors))
    return coarse, fine


def splitmix64(state):
    """The splitmix64 output of a 64-bit state, in Python integers."""
    mask = 2 ** 64 - 1
    z = state & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_start_vector_is_the_seeded_counter_hash():
    # entry i hashes the counter seed + (i + 1) golden-ratio steps, its top
    # 52 bits k mapped to (k + 1/2) 2^-51 - 1; no entry depends on n
    assert splitmix64(1234567 + 0x9E3779B97F4A7C15) == 6457827717110365317
    x = numerics._start(8001)
    want = [((splitmix64(numerics._START_SEED + (i + 1) * 0x9E3779B97F4A7C15) >> 12) + 0.5)
            * 2.0 ** -51 - 1 for i in (0, 1, 2, 4000, 8000)]
    assert x[[0, 1, 2, 4000, 8000]].tolist() == want
    assert np.array_equal(x[:100], numerics._start(100))
    assert np.all(np.abs(x) < 1) and abs(np.mean(x)) < 0.05 and abs(np.var(x) - 1 / 3) < 0.02


def test_dirichlet_wall_carries_as_the_power_one_profile():
    # a carried start has one wall rule: a Dirichlet end is the power-1
    # profile at the grid end, so v reaches the point beside the wall as
    # v[a]/2 and the first midpoint as 3 v[b]/4
    grid = Grid1D(-1.0, 2.0, 50)
    m, fm = np.linspace(1.0, 2.0, 50), np.linspace(2.0, 3.0, 101)
    u = np.sin(np.arange(1.0, 51.0))
    walls = _prolongation(grid, m, fm, (None, None))(u)
    powers = _prolongation(grid, m, fm, (EndpointRule(1.0, -1.0), EndpointRule(1.0, 2.0)))(u)
    assert np.array_equal(walls, powers)
    v, vf = u / np.sqrt(m), walls / np.sqrt(fm)
    assert np.allclose(vf[[0, 2, -1, -3]], [v[0] / 2, 3 * v[1] / 4, v[-1] / 2, 3 * v[-2] / 4],
                       rtol=1e-14, atol=0)


def polish_with(**starts):
    """A _polish hook for lowest_eigenvalues that polishes from the given
    starts or shifts."""
    return lambda d, e, m: _polished(d, e, **starts)


SEEDED_CASES = {
    "polar-k50": (higgs_oscillator_problem(0, UNIT, 4000), 50),
    "crs-k3": (crs_natural_problem(1, UNIT, 4000), 3),
}


@pytest.fixture(scope="module")
def seeded_references():
    """The relative-accuracy bisection of each seeded case on its coarse and
    its fine grid, built once for every test that reads them."""
    return {case: (relative_bisection(prob, k), relative_bisection(prob.refined(), k))
            for case, (prob, k) in SEEDED_CASES.items()}


class TestSeededEigenvalues:
    # Richardson pairs: each grid is polished from seeds (the coarse grid
    # from a loose bisection on its guess grid, the fine grid from the
    # coarse vectors), and falls back to the bisection where the seeds
    # cannot be certified
    @pytest.mark.parametrize("case", SEEDED_CASES)
    def test_matches_relative_accuracy_bisection(self, case, seeded_references):
        prob, k = SEEDED_CASES[case]
        assert all(vals is not None for vals in polished_pair(prob, k))
        _, coarse, fine, _ = richardson_eigenvalues(prob, k)
        for vals, ref in zip((coarse, fine), seeded_references[case]):
            assert np.max(np.abs(vals - ref) / ref) <= 1e-9

    @pytest.mark.parametrize("mprime", [0, 1])
    def test_guesses_off_by_part_of_the_gap_certify(self, mprime):
        # the guesses of the k = 50 coarse grid lie 0.7 below levels 4.5
        # apart; the shift leaves each guess only once rho +- the residual
        # lies in its window, so the polish does not slip to the level below
        prob = crs_natural_problem(mprime, PhysParams(lam=0.003, omega=2.0), 4000)
        d, e, _ = assemble(prob)
        vals = _coarse_polished(prob, 50, d, e)
        assert vals is not None
        assert np.max(np.abs(vals - relative_bisection(prob, 50)) / vals) <= 1e-9

    def test_bad_guesses_fall_back_to_bisection(self):
        prob, k = SEEDED_CASES["crs-k3"]
        fine = prob.refined()
        four = lowest_eigenvalues(prob, k + 1)
        other = lowest_eigenvalues(
            higgs_oscillator_problem(0, PhysParams(lam=0.3, omega=2.0), 1000), k)
        d, e, _ = assemble(fine)
        plain = _bisection(d, e, k, eigvals_only=True)
        # all equal, one repeated, out of order, one skipped, another problem's
        for near in (np.full(k, four[1]), four[[0, 0, 2]], four[[1, 0, 2]],
                     np.delete(four, 1), other):
            assert _polished(d, e, shifts=near) is None
            assert np.array_equal(lowest_eigenvalues(fine, k, _polish=polish_with(shifts=near)),
                                  plain)

    def test_bad_start_vectors_certified_or_bisection(self, seeded_references):
        # carried vectors out of order, one repeated in place of the next,
        # or carried from another problem on the same grid: the values
        # stand only where the certificate holds
        prob, k = SEEDED_CASES["polar-k50"]
        other = higgs_oscillator_problem(1, PhysParams(lam=0.3, omega=2.0), 4000)
        fine = prob.refined()
        (fd, fe, fm), ref = assemble(fine), seeded_references["polar-k50"][1]
        plain = _bisection(fd, fe, k, eigvals_only=True)

        def carried(source):
            """The k lowest coarse vectors of source, carried to the fine grid."""
            d, e, m = assemble(source)
            _, u = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
            prolong = _prolongation(source.grid, m, fm, prob.bc)
            return [prolong(u[:, j]) for j in range(k)]

        own, foreign = carried(prob), carried(other)
        for vectors, order in ((own, np.roll(np.arange(k), 1)), (own, np.arange(k)[::-1]),
                               (own, np.r_[0, 0, 2:k]), (foreign, np.arange(k))):
            starts = [vectors[j] for j in order]
            certified = _polished(fd, fe, starts=starts)
            vals = lowest_eigenvalues(fine, k, _polish=polish_with(starts=starts))
            if certified is None:
                assert np.array_equal(vals, plain)
            else:
                assert np.max(np.abs(vals - ref) / ref) <= 1e-9
            if vectors is own:
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
        _, coarse, fine, _ = richardson_eigenvalues(prob, k)
        for vals, hand, grid in zip((coarse, fine), certified, (prob, prob.refined())):
            assert np.array_equal(vals, hand)
            ref = relative_bisection(grid, k)
            assert np.max(np.abs(vals - ref) / ref) <= 1e-9

    def test_planar_reference_pair_certifies(self):
        # verify's planar-Dirichlet reference pair, where the pair's own
        # loose tolerance exceeded the lowest gaps
        prob = higgs_radial_problem(0, UNIT, lambda r: 0.5 * np.asarray(r) ** 2,
                                    Grid1D(1e-4, 40.0, 2000), (None, None))
        d, e, _ = assemble(prob)
        plain = _bisection(d, e, 3, eigvals_only=True)
        assert np.sqrt(np.finfo(float).eps) * _gershgorin(d, e)[1] > np.min(np.diff(plain))
        assert all(vals is not None for vals in polished_pair(prob, 3))

    def test_coarse_fallback_starts_the_fine_grid_from_stein_vectors(self, monkeypatch):
        # loose guesses that skip a mode fail the coarse certificate; the
        # coarse grid falls back to the bisection, and the fine grid starts
        # from stein's vectors of that bisection, prolonged
        prob, k = SEEDED_CASES["crs-k3"]
        bisection = numerics._bisection

        def skipping(d, e, k, tol=0.0, **options):
            if not tol:
                return bisection(d, e, k, **options)
            return np.delete(bisection(d, e, k + 1, tol=tol, **options), 1)

        monkeypatch.setattr(numerics, "_bisection", skipping)
        _, coarse, fine, vectors = richardson_eigenvalues(prob, k)
        monkeypatch.undo()
        d, e, m = assemble(prob)
        assert np.array_equal(coarse, _bisection(d, e, k, eigvals_only=True))
        assert np.array_equal(vectors, _bisection(d, e, k)[1].T.astype(np.float32))
        fd, fe, fm = assemble(prob.refined())
        prolong = _prolongation(prob.grid, m, fm, prob.bc)
        assert np.array_equal(fine, _polished(fd, fe, starts=map(prolong, vectors)))

    @pytest.mark.parametrize("case", SEEDED_CASES)
    def test_pair_hands_out_the_coarse_unit_vectors(self, case):
        # (k, n) float32 rows, orthonormal to single-precision roundoff, each
        # an eigenvector of the coarse standard form T to that roundoff
        prob, k = SEEDED_CASES[case]
        _, coarse, _, vectors = richardson_eigenvalues(prob, k)
        assert vectors.dtype == np.float32 and vectors.shape == (k, prob.grid.n)
        u, eps = vectors.astype(float), np.finfo(np.float32).eps
        assert np.max(np.abs(u @ u.T - np.eye(k))) <= eps
        d, e, _ = assemble(prob)
        norm = _gershgorin(d, e)[1]
        for x, rho in zip(u, coarse):
            assert np.linalg.norm(_times(d, e, x) - rho * x) <= eps * norm

    def test_repeats_bit_for_bit(self):
        prob, k = SEEDED_CASES["polar-k50"]
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
        _, coarse, fine, _ = richardson_eigenvalues(prob, k)
        for vals, hand, grid in zip((coarse, fine), certified, (prob, prob.refined())):
            assert np.array_equal(vals, hand)
            ref = relative_bisection(grid, k)
            assert np.max(np.abs(vals - ref) / ref) <= 1e-9


def stein_vectors(prob, k):
    """The k lowest eigenvectors (rows, on the grid, unit norm in the
    assembled weights) by the bisection and inverse iteration (stebz/stein)."""
    d, e, m = assemble(prob)
    _, u = _bisection(d, e, k)
    return u.T / np.sqrt(m * prob.grid.h)


class TestSingleGridPolish:
    # single-grid solves polish guesses bisected on a coarser guess grid
    # and fall back to the bisection where they cannot be certified
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("l,mprime_q", [
        (3.0, 0), (3.0, 1), (3.0, 2), (4.0, 0), (4.0, 1), (4.0, 2),
        (None, 0), (None, 1), (None, 2)])
    def test_qes_channels_certified_near_relative_bisection(self, l, mprime_q, lam):
        # the default bisection leaves up to 6.6e-9 relative on these channels
        params = PhysParams(lam=lam)
        prob = qes_channel_problem(mprime_q, QesSpec.transplanted(mprime_q, params, l), params,
                                   8001)
        d, e, _ = assemble(prob)
        certified = _coarse_polished(prob, 3, d, e)
        assert certified is not None
        vals = lowest_eigenvalues(prob, 3)
        assert np.array_equal(vals, certified)
        ref = relative_bisection(prob, 3)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-7

    @pytest.mark.parametrize("case", ["guesses-miss-a-mode", "grid-too-small"])
    def test_fallback_is_the_bisection_bit_for_bit(self, case, monkeypatch):
        if case == "guesses-miss-a-mode":
            # the guess grid's bisection drops the lowest mode: the values
            # polished from its guesses are the k modes above it, which the
            # Sturm count refuses
            prob, k = flat_oscillator(), 3
            bisection = numerics._bisection

            def dropped(d, e, k, **options):
                if d.size == prob.grid.n:
                    return bisection(d, e, k, **options)
                return bisection(d, e, k + 1, **options)[1:]

            monkeypatch.setattr(numerics, "_bisection", dropped)
        else:
            # max(1000 // 16, 40 k) = 600 guess points, more than half of 1000
            prob, k = flat_oscillator(n=1000), 15
        d, e, _ = assemble(prob)
        assert _coarse_polished(prob, k, d, e) is None
        plain = _bisection(d, e, k, eigvals_only=True)
        assert np.array_equal(lowest_eigenvalues(prob, k), plain)
        assert np.array_equal(lowest_eigenpairs(prob, k)[0], plain)

    @pytest.mark.parametrize("prob,k", [
        (higgs_oscillator_problem(0, UNIT, 8001), 50),
        (crs_wide_problem(1, UNIT, 16000), 8),
        (qes_channel_problem(2, QES2, UNIT, 2000), 1),
        (flat_oscillator(), 4),
    ], ids=["polar-k50", "crs-wide", "qes2-neighbour", "flat-k4"])
    def test_polished_pairs_match_stein(self, prob, k):
        # the deep polar solve and the pairs that verify reads
        d, e, m = assemble(prob)
        assert _coarse_polished(prob, k, d, e) is not None
        vals, vectors = lowest_eigenpairs(prob, k)
        ref = stein_vectors(prob, k)
        overlap = np.abs(np.sum(m * ref * vectors.T, axis=1)) * prob.grid.h
        assert np.all(overlap >= 1 - 1e-10)
        assert np.all(backward_errors(prob, vals, vectors) < 1e-13)

    def test_one_guess_rule_on_the_benchmark_channels(self, monkeypatch):
        # the 54 QES channel spectra of the benchmark's qes-channels
        # workload, n = 2000 and k = 3: every solve bisects its guess grid
        # once, to the loose tolerance, so no guess set crowds and none
        # falls back to the bisection of its own grid.  The single-grid
        # values, the eigenpairs and the coarse grid of a pair share the
        # rule, and so their values, bit for bit
        configs = [(l, mprime_q, lam) for l in (3.0, 4.0, None) for mprime_q in (0, 1, 2)
                   for lam in (0.5, 0.65, 0.7, 0.8, 0.9, 1.0)]
        bisect, build, solve = numerics._bisection, numerics.assemble, numerics.lowest_eigenvalues
        bisections, systems, coarse = [], {}, []

        def recorded(d, e, k, tol=0.0, **options):
            bisections.append((d.size, tol))
            return bisect(d, e, k, tol=tol, **options)

        def built_once(problem):
            # the three solves share each system, which is only faster
            if problem not in systems:
                systems[problem] = build(problem)
            return systems[problem]

        class FineGrid(Exception):
            """The pair reaches its fine grid, which this test does not solve."""

        def coarse_only(problem, k, _polish):
            if problem.grid.n != 2000:
                raise FineGrid
            coarse.append(solve(problem, k, _polish=_polish))
            return coarse[-1]

        monkeypatch.setattr(numerics, "_bisection", recorded)
        monkeypatch.setattr(numerics, "assemble", built_once)
        monkeypatch.setattr(numerics, "lowest_eigenvalues", coarse_only)
        for l, mprime_q, lam in configs:
            params = PhysParams(lam=lam)
            prob = qes_channel_problem(mprime_q, QesSpec.transplanted(mprime_q, params, l),
                                       params, 2000)
            bisections.clear()
            vals = lowest_eigenvalues(prob, 3)
            pair_vals = lowest_eigenpairs(prob, 3)[0]
            with pytest.raises(FineGrid):
                richardson_eigenvalues(prob, 3)
            assert [size for size, _ in bisections] == [125] * 3
            assert all(tol > 0 for _, tol in bisections)
            assert np.array_equal(pair_vals, vals) and np.array_equal(coarse[-1], vals)
        assert len(coarse) == len(configs) == 54


def polar_from_the_triple(mprime, params, V, prob):
    """prob, a radial channel in the polar frame, rebuilt from the full
    coefficient triple with q and w as separate functions."""
    sq = math.sqrt(params.lam)
    coeffs = lambda r: higgs.higgs_radial_coefficients(mprime, params, r)
    r_of = lambda c: np.tan(c) / sq
    drdc = lambda c: 1.0 / (sq * np.cos(c) ** 2)
    return separate(lambda c: -r_of(c) * coeffs(r_of(c))[0] / drdc(c),
                    lambda c: r_of(c) * (V(r_of(c)) + coeffs(r_of(c))[2]) * drdc(c),
                    lambda c: r_of(c) * drdc(c), prob.grid, prob.bc)


def line_from_the_triple(mprime_q, params, prob):
    """prob, a line problem in the radial gauge, rebuilt from the full
    coefficient triple with q and w as separate functions."""
    coeffs = lambda x: crs.crs_operator_coefficients(params, x)
    V = lambda x: crs.crs_potential_special(mprime_q, params, x)
    w = lambda x: x / np.sqrt(1 + params.lam * x ** 2)
    p0 = lambda x: coeffs(x)[2] + coeffs(x)[1] / (2 * x) - coeffs(x)[0] / (4 * x * x)
    return separate(lambda x: -w(x) * coeffs(x)[0], lambda x: w(x) * (V(x) + p0(x)), w,
                    prob.grid, prob.bc)


HALF = PhysParams(lam=0.5)


@pytest.mark.parametrize("prob,reference", [
    pytest.param(higgs_oscillator_problem(1, HALF, 500),
                 lambda p: polar_from_the_triple(
                     1, HALF, lambda r: higgs.oscillator_potential(HALF, r), p),
                 id="higgs-polar"),
    pytest.param(crs_natural_problem(0, UNIT, 500),
                 lambda p: line_from_the_triple(0, UNIT, p), id="crs-natural"),
    pytest.param(crs_wide_problem(1, UNIT, 500),
                 lambda p: line_from_the_triple(1, UNIT, p), id="crs-wide"),
    *(pytest.param(qes_channel_problem(mprime, QES2, UNIT, 500),
                   lambda p, mprime=mprime: polar_from_the_triple(
                       mprime, UNIT, lambda r: higgs.qes_potential(QES2, UNIT, r), p),
                   id=f"qes2-channel{mprime}")
      for mprime in (0, 1, 2)),
])
def test_joint_qw_matches_the_full_triple(prob, reference):
    # p from the leading coefficient alone and q, w from one evaluation of
    # the zeroth: the assembled system of the full triple, bit for bit
    for got, want in zip(assemble(prob), assemble(reference(prob))):
        assert np.array_equal(got, want)


def peak_above_entry(fn, install, run):
    """The traced peak inside each call of fn above the live bytes on
    entering it, over one warm call of run under tracemalloc: install puts
    the measuring wrapper of fn where run reads it and returns run's one
    argument."""
    above = []

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        above.append(tracemalloc.get_traced_memory()[1] - live)
        return out

    target = install(measured)
    run(target)                         # lazy set-up outside the count
    above.clear()
    tracemalloc.start()
    try:
        run(target)
    finally:
        tracemalloc.stop()
    return above


class TestModelBlocks:
    # a problem's qw runs its model in equal blocks of at most
    # problems._BLOCK points, so only the 8001-point systems split, in two
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: higgs_oscillator_problem(1, UNIT, 8001), id="higgs-8001"),
        pytest.param(lambda: crs_natural_problem(1, UNIT, 8001), id="crs-natural-8001"),
        pytest.param(lambda: crs_wide_problem(1, UNIT, 4000).refined(), id="crs-wide-fine"),
        pytest.param(lambda: qes_channel_problem(1, QES2, UNIT, 2000), id="qes2-channel")])
    @pytest.mark.parametrize("block", [None, 777])
    def test_blocks_change_no_bits(self, build, block, monkeypatch):
        # every model operation is pointwise, so the blocks (the default,
        # or 777 points, which splits every system) assemble the system of
        # one evaluation bit for bit
        prob = build()
        if block is not None:
            monkeypatch.setattr(problems, "_BLOCK", block)
        got = assemble(prob)
        monkeypatch.setattr(problems, "_BLOCK", 10 ** 9)
        for a, b in zip(got, assemble(prob)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,calls", [(8001, 2), (4000, 1)])
    def test_only_the_8001_point_systems_split(self, n, calls, monkeypatch):
        sizes = []

        def V(params, r):
            sizes.append(np.size(r))
            return higgs.oscillator_potential(params, r)

        monkeypatch.setattr(problems, "oscillator_potential", V)
        assemble(higgs_oscillator_problem(1, UNIT, n))
        assert len(sizes) == calls and max(sizes) <= problems._BLOCK
        assert max(sizes) - min(sizes) <= 1             # equal blocks

    @pytest.mark.parametrize("t", [0.7, np.float64(0.7), np.array(0.7)], ids=[
        "float", "float64", "0-d"])
    def test_scalar_passes_through(self, t):
        prob = higgs_oscillator_problem(1, UNIT, 8001)
        q, w = prob.qw(t)
        assert np.shape(q) == np.shape(w) == ()
        q1, w1 = prob.qw(np.array([0.7]))
        assert q == q1[0] and w == w1[0]

    def test_shape_survives_the_blocks(self):
        # a 2-D input larger than a block comes back in its own shape,
        # each point as it evaluates alone
        prob = crs_natural_problem(1, UNIT, 8001)
        t = np.linspace(0.01, 2.0, 3 * 9001).reshape(3, 9001)
        q, w = prob.qw(t)
        assert q.shape == w.shape == t.shape
        for row, qr, wr in zip(t, q, w):
            assert all(np.array_equal(a, b) for a, b in zip((qr, wr), prob.qw(row)))

    @pytest.mark.parametrize("prob,bound", [
        pytest.param(higgs_oscillator_problem(1, UNIT, 8001), 12.5, id="higgs-power"),
        pytest.param(crs_natural_problem(1, UNIT, 8001), 14.0, id="crs-power")])
    def test_model_evaluation_peak(self, prob, bound):
        # qw's peak above the live set on entering it, in float64 words a
        # grid point: 11.2 (higgs) and 12.3 (crs) in blocks, 13.5 and 15.7
        # where the model ran on all 17,921 flat points at once
        above = peak_above_entry(prob.qw, lambda qw: replace(prob, qw=qw), assemble)
        assert len(above) == 1 and above[0] <= bound * 8 * prob.grid.n

    def test_fine_polish_peak(self, monkeypatch):
        # the fine grid's polish of a 50-level pair, above the live set on
        # entering it: 10.5 float64 words a point, 14.6 while each gtsv
        # call's scratch outputs and the Gershgorin row sums lived on
        prob = higgs_oscillator_problem(1, UNIT, 4000)
        above = peak_above_entry(
            numerics._polished,
            lambda fn: monkeypatch.setattr(numerics, "_polished", fn),
            lambda _: richardson_eigenvalues(prob, 50))
        assert len(above) == 2 and above[1] <= 12.5 * 8 * prob.refined().grid.n


class TestSpectrumProtocols:
    @pytest.mark.parametrize("prob", [
        *(pytest.param(higgs_oscillator_problem(1, PhysParams(lam=lam), 100),
                       id=f"higgs-lam={lam}") for lam in (0.001, 1.0)),
        *(pytest.param(crs_natural_problem(1, PhysParams(lam=lam), 100),
                       id=f"crs-lam={lam}") for lam in (0.1, 1.0, 1e9)),
        pytest.param(crs_wide_problem(1, UNIT, 16000), id="crs-wide"),
        *(pytest.param(qes_channel_problem(mp, QesSpec.transplanted(1, UNIT, l), UNIT, 100),
                       id=f"qes-l={l}-mprime={mp}")
          for l in (3.0, 24.0, None) for mp in (0, 1, 2)),
    ])
    def test_every_profile_sits_at_its_grid_end(self, prob):
        # a profile-closed end is the profile's singular point, exactly; the
        # falling channels m' = 0 keep their wall at 1e-3
        for rule, end in zip(prob.bc, (prob.grid.a, prob.grid.b)):
            assert rule is None or rule.center == end

    def test_higgs_channel_matches_closed_form(self):
        exact = np.array([crs.oscillator_energy((N, 0), UNIT) for N in range(3)])
        num = richardson_eigenvalues(higgs_oscillator_problem(0, UNIT, 2000), 3)[0]
        assert np.max(np.abs(num - exact) / exact) < 1e-7

    def test_crs_channel_matches_closed_form(self):
        exact = np.array([crs.oscillator_energy((N, 1), UNIT) for N in range(3)])
        num = richardson_eigenvalues(crs_natural_problem(1, UNIT, 2000), 3)[0]
        assert np.max(np.abs(num - exact) / exact) < 1e-6

    @pytest.mark.parametrize("nu", [0.3, 2.0, 15.0])
    @pytest.mark.parametrize("model,l", [("higgs", None), ("crs", None), ("qes1", 3.0),
                                         ("qes2", None)], ids=["higgs", "crs", "qes1", "qes2"])
    def test_scaled_spectrum_depends_on_nu_alone(self, model, l, nu, monkeypatch):
        # E/(lam hbar^2/2m) of verify.spectrum at 20 seeded (lam, omega, hbar,
        # m) of one nu = 2 m omega/(hbar lam); lam, hbar and m are powers of
        # two, so nu is exact.  Solved in physical units, these draws spread
        # 7.9e-14-1.8e-12 (higgs, crs) and 1.6e-14-2.2e-13 (qes1, qes2)
        monkeypatch.setitem(verify.SPECTRUM_N, model, 500)
        rng = random.Random(f"nu:{nu}")
        scaled = []
        for _ in range(20):
            lam, hbar, mass = (2.0 ** rng.randint(-6, 6) for _ in range(3))
            params = PhysParams(mass, hbar, nu * hbar * lam / (2 * mass), lam)
            levels = [row[3] for row in verify.spectrum(model, params, 3, (1,), l)]
            scaled.append(np.array(levels) / (lam * hbar * hbar / (2 * mass)))
        assert np.max(np.abs(np.array(scaled) / scaled[0] - 1)) <= 1e-14

    @pytest.mark.parametrize("model,lam", [
        ("higgs", 0.01), ("higgs", 0.001), ("crs", 0.01), ("crs", 0.001)])
    def test_small_curvature(self, model, lam):
        # wall exponents near 100 and 1000: d**sigma alone under/overflows
        rows = verify.spectrum(model, PhysParams(lam=lam), 3, (0, 1, 2))
        assert [row[:2] for row in rows] == [[N, mp] for mp in (0, 1, 2) for N in range(3)]
        assert max(row[4] for row in rows) < 1e-5

    @pytest.mark.parametrize("model", ["higgs", "crs"])
    def test_channel_past_the_floats_blames_mprime_max(self, model):
        # channel 1750's origin corner, whose exponent is |m'|, leaves the fine
        # grid's row 0 non-finite (higgs from m' = 1714, crs from 1715); channel
        # 0 solved at the same nu, so m' is at fault, not nu's inputs
        with pytest.raises(UnresolvedError, match="in channel m' = 1750$") as caught:
            verify.spectrum(model, UNIT, 1, (0, 1750))
        assert caught.value.inputs == ("mprime_max",)

    def test_crs_eigenvector_matches_wavefunction(self):
        # |phi| (sin^2 convention) against the discretized eigenvector u of
        # the radial gauge, phi = x^(1/2) u, up to one global scale, on the
        # interior 80% of the grid
        mq = 1
        prob = crs_natural_problem(mq, UNIT, 3000)
        _, vectors = lowest_eigenpairs(prob, 2)
        x = prob.grid.points()
        for N in (0, 1):
            v = np.sqrt(x) * vectors[:, N]
            ref = np.array([abs(crs.crs_wavefunction_special((N, mq), UNIT, float(t)))
                            for t in x])
            i0, i1 = int(0.1 * x.size), int(0.9 * x.size)
            vs, rs = v[i0:i1], ref[i0:i1]
            scale = np.dot(np.abs(vs), rs) / np.dot(vs, vs)
            mask = rs > 1e-2 * rs.max()
            dev = np.max(np.abs(np.abs(vs[mask]) * scale - rs[mask]) / rs[mask])
            assert dev < 1e-4

    @pytest.mark.parametrize("mprime_q", [0, 1, 2])
    def test_wide_classification_matches_the_eigenpairs(self, mprime_q):
        # the pair's coarse unit vectors put the same states in the first
        # well as the back-transformed vectors of a single-grid solve of the
        # same problem, by their mass in the assembled weights (1 in total)
        prob = crs_wide_problem(mprime_q, UNIT, 4000)
        first_well, interlopers = verify._wide_levels(mprime_q, 8)
        _, vectors = lowest_eigenpairs(prob, 8)
        mass = assemble(prob)[2][:, None] * vectors ** 2 * prob.grid.h
        in_well = np.sum(mass[prob.grid.points() < crs.x_pole(UNIT)], axis=0) > 0.9
        extrap = richardson_eigenvalues(prob, 8)[0]
        assert first_well == extrap[in_well].tolist()
        assert interlopers == extrap[~in_well].tolist()


class TestNodeCount:
    @pytest.mark.parametrize("values,nodes", [
        ([1.0, -1.0, 1.0], 2),
        ([1.0, -1e-9, 1e-9, 0.5], 0),       # sign changes below 1e-8 of the largest
        ([1.0, 0.0, -1.0], 1),
        ([1e200, -1e200, 1e200], 2),        # whose products would overflow
        ([-0.5, -1.0, -0.5], 0)])
    def test_counts_sign_changes_among_significant_entries(self, values, nodes):
        assert node_count(np.array(values)) == nodes


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
        E = crs.oscillator_energy((0, mp), UNIT)
        grid = Grid1D(0.05, 20.0, 500)
        args = (
            lambda r: higgs.higgs_radial_coefficients(mp, UNIT, r),
            lambda r: 0.5 * r * r,
            lambda r: higgs.higgs_wavefunction((0, mp), UNIT, r),
        )
        assert residual_norm(*args, E, grid) < 1e-6
        assert residual_norm(*args, E * (1 + 1e-3), grid) > 1e-4


class TestRayleighQuotient:
    def _higgs_problem(self, mp=0, n=1200):
        from curvosc.problems import higgs_radial_problem
        V = lambda r: 0.5 * np.asarray(r, float) ** 2
        return higgs_radial_problem(mp, UNIT, V, Grid1D(0.1, 12.0, n),
                                    (None, None))

    def test_exact_ground_state(self):
        prob = self._higgs_problem()
        E, c = rayleigh_quotient(prob, lambda r: higgs.higgs_wavefunction((0, 0), UNIT, r))
        assert c < 1e-6
        assert E == pytest.approx(crs.oscillator_energy((0, 0), UNIT), rel=1e-6)

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

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600])
    def test_state_scaled_by_a_power_of_two_reads_the_same_bits(self, scale):
        # the weight w psi^2 overflowed (2^600) or underflowed (2^-600), and
        # the weighted mean read nan
        prob = self._higgs_problem()
        psi = lambda r: higgs.higgs_wavefunction((0, 0), UNIT, r)
        assert rayleigh_quotient(prob, lambda r: scale * psi(r)) == rayleigh_quotient(prob, psi)

    @pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
    def test_zero_or_nonfinite_state_is_refused(self, value):
        # an under- or overflowed state divided by zero or gave nan
        prob = self._higgs_problem()
        psi = lambda r: np.where(r > 6.0, value, higgs.higgs_wavefunction((0, 0), UNIT, r))
        with pytest.raises(StateRangeError):
            rayleigh_quotient(prob, psi)


def five_evaluation_rayleigh(problem, psi):
    """The Rayleigh quotient's weighted mean with psi and p evaluated on
    five shifted copies of the included points: the reference the grid
    slices must reproduce."""
    grid = problem.grid
    x = grid.points()[10: grid.n - 10]
    f, d1, d2 = derivatives(psi, x, grid.h)
    pv, dp, _ = derivatives(problem.p, x, grid.h)
    q, w = problem.qw(x)
    e = (-pv * d2 - dp * d1 + q * f) / (w * f)
    weight = w * f * f
    return float(np.sum(weight * e) / np.sum(weight))


class TestRayleighGridStencils:
    def test_each_coefficient_and_psi_is_evaluated_once(self):
        prob = higgs_radial_problem(0, UNIT, lambda r: higgs.oscillator_potential(UNIT, r),
                                    Grid1D(0.1, 12.0, 1200), (None, None))
        calls = {"psi": 0, "p": 0, "qw": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        counting = replace(prob, p=counted("p", prob.p), qw=counted("qw", prob.qw))
        rayleigh_quotient(counting, counted(
            "psi", lambda r: higgs.higgs_wavefunction((0, 0), UNIT, r)))
        assert calls == {"psi": 1, "p": 1, "qw": 1}

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("mq,l", [(1.0, 3.0), (2.0, 4.0), (1.0, None)],
                             ids=["qes1-l3-mq1", "qes1-l4-mq2", "qes2-mq1"])
    def test_cli_problems_match_five_evaluations(self, mq, l, lam):
        params = PhysParams(lam=lam)
        spec = QesSpec.transplanted(mq, params, l)
        psi = lambda r: higgs.qes_groundstate(spec, params, r)
        prob = qes_rayleigh_problem(spec, params)
        E, constancy = rayleigh_quotient(prob, psi)
        assert E == pytest.approx(five_evaluation_rayleigh(prob, psi), rel=1e-10)
        assert constancy < 1e-6


class TestConvergenceOrder:
    def test_second_order(self):
        errs = []
        for n in (400, 801, 1603):
            errs.append(abs(lowest_eigenvalues(flat_oscillator(n=n), 1)[0] - 1.0))
        for e0, e1 in zip(errs, errs[1:]):
            order = math.log2(e0 / e1)
            assert 1.8 <= order <= 2.2
