"""Self-adjoint finite-difference machinery for 1D Sturm-Liouville
eigenproblems

    -(p psi')' + q psi = E w psi      on (a, b),

discretized on a uniform interior grid in conservative (finite-volume)
form:

    K_ii = (p_{i-1/2} + p_{i+1/2}) / h^2 + q_i,   K_{i,i+1} = -p_{i+1/2}/h^2,
    M = diag(w_i),          K v = E M v.

This module imports no model module and evaluates no closed form of its
own; it is the independent check applied to them.  The one closed form it
reads is an end profile a problem hands over to close a limit-circle end;
the eigenvalues still come from p, q and w.  The docstrings state rules
and their reasons; the readings behind them are kept in CHANGES.md and
the BENCH_*.json entries, named where a rule rests on one.

Endpoint handling
-----------------
Plain Dirichlet walls, None in a problem's bc, are exact for limit-point
endpoints.  Radial and inverse-square-type problems have singular
endpoints where the regular solution behaves like |x - x0|^sigma; a
Dirichlet wall at small distance then converges only like a power of the
cutoff (or logarithmically, for sigma = 0 or the critical sigma = 1/2),
far too slowly for the tolerances used here.  An EndpointRule instead
works with a local profile phi, the power |x-x0|^sigma or a closed form
handed over as one callable t -> (log phi, phi'/phi).  It corrects the
max(40, n // 5) cells nearest the corner, at most n, each in q_i, w_i and
in its face toward the corner, the boundary face included:

  * the boundary face takes its own derivative factor, the profile flux
    phi'(face)/phi(x) fitted through the interior point x beside it,
  * the other corrected faces take phi'(face)/(phi(x_i) - phi(x_{i-1}))
    in place of 1/h, exact on the profile,
  * q_i, w_i become profile-weighted cell averages int q phi / (phi(x_i)
    h), so the divergent 1/x^2 parts of q are integrated exactly against
    the profile instead of point-sampled.

phi itself is never formed: for sigma in the hundreds (small curvature)
d^sigma overflows far from the corner and underflows next to it.  Every
profile quantity is built from the ratio phi(t)/phi(t0), (d/d0)^sigma or
exp(log phi(t) - log phi(t0)), and the log-derivative phi'/phi, each taken
against a nearby point, which stay finite wherever the corrections matter;
the profile is evaluated once per corner point, face and node.
The cell averages are Gauss-Legendre sums whose order is graded with the
distance from the corner.  Away from the singular point x0 the integrand
q phi is analytic, and on a cell of half-width hc whose centre lies at
distance dc from x0 the m-point rule converges like rho^(-2m), rho =
1/tau + sqrt(1/tau^2 - 1) with tau = hc/dc (Trefethen, Approximation
Theory and Approximation Practice, ch. 19).  A steep profile adds the
variation of phi across the cell, which is exp(kappa u)-like on the cell's
[-1, 1] with kappa = |sigma| tau; for that the remainder of the m-point
rule is c_m kappa^(2m) e^kappa, c_m = 2^(2m+1) (m!)^4 / ((2m+1) ((2m)!)^3)
(Abramowitz & Stegun 25.4.30).  Each cell takes the lowest order of the
ladder _ORDERS = (4, 6, 8, 12, 16, 24) whose two bounds are both below
_QUAD_EPS = 1e-19, a margin of a thousand below the rounding unit that
also puts the cell touching a corner (tau = 1/2) at the ceiling.  24 is
the ceiling; tau uses the real distance to x0, so a grid cut short of its
singular point grades too.  The graded sums agree with all-24-point ones
to the latter's roundoff, on a fraction of the nodes (CHANGES.md,
"Graded-order corner quadrature").  The rule tables are built at import
by Halley steps on the Legendre recurrence (_gauss_legendre), with
neither numpy.polynomial nor a dense numpy.linalg eigensolve, and are at
least as accurate as numpy's leggauss (CHANGES.md, "Import only what
runs").  A problem hands out q and w from one evaluation, qw(t) -> (q,
w), called once per system on the points outside the corner cells and
all corner nodes in one flat array.  Only what is read after that call
lives through it: the flat array, each corner's rows, node cells and
weights (the rest of a corner dies in _corner) and p times the face
factors.  How qw spends memory is the problem's: the builders of
curvosc.problems run their models in blocks of at most 10,000 points
inside that one call, so an 8001-point system's model temporaries span
half its flat array.

All three changes keep K symmetric (the face factors multiply the same
difference in both adjacent rows; a boundary face has one row only).  The
corner is written once, in its own outward frame, so a problem and its
mirror image t -> a + b - t assemble mirrored systems.

Eigensolvers
------------
All solve the standard form T u = E u, T = M^(-1/2) K M^(-1/2), which
assemble returns as (d, e) beside the diagonal m of M.  None bisects to
full accuracy where it can polish instead, as polished values lie nearer
an extended-precision Sturm count than a bisection to the default or to
relative accuracy (CHANGES.md, "Both Richardson grids are polished"):
each eigenvalue starts from a guess, and inverse and Rayleigh-quotient
steps (LAPACK gtsv solves) take its vector to a residual at the roundoff
level.  The residual bound puts one eigenvalue in each interval rho +-
residual; the values stand only if the intervals are disjoint and one
Sturm count (stebz) shows they hold the k lowest (Parlett, The Symmetric
Eigenvalue Problem, ch. 4).  The count's left end, the lowest Gershgorin
bound, is taken before the steps, and each step keeps only the solution
of its gtsv call, so neither the row sums nor gtsv's scratch outputs live
through the polish.  Otherwise the Sturm-sequence bisection to
the default tolerance eps ||T|| (LAPACK stebz) runs, which is also the
reference the tests compare against.  gtsv, stebz and stein come from
curvosc._lapack, which takes them from scipy's compiled module without
importing scipy or scipy.linalg.  A polish from a guess alone starts from
a fixed hash of the row index (_start), so no random-number generator is
loaded.

The guesses come from the same problem on a guess grid of max(n //
_COARSEN, _GUESS_POINTS k) points, _COARSEN = 16; of 10, 20 and 40,
_GUESS_POINTS = 40 lets the fewest k = 50 coarse grids fall back, at no
more time per pair (CHANGES.md, "Richardson pairs are cheaper").  A guess
grid of more than n/2 points would cost about as much as the bisection
it replaces, so the solve falls back at once.  Every solve takes its
guesses by one rule: the guess grid is bisected to the loose tolerance
tol = sqrt(eps) ||T_g||, T_g the guess grid's standard form, and once any
two guesses lie within 4 tol of each other, the whole guess set is
bisected again to the default tolerance, since the polish fails from
guesses that close (same entry).  ||T_g|| grows like 1/h_g^2, so tol is
4-256 times smaller than that of a pair's own coarse grid, which could not
separate the lowest gaps of the planar Dirichlet reference or of the
channels at large nu = 2m omega/(hbar lam).  How often the re-bisection
runs is a reading, kept in CHANGES.md ("numerics states each rule once"
and its satellites).  On the single grids the rule certifies all that a
default-tolerance bisection of the guess grid certified, and moves their
values by a small part of the certificate radii
(BENCH_2026-10-20-one-guess-rule.json, "guess_rule_sweep").

lowest_eigenvalues is the single-grid solve, the bisection on its grid
the fallback; lowest_eigenpairs is the same solve keeping its unit vectors
for the callers that read eigenvectors.  Both apply the same guards (k
budget, finite system, spectral edge, roundoff floor, strictly ascending
values) and return bitwise-equal eigenvalues.

richardson_eigenvalues solves both of its grids through lowest_eigenvalues.
The coarse grid is solved as lowest_eigenpairs solves it, to the same
values, and keeps its unit vectors, which the pair hands out; the fine
grid starts each eigenvalue from its coarse vector carried to the h/2 grid
(_prolongation, built once per pair).  A coarse fallback takes stein's
vectors from its bisection, whose values equal the values-only bisection
bit for bit, so the fine grid starts from vectors there as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._lapack import dgtsv, dstebz, eigh_tridiagonal
from .errors import (
    CurvoscError,
    NodeDetectedError,
    NonpositiveWeightError,
    StateRangeError,
    UnresolvedError,
)

_ORDERS = (4, 6, 8, 12, 16, 24)  # Gauss-Legendre ladder of the corner cells
_QUAD_EPS = 1e-19                 # error bound each rung below the ceiling must meet
_START_SEED = 2013  # start vector of the seeded eigenvalue polish
_INVERSE_STEPS = 2  # fewest fixed-shift steps per guess before the Rayleigh steps
_RQI_STEPS = 6      # most Rayleigh-quotient steps per eigenvalue
_COARSEN = 16       # grid ratio of the guess grid
_GUESS_POINTS = 40  # least points of the guess grid per wanted eigenvalue
_ROUNDOFF = 1e3     # an |E_0| of at most this many eps times the spectral edge is roundoff
_SIGNIFICANT = 1e-8  # an entry above this share of its vector's largest has a sign


def _ladder() -> tuple[np.ndarray, np.ndarray]:
    """Largest tau and kappa each rung below the ceiling takes (see the
    module docstring): rho(tau)^(-2m) = eps gives tau = 1/cosh(ln(1/eps)
    / 2m), and c_m kappa^(2m) e^kappa = eps is solved for kappa by a short
    fixed-point iteration."""
    log_eps = math.log(_QUAD_EPS)
    tau, kappa = [], []
    for m in _ORDERS[:-1]:
        tau.append(1 / math.cosh(-log_eps / (2 * m)))
        log_c = (2 * m + 1) * math.log(2) + 4 * math.lgamma(m + 1) \
            - math.log(2 * m + 1) - 3 * math.lgamma(2 * m + 1)
        k = 0.0
        for _ in range(4):
            k = math.exp((log_eps - log_c - k) / (2 * m))
        kappa.append(k)
    return np.array(tau), np.array(kappa)


def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rules of _ORDERS, rule after
    rule, each rule's nodes ascending.  All roots of all rules at once go
    through two steps of Halley's method, Newton's method with the second
    derivative that Legendre's equation gives, from Tricomi's estimate
    (Abramowitz & Stegun 22.16.6); P_m and P_m' come from the three-term
    recurrence, each node running it to the degree m of its own rule.  The
    weights 2 / ((1 - x^2) P_m'^2) take P_m' carried to the final node, and
    each rule is made exactly symmetric."""
    m = np.repeat(_ORDERS, _ORDERS)                 # degree of each node's rule
    first = np.repeat(_FIRST, _ORDERS)
    i = np.arange(m.size) - first                   # index within its rule
    x = -(1 - (m - 1) / (8.0 * m ** 3)) * np.cos(np.pi * (i + 0.75) / (m + 0.5))
    live = np.searchsorted(m, np.arange(_ORDERS[-1]), side="right")  # first node with m > j
    for _ in range(2):
        p0, p = np.ones(m.size), x.copy()
        for j in range(1, _ORDERS[-1]):              # (p0, p) = (P_(j-1), P_j) -> (P_j, P_(j+1))
            s = live[j]
            p0[s:], p[s:] = p[s:], ((2 * j + 1) * x[s:] * p[s:] - j * p0[s:]) / (j + 1)
        dp = m * (x * p - p0) / (x * x - 1)
        d2p = (2 * x * dp - m * (m + 1) * p) / (1 - x * x)
        step = p / dp
        step /= 1 - step * d2p / (2 * dp)
        x -= step
        dp -= step * d2p
    w = 2 / ((1 - x * x) * dp * dp)
    mirror = first + m - 1 - i
    return (x - x[mirror]) / 2, (w + w[mirror]) / 2


_FIRST = np.cumsum((0,) + _ORDERS[:-1])  # first row of each rule in the tables below
_NODES, _WEIGHTS = _gauss_legendre()
_TAU_MAX, _KAPPA_MAX = _ladder()


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: n interior points on (a, b), spacing h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got [{self.a}, {self.b}]")
        if self.n < 3:
            raise ValueError(f"need n >= 3 interior points, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def points(self) -> np.ndarray:
        """Interior points a + i h, i = 1..n."""
        return self.a + self.h * np.arange(1, self.n + 1)

    def faces(self) -> np.ndarray:
        """Cell faces a + (i + 1/2) h, i = 0..n."""
        return self.a + self.h * (np.arange(0, self.n + 1) + 0.5)

    def refined(self) -> "Grid1D":
        """Same interval with h halved (n -> 2n + 1)."""
        return Grid1D(self.a, self.b, 2 * self.n + 1)


@dataclass(frozen=True)
class EndpointRule:
    """Local profile of one endpoint; see the module docstring.  A Dirichlet
    wall is no rule: None in a problem's bc."""

    exponent: float               # sigma, the profile's power at its singular point
    center: float                 # singular point of the profile
    profile: Callable | None = None   # t -> (log phi, phi'/phi); None: |t - center|^sigma

    def sample(self, t):
        """(v, phi'/phi) at the points t, v = |t - center| for the power and
        log phi for a profile: phi(t)/phi(t0) is sample_ratio(v, v0)."""
        t = np.asarray(t, float)
        if self.profile is not None:
            return self.profile(t)
        e = t - self.center
        return np.abs(e), self.exponent / e

    def sample_ratio(self, v, v0):
        """phi(t)/phi(t0) from the samples v of t and v0 of t0."""
        return (v / v0) ** self.exponent if self.profile is None else np.exp(v - v0)


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-(p psi')' + q psi = E w psi on grid, with endpoint rules bc; qw(t)
    returns the pair (q(t), w(t)), both from one evaluation at the points t."""

    p: Callable[[np.ndarray], np.ndarray]
    qw: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    grid: Grid1D
    bc: tuple[EndpointRule | None, EndpointRule | None] = (None, None)   # None: Dirichlet

    def refined(self) -> "SturmLiouvilleProblem":
        return replace(self, grid=self.grid.refined())


def assemble(problem: SturmLiouvilleProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, m) of the discretized K v = E M v, one row per grid point:
    the diagonal d and off-diagonal e of its standard form
    T = M^(-1/2) K M^(-1/2), and the positive diagonal m of M."""
    grid = problem.grid
    n, h = grid.n, grid.h
    x, xf = grid.points(), grid.faces()
    pf = np.asarray(problem.p(xf), float)
    if np.any(pf <= 0):
        raise NonpositiveWeightError("leading coefficient p must be positive at faces")

    g = np.full(n + 1, 1.0 / h)       # face derivative factors
    sampled = np.ones(n, bool)        # points whose q, w are not cell averages
    nodes, corners = [], []
    for side, rule in enumerate(problem.bc):
        if rule is not None:
            i, t, cell, f = _corner(rule, side, x, xf, h, g)
            sampled[i] = False
            nodes.append(t)
            corners.append((i, cell, f))

    # one qw call per system, on the sampled points and all nodes; the
    # points, faces, p and the corners' own node arrays go before it
    t = np.concatenate([x[sampled], *nodes])
    g *= pf                           # p times each face's derivative factor
    del x, xf, pf, nodes
    qv, wv = (np.asarray(v, float) for v in problem.qw(t))
    if np.any(wv <= 0):
        raise NonpositiveWeightError("weight w must be positive on the interior")
    qi, wi, at = np.empty(n), np.empty(n), np.count_nonzero(sampled)
    qi[sampled], wi[sampled] = qv[:at], wv[:at]
    for i, cell, f in corners:
        qi[i] = np.bincount(cell, qv[at:at + cell.size] * f, minlength=i.size)
        wi[i] = np.bincount(cell, wv[at:at + cell.size] * f, minlength=i.size)
        at += cell.size

    d = ((g[:-1] + g[1:]) / h + qi) / wi
    e = -g[1:-1] / h / np.sqrt(wi[:-1] * wi[1:])
    return d, e, wi


def _corner(rule: EndpointRule, side: int, x: np.ndarray, xf: np.ndarray, h: float,
            g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The corner of side 0 (left) or 1 (right) of assemble's grid, points x
    and faces xf, corrected by rule (see the module docstring): writes the
    factors of its corrected faces into g and returns (i, t, cell, f), its
    corrected rows i, nearest the corner first, its quadrature nodes t and
    each node's index cell into i and weight f.  The rest dies here."""
    n = x.size
    m = min(max(40, n // 5), n)   # corrected cells
    # the corner in its own outward frame: cells i nearest it first, each
    # correcting its face toward it, s the outward sign.  Each face term
    # is divided through by phi(x_i) of its own cell, so its ratios stay
    # O(1) for any sigma, and x_i's own ratio is one
    i = np.arange(m) if side == 0 else np.arange(n - 1, n - 1 - m, -1)
    face, s = i + side, 1 - 2 * side    # face j lies between x_{j-1} and x_j
    mid, half = 0.5 * (xf[i + 1] + xf[i]), 0.5 * (xf[i + 1] - xf[i])
    # all nodes of the corner in one flat array: node k lies in cell
    # cell[k] and takes row[k] of the concatenated rule tables
    rung = _rungs(rule, mid, half)
    count = np.asarray(_ORDERS)[rung]
    cell = np.repeat(np.arange(i.size), count)
    row = np.arange(cell.size) + np.repeat(_FIRST[rung] - np.cumsum(count) + count, count)
    t = mid[cell] + half[cell] * _NODES[row]
    # the profile once per point: the corner's grid points, faces and nodes
    v, slope = rule.sample(np.concatenate([x[i], xf[face], t]))
    vx, vf, vt = np.split(v, [m, 2 * m])
    flux = s * slope[m:2 * m] * rule.sample_ratio(vf, vx)
    del slope               # not held through the cell weights below
    # dp = 1 - phi(nearer point)/phi(x_i), the ratio 0 at the wall
    dp = 1.0 - np.concatenate([[0.0], rule.sample_ratio(vx[:-1], vx[1:])])
    g[face] = np.divide(flux, dp, out=g[face], where=dp != 0)
    f = rule.sample_ratio(vt, vx[cell]) * (half / h)[cell] * _WEIGHTS[row]
    return i, t, cell, f


def _rungs(rule: EndpointRule, mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Index into _ORDERS of the Gauss-Legendre order of each corrected cell
    (centres mid, half-widths half): the lowest rung whose tau and kappa
    bounds both hold, see the module docstring."""
    tau = half / np.abs(mid - rule.center)
    return np.maximum(np.searchsorted(_TAU_MAX, tau),
                      np.searchsorted(_KAPPA_MAX, abs(rule.exponent) * tau))


def _standard_system(problem: SturmLiouvilleProblem, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Front end of both solvers: the k budget and the assembled (d, e, m),
    whose standard form (d, e) must be finite.  Overflow and invalid
    operations on the way are not reported as numpy warnings: the
    finiteness check that follows turns them into one typed error."""
    n = problem.grid.n
    if k < 1:
        raise ValueError("k must be positive")
    if k > n // 4:
        raise UnresolvedError(f"k = {k} exceeds resolved-mode budget n/4 = {n // 4}")
    with np.errstate(all="ignore"):
        d, e, m = assemble(problem)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise UnresolvedError("assembled system has non-finite entries")
    return d, e, m


def _bisection(d: np.ndarray, e: np.ndarray, k: int, **options):
    """The k lowest eigenvalues of (d, e) by _lapack.eigh_tridiagonal, LAPACK
    stebz (and stein for the vectors); a LAPACK failure, which finite but
    extreme entries can cause, becomes an UnresolvedError naming the
    system size and k."""
    try:
        return eigh_tridiagonal(d, e, select_range=(0, k - 1), **options)
    except np.linalg.LinAlgError as exc:
        raise UnresolvedError(
            f"tridiagonal eigensolve failed for the {k} lowest eigenvalues "
            f"at n = {d.size}") from exc


def _checked(vals: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """vals, after the guards of both solvers: clear of the spectral edge
    of (d, e), the lowest above its roundoff, and strictly ascending."""
    edge = float(np.max(d) + 2 * np.max(np.abs(e)))
    if abs(vals[0]) <= _ROUNDOFF * np.finfo(float).eps * edge:
        raise UnresolvedError(f"lowest eigenvalue {vals[0]:.6g} is within the roundoff of the "
                              f"spectral edge {edge:.6g}, {_ROUNDOFF:g} eps of it")
    if vals[-1] > 0.95 * edge:
        raise UnresolvedError(
            f"eigenvalue {vals[-1]:.6g} within 5% of the spectral edge {edge:.6g}")
    if np.any(np.diff(vals) <= 0):
        raise ValueError("eigenvalues not strictly ascending")
    return vals


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b by numpy's own einsum loop, whose order of the sums is fixed: a
    BLAS dot sums in an order of its build's choosing (ROADMAP item 3)."""
    return float(np.einsum("i,i->", a, b))


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """The lowest Gershgorin bound min(d - row sum) of the tridiagonal (d,
    e), row sums |e_(i-1)| + |e_i|, which lies below its spectrum, and its
    Gershgorin norm max(|d| + row sum), which bounds ||T||."""
    ae = np.abs(e)
    spread = np.zeros(d.size)
    spread[:-1] += ae
    spread[1:] += ae
    return float(np.min(d - spread)), float(np.max(np.abs(d) + spread))


def _polished(d: np.ndarray, e: np.ndarray, starts=None, shifts=None,
              vectors: np.ndarray | None = None) -> np.ndarray | None:
    """The lowest eigenvalues of the tridiagonal (d, e), one polished from
    each start, ascending; None where they cannot be certified.

    starts are start vectors, one per eigenvalue (any iterable, so callers
    can build them one at a time); shifts are guesses of the eigenvalues.
    Each step is a LAPACK gtsv solve, and its Rayleigh quotient and
    residual come from the solve itself: for a unit x and (T - s) y = x,
    the vector y/|y| has quotient rho = s + x.y/y.y and residual
    sqrt(1/y.y - (x.y/y.y)^2).  With shifts, each eigenvalue starts from
    one fixed vector and its shift stays at its guess (inverse iteration)
    for at least _INVERSE_STEPS steps, and until the whole interval rho +-
    residual lies nearer its own guess than either neighbouring one: a
    start poor in the wanted eigenvector cannot then converge to a
    neighbour.  rho alone is not enough where the guesses are off by a
    good part of the gap: a rho inside its own window can still lie
    nearer the level below.  Then Rayleigh-quotient steps run until the
    residual is at most tol / 8 = eps ||T||, tol = 8 eps ||T||: a stop at
    tol itself lets the last step land anywhere below tol, and the
    backward error with it (both: CHANGES.md, "Import only what runs").
    The estimate ignores the roundoff in y, so the final residual r is
    formed explicitly; the vector stands if r <= 8 tol, since the roundoff
    floor of a computed vector lies above tol on long grids (CHANGES.md,
    "Richardson's fine grid starts from the coarse eigenvalues").  Each
    interval rho +- (r + tol) then holds an eigenvalue; if the intervals
    are disjoint and ascending and one Sturm count below the last of them
    finds exactly as many eigenvalues, the rho are the lowest ones (see
    the module docstring).  vectors, if given, receives the unit vectors
    as rows.  The fixed start is _start's seeded hash, normalized once per
    solve, so a solve repeats bit for bit; each other start is normalized
    and takes its Rayleigh quotient as its first shift."""
    low, norm = _gershgorin(d, e)
    tol = 8 * np.finfo(float).eps * norm
    floor = low - tol                   # the Sturm count's left end
    fixed = 0
    if shifts is not None:
        x0 = _start(d.size)
        x0 /= math.sqrt(_dot(x0, x0))
        starts, fixed = (x0 for _ in shifts), _INVERSE_STEPS
    vals, radii = [], []
    for j, x in enumerate(starts):
        if fixed:
            # the shift follows the Rayleigh quotient only once rho +- the
            # residual lies inside (lo, hi)
            shift = float(shifts[j])
            lo = (shifts[j - 1] + shift) / 2 if j else -np.inf
            hi = (shift + shifts[j + 1]) / 2 if j + 1 < len(shifts) else np.inf
        else:
            x = x / math.sqrt(_dot(x, x))
            shift, lo, hi = _dot(x, _times(d, e, x)), -np.inf, np.inf
        for step in range(fixed + _RQI_STEPS):
            y, info = dgtsv(e, d - shift, e, x, overwrite_d=1)[3:]
            yy, xy = _dot(y, y), _dot(x, y)
            if info or not np.isfinite(yy):
                return None
            x = y / np.sqrt(yy)
            rho = shift + xy / yy
            est2 = 1 / yy - (xy / yy) ** 2     # squared residual, estimated
            est = math.sqrt(max(est2, 0.0))
            if step + 1 >= fixed and lo < rho - est and rho + est < hi:
                shift = rho
                if est2 <= (tol / 8) ** 2:
                    break
        else:
            return None
        # Rayleigh quotient rho and residual ||T x - rho x|| of the unit x
        r = _times(d, e, x)
        rho = _dot(x, r)
        r -= rho * x
        res = math.sqrt(_dot(r, r))
        if res > 8 * tol:
            return None
        if vectors is not None:
            vectors[j] = x
        vals.append(rho)
        radii.append(res + tol)
    vals, radii = np.array(vals), np.array(radii)
    lo, hi = vals - radii, vals + radii
    if np.any(lo[1:] <= hi[:-1]):
        return None
    count, *_, info = dstebz(d, e, 1, floor, hi[-1], 0, 0, hi[-1] - floor, b"E")
    return vals if info == 0 and count == vals.size else None


def _start(n: int) -> np.ndarray:
    """The fixed start vector of the seeded polish: entry i is splitmix64
    (Steele, Lea & Flood, OOPSLA 2014) of the counter _START_SEED + (i + 1)
    times its golden-ratio increment, its top 52 bits k mapped to (k + 1/2)
    2^-51 - 1 in (-1, 1), exactly.  The uint64 products wrap modulo 2^64,
    as the hash wants."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(_START_SEED)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(12)).astype(float) + 0.5) * 2.0 ** -51 - 1


def _times(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The product T x of the tridiagonal (d, e) with x, a new array."""
    r = d * x
    r[:-1] += e * x[1:]
    r[1:] += e * x[:-1]
    return r


def _prolongation(grid: Grid1D, coarse_m: np.ndarray, fine_m: np.ndarray,
                  bc: tuple[EndpointRule | None, EndpointRule | None]
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """The map that carries a standard-form vector u on grid, M = diag(coarse_m),
    to the h/2 grid, M = diag(fine_m), as a start vector.  v = M^(-1/2) u
    is injected at the shared points and interpolated at the midpoints by
    the cubic rule (-1, 9, 9, -1)/16.  Where that stencil does not reach,
    at the fine point beside each wall and the first midpoint, v follows
    phi, the local profile of the wall's rule in bc, a Dirichlet wall (None)
    being the power-1 profile at the grid end: v/phi is carried from the
    nearest coarse point to the point beside the wall and from the next
    coarse point to the midpoint.  Not from the nearest: its ratio
    phi(midpoint)/phi(nearest) = (3/2)^sigma reaches 1e176 at sigma = 1002
    (the polar equator at lam = 0.001) and would blow the roundoff of v
    at the wall up into the start; a ratio that still overflows leaves a
    non-finite start, which the polish rejects.  Then v is scaled by the
    fine M^(1/2).

    The points, the wall ratios and both M^(1/2) are formed once, here;
    the map itself does only the stencil arithmetic of each vector."""
    unscale, scale = 1 / np.sqrt(coarse_m), np.sqrt(fine_m)
    x, t = grid.points(), grid.refined().points()
    # (point beside the wall, first midpoint, nearest and next coarse
    # point) and the weights of v at those coarse points
    walls = []
    for rule, end, (w, m, a, b) in zip(bc, (grid.a, grid.b), ((0, 2, 0, 1), (-1, -3, -1, -2))):
        rule = rule or EndpointRule(1.0, end)
        with np.errstate(all="ignore"):
            v = rule.sample([t[w], t[m], x[a], x[b]])[0]
            beside, far = rule.sample_ratio(v[:2], v[2:]).tolist()
        walls.append((w, m, a, b, beside, far))

    def prolong(u: np.ndarray) -> np.ndarray:
        v = u * unscale
        vf = np.empty(2 * v.size + 1)
        vf[1::2] = v
        vf[4:-3:2] = (9 * (v[1:-2] + v[2:-1]) - v[:-3] - v[3:]) / 16
        for w, m, a, b, beside, far in walls:
            vf[w] = beside * v[a]
            vf[m] = far * v[b]
        return vf * scale

    return prolong


def _coarse_polished(problem: SturmLiouvilleProblem, k: int, d: np.ndarray,
                     e: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray | None:
    """The k lowest eigenvalues of the standard form (d, e) of problem,
    polished (see _polished, which fills vectors) from the guesses of the
    module docstring's one rule; None where they cannot be certified, where
    the guess grid has more than n/2 points or where it fails a guard."""
    grid = problem.grid
    n = max(grid.n // _COARSEN, _GUESS_POINTS * k)
    if n > grid.n // 2:
        return None
    coarse = replace(problem, grid=Grid1D(grid.a, grid.b, n))
    try:
        cd, ce, _ = _standard_system(coarse, k)
        tol = np.sqrt(np.finfo(float).eps) * _gershgorin(cd, ce)[1]
        guesses = _bisection(cd, ce, k, eigvals_only=True, tol=tol)
        if np.any(np.diff(guesses) <= 4 * tol):
            # guesses that close may not tell their eigenvalues apart
            guesses = _bisection(cd, ce, k, eigvals_only=True)
    except CurvoscError:
        return None
    return _polished(d, e, shifts=guesses, vectors=vectors)


def _eigenpairs(problem: SturmLiouvilleProblem, k: int, d: np.ndarray, e: np.ndarray,
                vectors: np.ndarray) -> np.ndarray:
    """The k lowest eigenvalues of the standard form (d, e) of problem, their
    unit vectors written into the rows of vectors: polished
    (_coarse_polished), else by stebz/stein (_bisection), whose values
    equal the values-only bisection bit for bit."""
    vals = _coarse_polished(problem, k, d, e, vectors)
    if vals is None:
        vals, u = _bisection(d, e, k)
        vectors[:] = u.T
    return vals


def lowest_eigenvalues(problem: SturmLiouvilleProblem, k: int, *,
                       _polish: Callable | None = None) -> np.ndarray:
    """k smallest eigenvalues, ascending, polished from the guesses of a
    coarser guess grid (see _coarse_polished); where they cannot be
    certified, by the Sturm-sequence bisection (see _bisection).  No
    eigenvector is kept.

    _polish is private to richardson_eigenvalues, which solves both grids
    of a pair here: _polish(d, e, m) of the assembled system returns the k
    certified lowest eigenvalues of its standard form (d, e), or None, on
    which the bisection runs.  The coarse grid's hook runs its own fallback
    (_eigenpairs), so only the fine grid's uses this one.  All paths apply
    the same guards."""
    d, e, m = _standard_system(problem, k)
    vals = _coarse_polished(problem, k, d, e) if _polish is None else _polish(d, e, m)
    if vals is None:
        vals = _bisection(d, e, k, eigvals_only=True)
    return _checked(vals, d, e)


def lowest_eigenpairs(problem: SturmLiouvilleProblem, k: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the k smallest eigenpairs, as
    np.linalg.eigh returns them: the values strictly ascending, the (n, k)
    vectors as columns sampled on grid.points(), v = (M h)^(-1/2) u of the
    unit vectors u of T and so orthonormal in the assembled weights
    (V^T M V h = I, M = diag(m) of assemble), with the first significant
    entry positive.

    Polished from guess-grid guesses as in lowest_eigenvalues, whose
    values they equal bit for bit; where those cannot be certified, by
    bisection plus inverse iteration (LAPACK stebz/stein, see _bisection)."""
    d, e, m = _standard_system(problem, k)
    # rows v are the unit eigenvectors of the standard form
    v = np.empty((k, d.size))
    vals = _checked(_eigenpairs(problem, k, d, e, v), d, e)
    # back-transform all k unit rows at once, in place: v^T M v h = 1
    v /= np.sqrt(m * problem.grid.h)
    av = np.abs(v)
    lead = np.argmax(av > _SIGNIFICANT * np.max(av, axis=1, keepdims=True), axis=1)
    del av
    v *= np.sign(v[np.arange(k), lead])[:, None]     # first significant entry > 0
    return vals, v.T


def node_count(values: np.ndarray) -> int:
    """The sign changes of a sampled function among its entries above
    _SIGNIFICANT of its largest |entry|, so that a vanishing tail adds none
    by roundoff: the N of a state, its nodes on the interior grid."""
    v = values[np.abs(values) > _SIGNIFICANT * np.max(np.abs(values))]
    return int(np.count_nonzero(np.signbit(v[:-1]) != np.signbit(v[1:])))


def richardson_eigenvalues(problem: SturmLiouvilleProblem, k: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues on the grid and its h/2 refinement plus the second-order
    Richardson combination (4 E_fine - E_coarse)/3.  Returns (extrapolated,
    coarse eigenvalues, fine eigenvalues, vectors), vectors the coarse
    grid's k unit eigenvectors u of its standard form T as (k, n) float32
    rows: u^2 is the mass m v^2 h of the back-transformed v = (M h)^(-1/2) u.

    Both grids are solved as the module docstring says; the fine grid
    starts from the prolonged coarse vectors without fixed-shift steps."""
    carried = []    # the coarse grid's weights m and unit vectors

    def coarse_polish(d, e, m):
        # single precision is ample for a start vector and halves the block
        vectors = np.empty((k, d.size), np.float32)
        carried.append((m, vectors))
        return _eigenpairs(problem, k, d, e, vectors)

    def fine_polish(d, e, m):
        coarse_m, vectors = carried[0]
        prolong = _prolongation(problem.grid, coarse_m, m, problem.bc)
        return _polished(d, e, starts=map(prolong, vectors))

    # each grid is one call of the public lowest_eigenvalues, not of
    # _polished alone: so each keeps the guards (the coarse hook runs its
    # own bisection fallback, the fine grid that of lowest_eigenvalues),
    # and the benchmark's layer tracer (perfbench/layers.py), which times
    # the second such call under this one as the fine grid, sees both
    coarse = lowest_eigenvalues(problem, k, _polish=coarse_polish)
    fine = lowest_eigenvalues(problem.refined(), k, _polish=fine_polish)
    return (4 * fine - coarse) / 3, coarse, fine, carried[0][1]


def _on(x: np.ndarray, value) -> np.ndarray:
    """value (an array over x, or a constant) broadcast to the shape of x."""
    return np.broadcast_to(np.asarray(value, float), x.shape)


def _five_point(f: Sequence[np.ndarray], step) -> tuple[np.ndarray, np.ndarray]:
    """(f', f'') by 5-point central stencils from the samples f = (f(x - 2
    step), f(x - step), f(x), f(x + step), f(x + 2 step)); step may be a
    number or an array over x.  The one definition of the stencil weights."""
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * step)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step * step)
    return d1, d2


def derivatives(fn: Callable, x: np.ndarray, step) -> tuple[np.ndarray, ...]:
    """(fn, fn', fn'') at the points x by 5-point central stencils; fn is
    evaluated once per stencil offset on the whole array, and step may be a
    number or an array over x."""
    f = [_on(x, fn(x + s * step)) for s in (-2, -1, 0, 1, 2)]
    return (f[2], *_five_point(f, step))


def residual_norm(coeffs: Callable, V: Callable, psi: Callable, E: float,
                  grid: Grid1D) -> float:
    """Max relative pointwise residual of p2 psi'' + p1 psi' + (p0 + V) psi = E psi
    over the interior grid, with (p2, p1, p0) = coeffs(x) the coefficient
    triple of a model module and derivatives by 5-point central stencils.

    coeffs and V are evaluated once on the grid array, psi once per stencil
    offset; any of them may return constants.  The stencil step is 1e-3
    (1 + |x|), independent of the sampling grid and growing with |x| so
    the relative resolution stays uniform on radial problems.  Points where
    |psi| < 1e-10 max|psi| are excluded from the maximum."""
    x = grid.points()
    f, d1, d2 = derivatives(psi, x, 1e-3 * (1 + np.abs(x)))
    p2, p1, p0 = (_on(x, c) for c in coeffs(x))
    res = np.abs(p2 * d2 + p1 * d1 + (p0 + _on(x, V(x))) * f - E * f)
    scale = abs(E) * np.abs(f) + 1e-300
    mask = np.abs(f) >= 1e-10 * np.max(np.abs(f))
    return float(np.max(res[mask] / scale[mask]))


def rayleigh_quotient(problem: SturmLiouvilleProblem, psi: Callable) -> tuple[float, float]:
    """Pointwise energy e(x) = [-(p psi')' + q psi]/(w psi) on the interior
    grid (5-point stencils, step grid.h), leaving out 10 points at each end,
    where endpoint singularities contaminate the stencils.

    psi and p are evaluated once each, on the grid points the stencils
    touch (the included points and two more at each side); the five
    shifted samples of each stencil are slices of those two arrays.  qw is
    evaluated once, on the included points.

    Returns (weighted mean of e with weight w psi^2, std(e)/|mean(e)|).
    Raises StateRangeError if psi is zero or not finite and NodeDetectedError
    if it changes sign on the included points."""
    grid = problem.grid
    h = grid.h
    t = grid.points()[8: grid.n - 8]
    if t.size < 9:
        raise ValueError("grid too small for the 10 points left out at each end")
    x = t[2:-2]

    def shifted(fn):
        """The samples fn(x + s h), s = -2..2 in order, as slices of fn on t."""
        v = _on(t, fn(t))
        return [v[s: v.size - 4 + s] for s in range(5)]

    fs = shifted(psi)
    f = fs[2]
    if not np.all(np.isfinite(f) & (f != 0)):
        raise StateRangeError("psi is zero or not finite on the Rayleigh quotient's points")
    if np.any(np.signbit(f[:-1]) != np.signbit(f[1:])):
        raise NodeDetectedError("psi changes sign; Rayleigh quotient needs a nodeless state")
    d1, d2 = _five_point(fs, h)
    ps = shifted(problem.p)
    pv, dp = ps[2], _five_point(ps, h)[0]
    qv, wv = (_on(x, v) for v in problem.qw(x))
    e = (-pv * d2 - dp * d1 + qv * f) / (wv * f)
    # psi scaled by a power of two, exactly, so that its square cannot overflow
    g = np.ldexp(f, -np.frexp(np.max(np.abs(f)))[1])
    weight = wv * g * g
    mean_w = float(np.sum(weight * e) / np.sum(weight))
    constancy = float(np.std(e) / abs(np.mean(e)))
    return mean_w, constancy
