"""Self-adjoint finite-difference machinery for 1D Sturm-Liouville
eigenproblems

    -(p psi')' + q psi = E w psi      on (a, b),

discretized on a uniform interior grid in conservative (finite-volume)
form:

    K_ii = (p_{i-1/2} + p_{i+1/2}) / h^2 + q_i,   K_{i,i+1} = -p_{i+1/2}/h^2,
    M = diag(w_i),          K v = E M v.

This module never evaluates any closed-form spectrum or wavefunction of
the model modules; it is the independent check applied to them.

Endpoint handling
-----------------
Plain Dirichlet walls are exact for limit-point endpoints.  Radial and
inverse-square-type problems have singular endpoints where the regular
solution behaves like |x - x0|^sigma; a Dirichlet wall at small distance
then converges only like a power of the cutoff (or logarithmically, for
sigma = 0 or the critical sigma = 1/2), far too slowly for the tolerances
used here.  The "power" endpoint rule instead works with the local profile
phi(x) = |x-x0|^sigma (1 + c1 d + c2 d^2 + ...), d = |x-x0|, and:

  * closes the boundary face with the profile flux fitted through the
    adjacent interior point,
  * replaces the face derivative factors 1/h near the corner by
    phi'(face)/(phi(x_i) - phi(x_{i-1})), exact on the profile,
  * replaces q_i, w_i near the corner by profile-weighted cell averages
    int q phi / (phi(x_i) h), so the divergent 1/x^2 parts of q are
    integrated exactly against the profile instead of point-sampled.

phi itself is never formed: for sigma in the hundreds (small curvature)
d^sigma overflows far from the corner and underflows next to it.  Every
profile quantity is built from the ratio phi(t)/phi(t0) =
(d/d0)^sigma poly(d)/poly(d0) and the log-derivative phi'/phi, each taken
against a nearby point, which stay finite wherever the corrections matter.
The cell averages of one corner are a single 24-point Gauss-Legendre
evaluation over all its cells, run in blocks of _BLOCK cells so the
temporaries stay small.

All three changes keep K symmetric (the face factors multiply the same
difference in both adjacent rows; the closure only adds to the diagonal).
An optional ratio tie at the left endpoint, u_1 = tau u_2 (tau from the
profile), eliminates the first interior point by symmetric Rayleigh-Ritz
reduction; for a resonant indicial pair this suppresses the unwanted
partner solution exactly at the two-point level.  The "decay" rule is the
analogous closure for an infinite right endpoint with profile x^(-mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    NodeDetectedError,
    NonpositiveWeightError,
    UnresolvedError,
    ZeroNormError,
)

__all__ = [
    "Grid1D",
    "EndpointRule",
    "SturmLiouvilleProblem",
    "TridiagonalSystem",
    "EigenResult",
    "assemble",
    "lowest_eigenvalues",
    "richardson_eigenvalues",
    "derivatives",
    "residual_norm",
    "rayleigh_quotient",
    "normalize",
]

_GX, _GW = np.polynomial.legendre.leggauss(24)
_BLOCK = 256        # corner cells per quadrature block


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: n interior points on (a, b), spacing h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
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
    """Boundary treatment of one endpoint; see the module docstring."""

    kind: str = "dirichlet"       # "dirichlet" | "power" | "decay"
    exponent: float = 0.0         # sigma for power, mu for decay
    center: float = 0.0           # singular point location for power
    series: tuple = ()            # (c1, c2, ...) profile corrections
    tie: bool = False             # left only: eliminate adjacent point via profile ratio
    cells: int | None = None      # corrected cells; default n//5 (power), 2 (decay)

    @classmethod
    def dirichlet(cls) -> "EndpointRule":
        return cls()

    @classmethod
    def power(cls, sigma: float, center: float, series: Sequence[float] = (),
              tie: bool = False, cells: int | None = None) -> "EndpointRule":
        return cls(kind="power", exponent=sigma, center=center,
                   series=tuple(series), tie=tie, cells=cells)

    @classmethod
    def decay(cls, mu: float, cells: int | None = 2) -> "EndpointRule":
        return cls(kind="decay", exponent=mu, cells=cells)

    def _poly(self, d):
        """Series factor 1 + c1 d + c2 d^2 + ... and its d-derivative."""
        c = (1.0,) + self.series
        P = np.polynomial.polynomial
        return P.polyval(d, c), P.polyval(d, P.polyder(c))

    def ratio(self, t, t0):
        """phi(t)/phi(t0) of the local regular profile, without forming phi."""
        t, t0 = np.asarray(t, float), np.asarray(t0, float)
        if self.kind == "power":
            d, d0 = np.abs(t - self.center), np.abs(t0 - self.center)
            return (d / d0) ** self.exponent * (self._poly(d)[0] / self._poly(d0)[0])
        if self.kind == "decay":
            return (t / t0) ** (-self.exponent)
        raise ValueError(f"no profile for rule kind {self.kind!r}")

    def log_derivative(self, t):
        """phi'(t)/phi(t) of the local regular profile."""
        t = np.asarray(t, float)
        if self.kind == "power":
            d = np.abs(t - self.center)
            poly, dpoly = self._poly(d)
            return np.sign(t - self.center) * (self.exponent / d + dpoly / poly)
        if self.kind == "decay":
            return -self.exponent / t
        raise ValueError(f"no profile for rule kind {self.kind!r}")


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-(p psi')' + q psi = E w psi on grid, with endpoint rules bc."""

    p: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]
    w: Callable[[np.ndarray], np.ndarray]
    grid: Grid1D
    bc: tuple[EndpointRule, EndpointRule] = (EndpointRule(), EndpointRule())

    def refined(self) -> "SturmLiouvilleProblem":
        return SturmLiouvilleProblem(self.p, self.q, self.w, self.grid.refined(), self.bc)


@dataclass
class TridiagonalSystem:
    """Assembled K v = E M v with K symmetric tridiagonal, M positive diagonal.

    A left ratio tie may have reduced the system; tie_left holds the
    elimination ratio needed to reconstruct full-grid eigenvectors.
    """

    k_diag: np.ndarray
    k_off: np.ndarray
    m_diag: np.ndarray
    grid: Grid1D
    tie_left: float | None = None

    def standard_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(d, e) of the similarity-transformed standard problem
        M^(-1/2) K M^(-1/2) u = E u."""
        d = self.k_diag / self.m_diag
        e = self.k_off / np.sqrt(self.m_diag[:-1] * self.m_diag[1:])
        return d, e

    def expand(self, u_reduced: np.ndarray) -> np.ndarray:
        """Insert the tie-eliminated point back into reduced vectors (the
        last axis runs over the grid)."""
        if self.tie_left is None:
            return u_reduced
        return np.concatenate((self.tie_left * u_reduced[..., :1], u_reduced), axis=-1)


@dataclass
class EigenResult:
    """Lowest eigenpairs of a discretized problem.

    Eigenvalues ascend strictly; eigenvectors are sampled on grid.points()
    and normalized to sum(w_i v_i^2 h) = 1 with the first significant
    component positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray          # shape (n, k)
    residual_norms: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) <= 0):
            raise ValueError("eigenvalues not strictly ascending")


def assemble(problem: SturmLiouvilleProblem) -> TridiagonalSystem:
    """Build the symmetric tridiagonal generalized eigensystem."""
    grid = problem.grid
    n, h = grid.n, grid.h
    left, right = problem.bc
    if right.tie:
        raise ValueError("the ratio tie is supported at the left endpoint only")
    x = grid.points()
    xf = grid.faces()
    pf = np.asarray(problem.p(xf), float)
    qi = np.array(problem.q(x), float)
    wi = np.array(problem.w(x), float)
    if np.any(wi <= 0):
        raise NonpositiveWeightError("weight w must be positive on the interior")
    if np.any(pf <= 0):
        raise NonpositiveWeightError("leading coefficient p must be positive at faces")

    g = np.full(n + 1, 1.0 / h)       # face derivative factors
    closure = [0.0, 0.0]
    for side, rule in enumerate(problem.bc):
        if rule.kind == "dirichlet":
            continue
        m = rule.cells
        if m is None:
            m = max(40, n // 5) if rule.kind == "power" else 2
        m = min(m, n)
        # faces j (between x_{j-1} and x_j) and cells of this corner; face
        # terms are divided through by phi at the point of the pair farther
        # from the corner, so their ratios stay O(1) for any sigma
        if side == 0:
            j = np.arange(1, m)
            ref, cells = x[j], range(0, m)
            closure[0] = pf[0] * rule.log_derivative(xf[0]) * rule.ratio(xf[0], x[0]) / h
        else:
            j = np.arange(max(n - m, 1), n)
            ref, cells = x[j - 1], range(max(n - m, 0), n)
            closure[1] = -pf[n] * rule.log_derivative(xf[n]) * rule.ratio(xf[n], x[n - 1]) / h
        dp = rule.ratio(x[j], ref) - rule.ratio(x[j - 1], ref)
        flux = rule.log_derivative(xf[j]) * rule.ratio(xf[j], ref)
        g[j] = np.divide(flux, dp, out=g[j], where=dp != 0)
        for lo in range(cells.start, cells.stop, _BLOCK):
            i = np.arange(lo, min(lo + _BLOCK, cells.stop))
            half = 0.5 * (xf[i + 1] - xf[i])
            t = 0.5 * (xf[i + 1] + xf[i])[:, None] + half[:, None] * _GX
            wt = rule.ratio(t, x[i, None]) * (half / h)[:, None]
            qi[i] = (np.asarray(problem.q(t.ravel()), float).reshape(t.shape) * wt) @ _GW
            wi[i] = (np.asarray(problem.w(t.ravel()), float).reshape(t.shape) * wt) @ _GW

    off = -pf[1:-1] * g[1:-1] / h
    diag = (pf[:-1] * g[:-1] + pf[1:] * g[1:]) / h + qi
    if left.kind != "dirichlet":
        diag[0] = pf[1] * g[1] / h + qi[0] + closure[0]
    if right.kind != "dirichlet":
        diag[-1] = pf[-2] * g[-2] / h + qi[-1] + closure[1]

    tie_left = None
    if left.kind == "power" and left.tie:
        tau = float(left.ratio(x[0], x[1]))
        k11, k12, m11 = diag[0], off[0], wi[0]
        diag, off, wi = diag[1:].copy(), off[1:].copy(), wi[1:].copy()
        diag[0] += 2 * tau * k12 + tau * tau * k11
        wi[0] += tau * tau * m11
        tie_left = tau

    return TridiagonalSystem(diag, off, wi, grid, tie_left)


def lowest_eigenvalues(problem: SturmLiouvilleProblem, k: int) -> EigenResult:
    """k smallest eigenpairs by bisection on the Sturm-sequence sign count
    plus inverse iteration (LAPACK stebz/stein via eigh_tridiagonal)."""
    n = problem.grid.n
    if k < 1:
        raise ValueError("k must be positive")
    if k > n // 4:
        raise UnresolvedError(f"k = {k} exceeds resolved-mode budget n/4 = {n // 4}")
    system = assemble(problem)
    d, e = system.standard_form()
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise UnresolvedError("assembled system has non-finite entries")
    vals, u = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    edge = float(np.max(d) + 2 * np.max(np.abs(e)))
    if vals[-1] > 0.95 * edge:
        raise UnresolvedError(
            f"eigenvalue {vals[-1]:.6g} within 5% of the spectral edge {edge:.6g}")
    # back-transform all k pairs at once, in place in LAPACK's block, whose
    # rows ur are the eigenvectors; the residual (K - E M) ur needs one more
    # (k, n) array and a scratch for its off-diagonal products
    ur = u.T
    ur /= np.sqrt(system.m_diag)
    r = (system.k_diag - vals[:, None] * system.m_diag) * ur
    r[:, :-1] += system.k_off * ur[:, 1:]
    r[:, 1:] += system.k_off * ur[:, :-1]
    resid = np.linalg.norm(r, axis=1)
    del r
    resid /= (1 + np.abs(vals)) * np.linalg.norm(system.m_diag * ur, axis=1)
    v = system.expand(ur)
    wi_full = np.asarray(problem.w(problem.grid.points()), float)
    nrm = np.sqrt(np.sum(wi_full * v * v, axis=1) * problem.grid.h)
    if np.any(nrm == 0):
        raise ZeroNormError("eigenvector with zero weighted norm")
    v /= nrm[:, None]
    av = np.abs(v)
    lead = np.argmax(av > 1e-8 * np.max(av, axis=1, keepdims=True), axis=1)
    del av
    v *= np.sign(v[np.arange(k), lead])[:, None]     # first significant entry > 0
    return EigenResult(vals, v.T, resid, problem.grid)


def richardson_eigenvalues(problem: SturmLiouvilleProblem, k: int
                           ) -> tuple[np.ndarray, EigenResult, EigenResult]:
    """Eigenvalues on the grid and its h/2 refinement plus the second-order
    Richardson combination (4 E_fine - E_coarse)/3.  Returns
    (extrapolated, coarse result, fine result)."""
    coarse = lowest_eigenvalues(problem, k)
    fine = lowest_eigenvalues(problem.refined(), k)
    extrap = (4 * fine.eigenvalues - coarse.eigenvalues) / 3
    return extrap, coarse, fine


def _on(x: np.ndarray, value) -> np.ndarray:
    """value (an array over x, or a constant) broadcast to the shape of x."""
    return np.broadcast_to(np.asarray(value, float), x.shape)


def derivatives(fn: Callable, x: np.ndarray, step) -> tuple[np.ndarray, ...]:
    """(fn, fn', fn'') at the points x by 5-point central stencils; fn is
    evaluated once per stencil offset on the whole array, and step may be a
    number or an array over x."""
    f = {s: _on(x, fn(x + s * step)) for s in (-2, -1, 0, 1, 2)}
    d1 = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * step)
    d2 = (-f[-2] + 16 * f[-1] - 30 * f[0] + 16 * f[1] - f[2]) / (12 * step * step)
    return f[0], d1, d2


def residual_norm(coeffs: Callable, V: Callable, psi: Callable, E: float, grid: Grid1D,
                  step: float | Callable | None = None) -> float:
    """Max relative pointwise residual of p2 psi'' + p1 psi' + (p0 + V) psi = E psi
    over the interior grid, with (p2, p1, p0) = coeffs(x) the coefficient
    triple of a model module and derivatives by 5-point central stencils.

    coeffs and V are evaluated once on the grid array, psi once per stencil
    offset; any of them may return constants.  The stencil step defaults to
    grid.h; pass a number or a callable step(x) to decouple it from the
    sampling grid (radial problems want a step growing with r so the
    relative resolution stays uniform).  Points where |psi| < 1e-10 max|psi|
    are excluded from the maximum.
    """
    x = grid.points()
    if callable(step):
        hv = _on(x, step(x))
    else:
        hv = np.full(x.shape, grid.h if step is None else float(step))
    f, d1, d2 = derivatives(psi, x, hv)
    p2, p1, p0 = (_on(x, c) for c in coeffs(x))
    res = np.abs(p2 * d2 + p1 * d1 + (p0 + _on(x, V(x))) * f - E * f)
    scale = abs(E) * np.abs(f) + 1e-300
    mask = np.abs(f) >= 1e-10 * np.max(np.abs(f))
    return float(np.max(res[mask] / scale[mask]))


def rayleigh_quotient(problem: SturmLiouvilleProblem, psi: Callable,
                      exclude: int = 10) -> tuple[float, float]:
    """Pointwise energy e(x) = [-(p psi')' + q psi]/(w psi) on the interior
    grid (5-point stencils, step grid.h), excluding `exclude` points at each
    end where endpoint singularities contaminate the stencils.

    Returns (weighted mean of e with weight w psi^2, std(e)/|mean(e)|).
    Raises NodeDetectedError if psi changes sign on the included points.
    """
    grid = problem.grid
    h = grid.h
    x = grid.points()[exclude: grid.n - exclude]
    if x.size < 5:
        raise ValueError("grid too small for the requested exclusion zone")
    f, d1, d2 = derivatives(psi, x, h)
    if np.any(f[:-1] * f[1:] < 0):
        raise NodeDetectedError("psi changes sign; Rayleigh quotient needs a nodeless state")
    pv, dp, _ = derivatives(problem.p, x, h)
    qv = _on(x, problem.q(x))
    wv = _on(x, problem.w(x))
    e = (-pv * d2 - dp * d1 + qv * f) / (wv * f)
    weight = wv * f * f
    mean_w = float(np.sum(weight * e) / np.sum(weight))
    constancy = float(np.std(e) / abs(np.mean(e)))
    return mean_w, constancy


def normalize(psi_samples: np.ndarray, w_samples: np.ndarray, h: float) -> np.ndarray:
    """Scale samples so the trapezoidal integral of w psi^2 equals 1."""
    psi_samples = np.asarray(psi_samples, float)
    w_samples = np.asarray(w_samples, float)
    nrm2 = float(np.trapezoid(w_samples * psi_samples**2, dx=h))
    if nrm2 <= 0:
        raise ZeroNormError(f"weighted norm {nrm2} is not positive")
    return psi_samples / math.sqrt(nrm2)
