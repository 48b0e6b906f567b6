"""Coordinate, wavefunction, and potential maps between the nonlinear
oscillator on the line and the curved radial oscillator.

The coordinate map is x(r) = sinh(Upsilon(r))/sqrt(lam) with
Upsilon = arctan(sqrt(lam) r), under which the two intrinsic coordinates
coincide: Theta(x(r)) = Upsilon(r).  Wavefunctions map through
psi(r) = g(r) phi(x(r)) and potentials through curvature_shift.
Both models must share one lam and the angular channel must equal the
fixed parameter m'_Q of the source model.  Each map takes its model
arguments first, then params, then the points, and rejects lam <= 0.

The maps take a float or an ndarray of points and return a scalar or an
array of the same shape; the callables handed to map_potential and
map_wavefunction receive x(r) in that form.  A map raises if any
requested point is singular or out of range.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .crs import x_pole
from .errors import OutOfImageError, SingularPointError
from .params import PhysParams, finite_square
from .special_functions import theta_of_x, upsilon_of_r

# fixed convention of the wavefunction relation psi = g phi(x(r))
G_CONSTANT = complex(-2.0, 2.0)      # -2 (1 - i)


def x_of_r(params: PhysParams, r):
    """x(r) = sinh(arctan(sqrt(lam) r))/sqrt(lam); strictly increasing,
    bounded above by sinh(pi/2)/sqrt(lam)."""
    lam = params.require_curvature()
    return np.sinh(upsilon_of_r(r, lam)) / math.sqrt(lam)


def r_of_x(params: PhysParams, x):
    """Inverse map tan(arcsinh(sqrt(lam) x))/sqrt(lam) on [0, sinh(pi/2)/sqrt(lam))."""
    lam = params.require_curvature()
    sup = x_pole(params)
    x = np.asarray(x, float)
    outside = (x < 0) | (x >= sup)
    if np.any(outside):
        raise OutOfImageError(f"x = {x[outside].flat[0]} outside the image "
                              f"[0, {sup}) of the map")
    return np.tan(theta_of_x(x, lam)) / math.sqrt(lam)


def g_factor(params: PhysParams, r):
    """g(r) = -2 (1-i) (lam r^2)^(-1/4) (1 + lam r^2)^(-1/2).

    The constant -2(1-i) is kept as a fixed convention; all physical
    comparisons are modulus- or ratio-based, so only |g| matters.
    """
    lam = params.require_curvature()
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"g(r) singular at r <= 0, got {np.min(r)}")
    return G_CONSTANT * (lam * r * r) ** -0.25 * (1 + lam * r * r) ** -0.5


def curvature_shift(mprime_q: float, params: PhysParams, r):
    """The potential map's curvature-induced shift of channel m'_Q,

    (lam hbar^2/8m) [1 + (1 - 4 m'_Q^2)(1 + 1/(lam r^2))].
    """
    lam = params.require_curvature()
    coeff = 1 - 4 * finite_square("mprime_q", mprime_q)
    r = np.asarray(r, float)
    if np.any(r <= 0):
        raise SingularPointError(f"potential needs r > 0, got {np.min(r)}")
    return lam * finite_square("hbar", params.hbar) / (8 * params.mass) \
        * (1 + coeff * (1 + 1 / (lam * r * r)))


def map_potential(mprime_q: float, params: PhysParams, Vq: Callable, r):
    """Radial potential from a line potential of channel m'_Q:
    V_rad(r) = Vq(x(r)) + curvature_shift(mprime_q, params, r)."""
    return curvature_shift(mprime_q, params, r) + Vq(x_of_r(params, r))


def map_wavefunction(params: PhysParams, phi: Callable, r):
    """psi(r) = g(r) phi(x(r))."""
    return g_factor(params, r) * phi(x_of_r(params, r))
