"""Shared physical parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonpositiveCurvatureError, NonpositiveParameterError, ParameterOverflowError, \
    ParameterUnderflowError


# the inputs that nu = 2m omega/(hbar lam) is formed from
NU_INPUTS = ("lam", "omega", "mass", "hbar")


def require_positive(name: str, value: float) -> None:
    """Reject a parameter that must be positive but is zero, negative or nan."""
    if not (value > 0):
        raise NonpositiveParameterError(f"{name} must be positive, got {value}", (name,))


def finite_square(name: str, value: float, inputs: tuple[str, ...] | None = None) -> float:
    """value * value, rejecting a parameter without a finite square (float
    ** would raise Python's bare OverflowError instead).  The error blames
    inputs, by default the input that name is."""
    square = value * value
    if not math.isfinite(square):
        raise ParameterOverflowError(f"{name} = {value:g} has no finite square", inputs or (name,))
    return square


@dataclass(frozen=True)
class PhysParams:
    """Physical context every formula consumes.

    mass, hbar and omega must be positive.  The curvature lam may be any
    real number at construction time; operations that actually need
    curvature check lam > 0 themselves (flat-space limits use lam = 0).
    """

    mass: float = 1.0
    hbar: float = 1.0
    omega: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        for name in ("mass", "hbar", "omega"):
            require_positive(name, getattr(self, name))

    def require_curvature(self) -> float:
        """Return lam, rejecting lam <= 0."""
        if not (self.lam > 0):
            raise NonpositiveCurvatureError(f"operation requires lam > 0, got {self.lam}", ("lam",))
        return self.lam

    @property
    def kinetic(self) -> float:
        """hbar^2/2m, the factor of every kinetic term; below the normal floats
        (2^-1022) the operators lose their derivative terms."""
        f = finite_square("hbar", self.hbar) / (2 * self.mass)
        if not f >= 2.0 ** -1022:
            raise ParameterUnderflowError(f"hbar = {self.hbar:g} is too small: hbar^2/2m = {f:g}",
                                          ("hbar", "mass"))
        return f

    @property
    def omega_prime(self) -> float:
        """Effective frequency sqrt(omega^2 + hbar^2 lam^2 / (4 m^2)), formed
        without squaring, so it stays finite wherever it is representable."""
        return math.hypot(self.omega, self.hbar * self.lam / (2 * self.mass))

    @property
    def delta(self) -> float:
        """sqrt(1 + 4 m^2 omega^2 / (lam^2 hbar^2)); needs lam > 0.

        Related to omega_prime by omega_prime = lam*hbar*delta/(2m).
        """
        lam = self.require_curvature()
        return math.hypot(1.0, 2 * self.mass * self.omega / (lam * self.hbar))

    def canonical(self) -> tuple["PhysParams", float]:
        """(hbar = 1, m = 1/2, lam = 1, omega = nu), nu = 2 m omega/(hbar lam),
        and the unit lam hbar^2/2m: every spectrum, higgs, crs and each QES
        channel, depends on nu alone, E = unit E(nu), with the same delta;
        needs lam > 0, a nu whose square is finite and, as kinetic does of
        hbar^2/2m, a unit that is a normal float."""
        lam = self.require_curvature()
        unit = lam * self.kinetic
        # a nu below the floats acts as 0, and so does their least positive value
        nu = max(2 * self.mass * self.omega / (lam * self.hbar), math.ulp(0.0))
        finite_square("nu = 2m omega/(hbar lam)", nu, NU_INPUTS)
        if not unit >= 2.0 ** -1022:
            raise ParameterUnderflowError(f"the energy unit lam hbar^2/2m = {unit:g} is too small",
                                          ("lam", "hbar", "mass"))
        return PhysParams(mass=0.5, hbar=1.0, omega=nu, lam=1.0), unit
