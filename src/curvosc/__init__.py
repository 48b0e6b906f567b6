"""Curved-space quantum oscillators.

One-dimensional nonlinear oscillator (position-dependent mass
K = 1 + lam x^2) and the radial oscillator on a constant-curvature 2D
sphere, with closed-form potentials, wavefunctions and spectra, the
coordinate map between the two models, two transplanted quasi-exactly
solvable potential families, and a finite-difference Sturm-Liouville
oracle that verifies every analytic claim numerically.
"""

from .params import PhysParams
from .crs import (
    HypergeometricArgument,
    QesSpec,
    crs_energy,
    crs_operator_coefficients,
    crs_potential_special,
    crs_wavefunction_special,
    potential_general,
    special_params,
    x_constraint_residual,
    x_general,
    x_pole,
)
from .higgs import (
    Example1SineFactor,
    example1_branch_radius,
    higgs_energy,
    higgs_radial_coefficients,
    higgs_wavefunction,
    qes_example1_groundstate,
    qes_example1_potential,
    qes_example2_groundstate,
    qes_example2_potential,
)
from .transform import (
    g_factor,
    map_potential,
    map_wavefunction,
    r_of_x,
    x_of_r,
)
from .numerics import (
    EigenResult,
    EndpointRule,
    Grid1D,
    SturmLiouvilleProblem,
    assemble,
    lowest_eigenpairs,
    lowest_eigenvalues,
    rayleigh_quotient,
    residual_norm,
    richardson_eigenvalues,
)
from .special_functions import (
    gudermannian,
    hyp2f1_terminating,
    theta_of_x,
    upsilon_of_r,
)

__version__ = "0.1.0"
