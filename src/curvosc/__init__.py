"""Curved-space quantum oscillators.

One-dimensional nonlinear oscillator (position-dependent mass
K = 1 + lam x^2) and the radial oscillator on a constant-curvature 2D
sphere, with closed-form potentials, wavefunctions and spectra, the
coordinate map between the two models, two transplanted quasi-exactly
solvable potential families, and a finite-difference Sturm-Liouville
oracle that verifies every analytic claim numerically.
"""

__version__ = "0.1.0"
