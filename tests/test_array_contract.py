"""Array contract of the model formulas: a float gives a scalar, an array
gives an array of the same shape whose entries equal the scalar results,
and an array with one singular point raises what the scalar call raises."""

import numpy as np
import pytest

from curvosc import crs, higgs, transform
from curvosc.errors import (
    DegenerateDerivativeError,
    NegativeRadiusError,
    OutOfImageError,
    SingularPointError,
)
from curvosc.params import PhysParams
from curvosc.special_functions import gudermannian, theta_of_x, upsilon_of_r

UNIT = PhysParams()
SPECIAL = crs.special_params(1.0, UNIT)


def cos2theta(x):
    return np.cos(2 * theta_of_x(x, 1.0))


# name -> (formula of the points, six valid points)
FORMULAS = {
    "gudermannian": (gudermannian, [-40.0, -1.5, -1e-3, 0.0, 0.7, 30.0]),
    "theta_of_x": (lambda x: theta_of_x(x, 0.7), [-3.0, -0.1, 0.0, 0.2, 1.0, 5.0]),
    "upsilon_of_r": (lambda r: upsilon_of_r(r, 0.7), [0.0, 1e-3, 0.1, 1.0, 30.0, 1e4]),
    "crs_potential_special": (lambda x: crs.crs_potential_special(1.0, UNIT, x),
                              [0.05, 0.3, 0.8, 1.5, 2.0, 2.25]),
    "crs_wavefunction_special": (lambda x: crs.crs_wavefunction_special((2, 1), UNIT, x),
                                 [0.05, 0.3, 0.8, 1.5, 2.0, 2.25]),
    "crs_wavefunction_special_real": (
        lambda x: crs.crs_wavefunction_special_real((1, 2), UNIT, x),
        [0.05, 0.3, 0.8, 1.5, 2.0, 2.25]),
    "x_general": (lambda x: crs.x_general(SPECIAL, UNIT, x),
                  [-2.0, 0.0, 0.3, 0.8, 1.5, 4.0]),
    "potential_general": (
        lambda x: crs.potential_general(SPECIAL, UNIT, x),
        [0.05, 0.3, 0.8, 1.5, 2.0, 2.25]),
    "x_constraint_residual": (
        lambda x: crs.x_constraint_residual(cos2theta, -4.0, 0.0, UNIT, x),
        [0.1, 0.3, 0.8, 1.5, 3.0, 5.0]),
    "higgs_radial_coefficients": (
        lambda r: higgs.higgs_radial_coefficients(2, UNIT, r),
        [-0.5, 0.05, 0.3, 1.0, 4.0, 20.0]),
    "oscillator_potential": (lambda r: higgs.oscillator_potential(UNIT, r),
                             [-2.0, 0.0, 0.05, 0.3, 4.0, 20.0]),
    "higgs_wavefunction": (lambda r: higgs.higgs_wavefunction((2, 1), UNIT, r),
                           [0.0, 0.05, 0.3, 1.0, 4.0, 20.0]),
    "qes_example1_potential": (lambda r: higgs.qes_example1_potential(3.0, 1.0, UNIT, r),
                               [1e-4, 0.05, 0.3, 1.0, 1.7, 4.0]),
    "qes_example1_groundstate": (
        lambda r: higgs.qes_example1_groundstate(3.0, 1.0, UNIT, r),
        [1e-4, 0.05, 0.3, 1.0, 1.5, 1.73]),
    "qes_example2_potential": (lambda r: higgs.qes_example2_potential(1.0, UNIT, r),
                               [1e-4, 0.05, 0.3, 1.0, 10.0, 1e6]),
    "qes_example2_groundstate": (lambda r: higgs.qes_example2_groundstate(1.0, UNIT, r),
                                 [1e-4, 0.05, 0.3, 1.0, 10.0, 1e3]),
    "qes_potential(l=3)": (lambda r: higgs.qes_potential(1.0, UNIT, r, 3.0),
                           [1e-4, 0.05, 0.3, 1.0, 1.7, 4.0]),
    "qes_potential(l=None)": (lambda r: higgs.qes_potential(1.0, UNIT, r),
                              [1e-4, 0.05, 0.3, 1.0, 10.0, 1e6]),
    "qes_groundstate(l=3)": (lambda r: higgs.qes_groundstate(1.0, UNIT, r, 3.0),
                             [1e-4, 0.05, 0.3, 1.0, 1.5, 1.73]),
    "qes_groundstate(l=None)": (lambda r: higgs.qes_groundstate(1.0, UNIT, r),
                                [1e-4, 0.05, 0.3, 1.0, 10.0, 1e3]),
    "x_of_r": (lambda r: transform.x_of_r(UNIT, r), [0.0, 1e-3, 0.3, 1.0, 10.0, 1e6]),
    "r_of_x": (lambda x: transform.r_of_x(UNIT, x), [0.0, 1e-3, 0.3, 1.0, 2.0, 2.3]),
    "g_factor": (lambda r: transform.g_factor(UNIT, r), [1e-3, 0.1, 0.3, 1.0, 5.0, 50.0]),
    "map_potential": (
        lambda r: transform.map_potential(
            1.0, UNIT, lambda x: crs.crs_potential_special(1.0, UNIT, x), r),
        [0.05, 0.3, 1.0, 2.0, 5.0, 10.0]),
    "map_wavefunction": (
        lambda r: transform.map_wavefunction(
            UNIT, lambda x: crs.crs_wavefunction_special((1, 1), UNIT, x), r),
        [0.05, 0.3, 1.0, 2.0, 5.0, 10.0]),
}


def components(value) -> tuple:
    """The outputs of one call; higgs_radial_coefficients returns three."""
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_array_equals_elementwise_scalars(name):
    formula, points = FORMULAS[name]
    grid = np.array(points).reshape(2, 3)
    batched = components(formula(grid))
    singles = [components(formula(float(p))) for p in grid.flat]
    for k, part in enumerate(batched):
        assert np.shape(part) == grid.shape
        scalars = [s[k] for s in singles]
        assert all(isinstance(v, (float, complex)) for v in scalars)
        np.testing.assert_allclose(part, np.reshape(scalars, grid.shape), rtol=1e-14, atol=0)


# (formula, singular point, error): every formula raises at its singular
# points whether they come alone or inside an otherwise valid array
SINGULAR = [
    ("crs_potential_special", 0.0, SingularPointError),
    ("crs_wavefunction_special", 0.0, SingularPointError),
    ("potential_general", 0.0, DegenerateDerivativeError),
    ("higgs_radial_coefficients", 0.0, SingularPointError),
    ("higgs_wavefunction", -0.5, NegativeRadiusError),
    ("qes_example1_potential", 0.0, SingularPointError),
    ("qes_example1_groundstate", -1.0, SingularPointError),
    ("qes_example1_groundstate", 2.0, SingularPointError),
    ("qes_example2_potential", 0.0, SingularPointError),
    ("qes_example2_groundstate", -0.3, SingularPointError),
    ("qes_potential(l=3)", 0.0, SingularPointError),
    ("qes_potential(l=None)", 0.0, SingularPointError),
    ("qes_groundstate(l=3)", -1.0, SingularPointError),
    ("qes_groundstate(l=3)", 2.0, SingularPointError),
    ("qes_groundstate(l=None)", -0.3, SingularPointError),
    ("upsilon_of_r", -1e-3, NegativeRadiusError),
    ("x_of_r", -1.0, NegativeRadiusError),
    ("r_of_x", -0.1, OutOfImageError),
    ("r_of_x", crs.x_pole(UNIT), OutOfImageError),
    ("g_factor", 0.0, SingularPointError),
    ("map_potential", 0.0, SingularPointError),
]


@pytest.mark.parametrize("name,point,error", SINGULAR)
def test_one_singular_point_raises_like_the_scalar(name, point, error):
    formula, points = FORMULAS[name]
    with pytest.raises(error) as scalar:
        formula(point)
    with pytest.raises(error) as batched:
        formula(np.array(points[:3] + [point] + points[3:]))
    assert type(batched.value) is type(scalar.value)
