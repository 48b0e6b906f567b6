import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvosc import crs, higgs
from curvosc.cli import main
from curvosc.errors import (
    NegativeRadiusError,
    NonpositiveCurvatureError,
    QuantumNumberError,
    SeriesDomainError,
)
from curvosc.params import PhysParams
from curvosc.special_functions import (
    MAX_SERIES_N,
    gudermannian,
    hyp2f1_terminating,
    radial_quantum_number,
    theta_of_x,
    upsilon_of_r,
)


def exact_hyp2f1(N, b, c, zs):
    """2F1(-N, b; c; z) at each float z, summed in exact rational arithmetic
    and rounded once.  Floats are dyadic, so with the coefficients over one
    denominator den and z = p/q, F = sum_k num_k p^k q^(N-k) / (den q^N)."""
    b, c = Fraction(b), Fraction(c)
    coefs = [Fraction(1)]
    for k in range(N):
        coefs.append(coefs[-1] * (-N + k) * (b + k) / ((c + k) * (k + 1)))
    den = math.lcm(*(coef.denominator for coef in coefs))
    nums = [coef.numerator * (den // coef.denominator) for coef in coefs]
    values = []
    for p, q in (float(z).as_integer_ratio() for z in zs):
        acc = 0
        for k in range(N, -1, -1):
            acc = acc * p + nums[k] * q ** (N - k)
        values.append(float(Fraction(acc, den * q ** N)))
    return np.array(values)


def series_error(N, b, c, zs):
    """Largest error of hyp2f1_terminating on zs, as a fraction of max|F|."""
    ref = exact_hyp2f1(N, b, c, zs)
    return np.max(np.abs(hyp2f1_terminating(N, b, c, zs) - ref)) / np.max(np.abs(ref))


Z_GRID = np.linspace(0.0, 0.999, 21)


class TestHyp2F1:
    def test_n0_is_one(self):
        assert hyp2f1_terminating(0, 3.7, 2.0, 0.5) == 1.0

    def test_single_term(self):
        # 1 - b z / c
        assert hyp2f1_terminating(1, 4.0, 2.0, 0.25) == pytest.approx(0.5, rel=1e-15)

    def test_three_term_series(self):
        # term-by-term: 1 + (-2)(5)/1 * 0.1 + [(-2)(-1)][(5)(6)]/[(1)(2)] * 0.01/2
        # = 1 - 1.0 + 0.15 = 0.15
        assert hyp2f1_terminating(2, 5.0, 1.0, 0.1) == pytest.approx(0.15, rel=1e-14)

    def test_z_zero_is_one(self):
        for N in (0, 1, 5, 17):
            assert hyp2f1_terminating(N, N + 2.3, 0.7, 0.0) == 1.0

    @pytest.mark.parametrize("N", [1, 14, 20, 25, 60])
    def test_matches_exact_series_on_the_callers_parameters(self, N):
        # the wavefunctions call it with c = |m'| + 1 and b = N + c + m w'/(lam hbar);
        # summing the series left 3.9e-8 of max|F| at N = 14, 5.3e-4 at 20, 3.4 at 25
        for mp in (0, 1, 2):
            for lam in (0.1, 1.0):
                for omega in (0.5, 2.0):
                    b = N + mp + 1 + PhysParams(omega=omega, lam=lam).omega_prime / lam
                    assert series_error(N, b, mp + 1, Z_GRID) <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 60), st.floats(1, 3), st.floats(1e-3, 30), st.floats(-1, 1))
    def test_matches_exact_series_on_any_callers_parameters(self, N, c, shift, z):
        # b - N - c = m w'/(lam hbar) > 0, and z = sin Theta reaches -1
        assert series_error(N, N + c + shift, c, np.append(Z_GRID, z)) <= 1e-12

    def test_deep_higgs_wavefunction_table_matches_exact_series(self, tmp_path):
        # the table read 3.4 times its largest |value| off at N = 25
        N, out = 25, tmp_path / "wf.json"
        assert main(["wavefunction", "--model", "higgs", "--N", str(N),
                     "--output", str(out)]) == 0
        r, value, _ = np.array(json.loads(out.read_text())["rows"]).T
        params = PhysParams()
        # psi_N = psi_0 * 2F1(-N, N + 1 + m w'/(lam hbar); 1; lam r^2/(1 + lam r^2))
        ref = higgs.higgs_wavefunction((0, 0), params, r) * exact_hyp2f1(
            N, N + 1 + params.omega_prime, 1, r * r / (1 + r * r))
        assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(value))

    def test_outside_the_domain_is_a_typed_error(self):
        for b, c in ((1.0, -1.0), (1.0, -3.0), (4.0, 0.0), (3.0, 1.0), (2.5, 1.0)):
            with pytest.raises(SeriesDomainError, match="needs b > N and c > 0"):
                hyp2f1_terminating(3, b, c, 0.5)

    def test_rejects_negative_n(self):
        with pytest.raises(QuantumNumberError):
            hyp2f1_terminating(-1, 1.0, 1.0, 0.5)

    def test_rejects_n_above_the_cap(self):
        hyp2f1_terminating(MAX_SERIES_N, MAX_SERIES_N + 2.0, 1.0, 0.5)
        with pytest.raises(QuantumNumberError, match=f"at most {MAX_SERIES_N}") as exc:
            hyp2f1_terminating(MAX_SERIES_N + 1, MAX_SERIES_N + 3.0, 1.0, 0.5)
        assert exc.value.inputs == ("N",)


# every formula that takes a radial quantum number N, called at (N, m' = 1)
TAKES_N = {
    "oscillator_energy": lambda N: crs.oscillator_energy((N, 1), PhysParams()),
    "higgs_wavefunction": lambda N: higgs.higgs_wavefunction((N, 1), PhysParams(), 0.5),
    "crs_wavefunction_special": lambda N: crs.crs_wavefunction_special(
        (N, 1), PhysParams(), 0.5),
}


class TestRadialQuantumNumber:
    @pytest.mark.parametrize("N", [-1, 1.5, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", TAKES_N)
    def test_bad_n_is_a_typed_error(self, name, N):
        # the energies returned numbers here (-0.618 at N = -1, 12.47 at
        # N = 1.5) and the wavefunctions raised a plain ValueError
        with pytest.raises(QuantumNumberError, match="N must be a nonnegative integer"):
            TAKES_N[name](N)

    @pytest.mark.parametrize("name", ["radial_quantum_number", *TAKES_N])
    def test_n_beyond_the_float_range_is_a_typed_error(self, name):
        # float(N) raised Python's bare OverflowError for an int N >= 2^1024
        call = TAKES_N.get(name, radial_quantum_number)
        with pytest.raises(QuantumNumberError, match=r"^N must be below 2\^1024"):
            call(10**400)

    @pytest.mark.parametrize("name", TAKES_N)
    def test_integral_n_of_any_type_is_the_int(self, name):
        assert TAKES_N[name](2.0) == TAKES_N[name](np.int64(2)) == TAKES_N[name](2)


class TestGudermannian:
    def test_zero(self):
        assert gudermannian(0.0) == 0.0

    def test_arctan_sinh_identity(self):
        for x in (-3.0, -1.0, 0.3, 1.0, 2.5):
            assert gudermannian(x) == pytest.approx(math.atan(math.sinh(x)), abs=1e-15)

    @settings(derandomize=True)
    @given(st.floats(-700, 700, allow_nan=False))
    def test_odd_and_bounded(self, x):
        assert gudermannian(x) == pytest.approx(-gudermannian(-x), abs=1e-15)
        # strictly below pi/2 mathematically; at large |x| the value rounds
        # onto the float representation of pi/2 itself
        assert abs(gudermannian(x)) <= math.pi / 2

    def test_monotone(self):
        xs = np.linspace(-20, 20, 201)
        vals = [gudermannian(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_argument_saturates(self):
        assert gudermannian(800.0) == pytest.approx(math.pi / 2, abs=1e-12)


class TestCoordinates:
    def test_theta_at_origin(self):
        assert theta_of_x(0.0, 1.0) == 0.0

    def test_theta_at_one(self):
        # arcsinh(1) = ln(1 + sqrt 2)
        assert theta_of_x(1.0, 1.0) == pytest.approx(0.881373587019543, rel=1e-14)

    def test_upsilon_values(self):
        assert upsilon_of_r(0.0, 2.5) == 0.0
        assert upsilon_of_r(1.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_upsilon_inverse_roundtrip(self):
        for lam in (0.1, 1.0, 10.0):
            for r in (0.05, 1.0, 7.3):
                u = upsilon_of_r(r, lam)
                assert math.tan(u) / math.sqrt(lam) == pytest.approx(r, rel=1e-13)

    @settings(derandomize=True)
    @given(st.floats(1e-6, 1e3), st.floats(0.01, 100))
    def test_both_increasing_odd_origin(self, x, lam):
        assert theta_of_x(x, lam) > 0
        assert theta_of_x(-x, lam) == pytest.approx(-theta_of_x(x, lam), rel=1e-15)
        assert upsilon_of_r(x, lam) > 0

    def test_domain_errors(self):
        with pytest.raises(NonpositiveCurvatureError):
            theta_of_x(1.0, 0.0)
        with pytest.raises(NonpositiveCurvatureError):
            upsilon_of_r(1.0, -1.0)
        with pytest.raises(NegativeRadiusError):
            upsilon_of_r(-0.1, 1.0)
