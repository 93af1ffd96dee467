import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sphwhittle import (
    BandTooNarrow,
    SingularExponent,
    k_factor,
    u_limit,
    z_fullband,
    z_limit_fullband,
    z_narrowband,
)


def power_log_integral(l_lo: float, l_hi: float, s: float, k: int) -> float:
    """Exact value of the integral of 2 x^(1+s) log^k x over [l_lo, l_hi],
    the continuous analogue of the sums A_k behind Z.

    Closed antiderivatives divide by b = 2 + s, so s = -2 is singular.
    """
    if not 0 < l_lo < l_hi:
        raise ValueError("need 0 < l_lo < l_hi")
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    if s == -2:
        raise SingularExponent("s = -2 makes the antiderivative singular")
    b = 2.0 + s

    def anti(x: float) -> float:
        xb = x**b
        lg = math.log(x)
        if k == 0:
            return 2.0 * xb / b
        if k == 1:
            return 2.0 * xb * (lg / b - 1.0 / b**2)
        return 2.0 * xb * (lg * lg / b - 2.0 * lg / b**2 + 2.0 / b**3)

    return anti(l_hi) - anti(l_lo)


def brute_z(l_lo: int, l_hi: int, s: float) -> float:
    # exact rational arithmetic over the float inputs: the plain float
    # triple-sum loses ~6 digits to cancellation on narrow bands
    a0 = a1 = a2 = Fraction(0)
    for l in range(l_lo, l_hi + 1):
        w = Fraction(2 * l + 1) * Fraction(math.exp(s * math.log(l)))
        lg = Fraction(math.log(l))
        a0 += w
        a1 += w * lg
        a2 += w * lg * lg
    return float(a0 * a2 - a1 * a1)


class TestPowerLogIntegral:
    def test_plain_quadratic(self):
        for l_hi in (2.0, 10.0, 1e3):
            assert power_log_integral(1.0, l_hi, 0.0, 0) == pytest.approx(
                l_hi**2 - 1, rel=1e-14
            )

    def test_single_log_closed_form(self):
        value = power_log_integral(1.0, math.e, 0.0, 1)
        assert value == pytest.approx((math.e**2 + 1) / 2, rel=1e-13)

    def test_squared_log_against_quadrature(self):
        value = power_log_integral(2.0, 10.0, 0.6, 2)
        quad, _ = integrate.quad(lambda x: 2 * x**1.6 * math.log(x) ** 2, 2.0, 10.0)
        assert value == pytest.approx(quad, rel=5e-10)

    def test_singular_exponent(self):
        with pytest.raises(SingularExponent):
            power_log_integral(1.0, 10.0, -2.0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_log_integral(5.0, 2.0, 0.0, 0)
        with pytest.raises(ValueError):
            power_log_integral(0.0, 2.0, 0.0, 0)
        with pytest.raises(ValueError):
            power_log_integral(1.0, 2.0, 0.0, 3)

    def test_derivative_of_upper_limit(self):
        h = 1e-6
        for s in (-1.5, 0.0, 0.7, 2.0):
            fd = (
                power_log_integral(1.0, 50.0 + h, s, 0)
                - power_log_integral(1.0, 50.0 - h, s, 0)
            ) / (2 * h)
            assert fd == pytest.approx(2 * 50.0 ** (1 + s), rel=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(-1.9, 3.0),
        k=st.integers(0, 2),
        l_lo=st.floats(0.5, 20.0),
        width=st.floats(0.5, 30.0),
    )
    def test_matches_quadrature_property(self, s, k, l_lo, width):
        l_hi = l_lo + width
        value = power_log_integral(l_lo, l_hi, s, k)
        quad, _ = integrate.quad(
            lambda x: 2 * x ** (1 + s) * math.log(x) ** k, l_lo, l_hi
        )
        assert value == pytest.approx(quad, rel=1e-8, abs=1e-10)


class TestZFullband:
    def test_two_term_expansion(self):
        assert z_fullband(2, 0.0) == pytest.approx(15 * math.log(2) ** 2, rel=1e-13)

    def test_matches_brute_force(self):
        for l_max, s in ((10, 0.0), (50, 1.0), (200, -0.5)):
            assert z_fullband(l_max, s) == pytest.approx(brute_z(1, l_max, s), rel=1e-10)

    def test_limit_s0(self):
        ratio = z_fullband(10**5, 0.0) / float(10**5) ** 4
        assert ratio == pytest.approx(0.25, rel=0.01)

    def test_limit_s1(self):
        ratio = z_fullband(10**5, 1.0) / float(10**5) ** 6
        assert ratio == pytest.approx(1 / (4 * 1.5**4), rel=0.01)
        assert 1 / (4 * 1.5**4) == pytest.approx(0.0493827, abs=1e-7)

    def test_limit_helper(self):
        assert z_limit_fullband(0.0) == 0.25
        assert z_limit_fullband(2.0) == pytest.approx(1 / 64, rel=1e-15)

    def test_convergence_monotone(self):
        deviations = [
            abs(z_fullband(l_max, 0.0) / float(l_max) ** 4 - 0.25)
            for l_max in (10**3, 10**4, 10**5)
        ]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            z_fullband(1, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(l_max=st.integers(2, 2000), s=st.floats(-1.9, 3.0))
    def test_positive_property(self, l_max, s):
        assert z_fullband(l_max, s) > 0.0


class TestZNarrowband:
    def test_width_three_matches_brute_force(self):
        # g=0.035 at L=100 gives the band [98, 100]
        value = z_narrowband(100, 0.035, 0.0)
        assert value == pytest.approx(brute_z(98, 100, 0.0), rel=1e-12)

    def test_band_too_narrow(self):
        with pytest.raises(BandTooNarrow):
            z_narrowband(100, 0.02, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            z_narrowband(100, 0.0, 0.0)
        with pytest.raises(ValueError):
            z_narrowband(100, 1.0, 0.0)

    def test_limit_s0(self):
        l_max = 10**5
        g = 1 / math.log(l_max)
        ratio = z_narrowband(l_max, g, 0.0) / (float(l_max) ** 4 * g**4)
        assert ratio == pytest.approx(1 / 3, rel=0.03)

    @pytest.mark.parametrize("l_max", [10**4, 10**5, 10**6])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_expansion_in_g(self, l_max, s):
        # Z / (L^(4+2s) g^4) = (1 - s g) / 3 + O(g^2), whatever s; the
        # largest remainder on this grid is 0.289 g^2 (L = 1e4, s = 0.5)
        g = 1 / math.log(l_max)
        ratio = z_narrowband(l_max, g, s) / (float(l_max) ** (4 + 2 * s) * g**4)
        assert abs(3 * ratio - (1 - s * g)) <= 0.5 * g**2


class TestKFactor:
    def test_s_zero_exact(self):
        assert k_factor(0.0) == 1 / 3

    def test_reference_values(self):
        assert k_factor(2.0) == pytest.approx(0.10416666, abs=1e-7)
        assert k_factor(-1.0) == pytest.approx(13 / 6, rel=1e-14)
        assert k_factor(-1.0) == pytest.approx(2.16666, abs=1e-4)

    def test_domain(self):
        with pytest.raises(SingularExponent):
            k_factor(-2.0)


class TestULimit:
    def test_zero_at_origin(self):
        assert u_limit(0.0) == 0.0

    def test_reference_values(self):
        assert u_limit(1.0) == pytest.approx(0.0945348, abs=1e-7)
        assert u_limit(-1.0) == pytest.approx(0.1931471, abs=1e-7)

    def test_singular_at_minus_two(self):
        with pytest.raises(SingularExponent):
            u_limit(-2.0)
        with pytest.raises(SingularExponent):
            u_limit(-2.5)

    def test_positive_away_from_origin(self):
        xs = [x / 100 for x in range(-199, 1001) if x != 0]
        assert all(u_limit(x) > 0 for x in xs)

    def test_convexity_on_grid(self):
        xs = [(-1.9) + 0.01 * i for i in range(1, 1190)]
        vals = [u_limit(x) for x in xs]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
        assert all(d > 0 for d in second)
