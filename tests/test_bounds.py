"""Directional bounds: structural fixtures, directions, references, catalog."""

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from splinebound.bounds import (
    baseline_catalog,
    lv_si_lower,
    reflect_to_cos,
    si_lower,
    SI_MAX_X,
    si_reference,
    sine_lower,
    sine_upper,
    sufficiency_check,
    taylor_sine,
    zhu_alpha,
    zhu_bound,
)
from splinebound.numerics import PiRational
from splinebound.spline import sine_spline

from fixtures_exact import F2_UPPER, G2_UPPER, SI_SPLINES, ZHU_EXPLICIT


class TestUpperConstruction:
    def test_order2_upper_closed_form(self):
        assert sine_upper(2).body == F2_UPPER

    def test_equals_difference_of_splines(self):
        for n in (2, 3, 4):
            explicit = sine_spline(n).poly.scale(2) - sine_spline(n - 1).poly
            assert sine_upper(n).body == explicit

    def test_cos_upper_closed_form(self):
        assert reflect_to_cos(sine_upper(2)).body == G2_UPPER

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            sine_upper(1)

    def test_error_identity(self):
        # sin - (2 f_n - f_(n-1)) must equal 2(sin - f_n) - (sin - f_(n-1)),
        # so the upper-bound error is determined by the two lower-bound errors
        digits = 40
        with mp.workdps(digits + 10):
            for n in (2, 3, 4):
                up = sine_upper(n)
                lo_n = sine_lower(n)
                lo_m = sine_lower(n - 1)
                for i in (1, 3, 7):
                    x = mp.pi * i / 16
                    s = mp.sin(x)
                    lhs = s - up.eval_raw(x, digits)
                    rhs = 2 * (s - lo_n.eval_raw(x, digits)) - (s - lo_m.eval_raw(x, digits))
                    assert abs(lhs - rhs) < mp.mpf(10) ** (-digits + 5)


class TestSufficiency:
    def test_margins_positive(self):
        cert = sufficiency_check(20)
        assert cert.all_positive
        assert len(cert.margins) == 19

    def test_first_margin_value(self):
        cert = sufficiency_check(3)
        # c_2 - 2 d_3 = (pi - 3) - 2(-10 + 3 pi + pi^2/8 - pi^3/48)
        first = cert.margins[0].to_ext_real(20)
        with mp.workdps(30):
            expected = (mp.pi - 3) - 2 * (
                -10 + 3 * mp.pi + mp.pi**2 / 8 - mp.pi**3 / 48
            )
            assert abs(first - expected) < mp.mpf(10) ** (-18)


class TestSineIntegral:
    @pytest.mark.parametrize("n", sorted(SI_SPLINES))
    def test_closed_forms(self, n):
        assert si_lower(n).body == SI_SPLINES[n]

    def test_reference_against_library(self):
        digits = 50
        with mp.workdps(digits + 10):
            for xv in (mp.mpf("0.25"), mp.mpf(1), mp.pi / 2):
                ours = si_reference(xv, digits)
                lib = mp.si(xv)
                assert abs(ours - lib) < mp.mpf(10) ** (-digits + 2)

    def test_reference_known_value(self):
        with mp.workdps(40):
            v = si_reference(mp.pi / 2, 30)
        assert abs(float(v) - 1.3707621681544881) < 1e-14

    def test_reference_rejects_negative(self):
        with pytest.raises(ValueError):
            si_reference(mp.mpf(-1), 30)

    @pytest.mark.parametrize("x", (mp.inf, mp.nan))
    def test_reference_rejects_non_finite(self, x):
        with pytest.raises(ValueError, match="finite"):
            si_reference(x, 30)

    @pytest.mark.parametrize("digits", (30, 50))
    @pytest.mark.parametrize("x", (10, 30, 60, 100, SI_MAX_X))
    def test_reference_correct_for_large_x(self, x, digits):
        # the terms cancel by as many digits as the largest one has, about
        # 23 at x = 60, 41 at x = 100 and 430 at x = SI_MAX_X
        ours = si_reference(mp.mpf(x), digits)
        with mp.workdps(2 * digits):
            lib = mp.si(x)
            assert abs(ours / lib - 1) < mp.mpf(10) ** (-digits)

    @pytest.mark.parametrize("x", (2**1100, mp.mpf("1000.5")))
    def test_reference_rejects_x_above_limit(self, x):
        # 2^1100 used to overflow float() in the cancellation estimate
        assert SI_MAX_X == 1000
        with pytest.raises(ValueError, match="x <= SI_MAX_X = 1000"):
            si_reference(x, 30)

    def test_lower_bound_holds(self):
        digits = 40
        with mp.workdps(digits + 10):
            for n in (1, 2, 3, 4):
                h = si_lower(n)
                for i in (1, 4, 7):
                    x = mp.pi * i / 16
                    assert h.eval_raw(x, digits) < mp.si(x)

    def test_lv_bound_holds(self):
        digits = 40
        b = lv_si_lower()
        assert float(b.ratio_at_zero(digits)) == 1.0
        with mp.workdps(digits + 10):
            for i in (1, 3, 5, 7):
                x = mp.pi * i / 16
                assert b.eval_raw(x, digits) < mp.si(x)


class TestOrderingChain:
    def test_lower_bounds_tighten_and_bracket(self):
        digits = 40
        with mp.workdps(digits + 10):
            for i in (1, 4, 7):
                x = mp.pi * i / 16
                s = mp.sin(x)
                f1 = sine_lower(1).eval_raw(x, digits)
                f2 = sine_lower(2).eval_raw(x, digits)
                f3 = sine_lower(3).eval_raw(x, digits)
                u3 = sine_upper(3).eval_raw(x, digits)
                u2 = sine_upper(2).eval_raw(x, digits)
                assert f1 < f2 < f3 < s < u3 < u2


class TestTaylor:
    def test_directions(self):
        assert taylor_sine(1).direction == "upper"
        assert taylor_sine(3).direction == "lower"
        assert taylor_sine(5).direction == "upper"
        assert taylor_sine(7).direction == "lower"

    def test_directions_hold_numerically(self):
        digits = 30
        with mp.workdps(digits + 10):
            x = mp.mpf(1)
            s = mp.sin(1)
            for order in (1, 3, 5, 7, 9):
                b = taylor_sine(order)
                v = b.eval_raw(x, digits)
                if b.direction == "upper":
                    assert v > s
                else:
                    assert v < s

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            taylor_sine(4)
        with pytest.raises(ValueError):
            taylor_sine(0)


class TestZhu:
    def test_alpha_closed_forms(self):
        a = zhu_alpha(3)
        assert a[0] == PiRational.pi_term(-1, 2)
        assert a[1] == PiRational.pi_term(-3, 1)
        assert a[2] == PiRational.pi_term(-5, 3, 4) - PiRational.pi_term(-3, 1, 16)

    def test_explicit_forms_match(self):
        digits = 40
        with mp.workdps(digits + 10):
            for n, forms in ZHU_EXPLICIT.items():
                for direction, coeffs in forms.items():
                    b = zhu_bound(n, direction)
                    for xv in (mp.mpf("0.3"), mp.mpf(1), mp.mpf("1.5")):
                        u = mp.pi**2 - 4 * xv**2
                        expected = sum(
                            c.to_ext_real(digits) * u**k
                            for k, c in enumerate(coeffs)
                        )
                        got = b.eval_raw(xv, digits)
                        assert abs(got - expected) < mp.mpf(10) ** (-digits + 5)

    def test_brackets_sinc(self):
        digits = 40
        with mp.workdps(digits + 10):
            for n in (0, 1, 2):
                lo = zhu_bound(n, "lower")
                hi = zhu_bound(n, "upper")
                for i in (1, 4, 7):
                    x = mp.pi * i / 16
                    sinc = mp.sin(x) / x
                    assert lo.eval_raw(x, digits) < sinc < hi.eval_raw(x, digits)

    def test_sharp_at_endpoints(self):
        # u = 0 at x = pi/2: every form collapses to 2/pi = sinc(pi/2)
        digits = 40
        with mp.workdps(digits + 10):
            x = mp.pi / 2
            for n in (0, 1, 2):
                for d in ("lower", "upper"):
                    v = zhu_bound(n, d).eval_raw(x, digits)
                    assert abs(v - 2 / mp.pi) < mp.mpf(10) ** (-digits + 5)


def _direction_holds(b, x, digits):
    """Whether catalog entry b lies on its declared side of the function it
    bounds at x, to within rounding; sin(x)/x is 1 at x = 0."""
    if b.target == "sinc":
        truth = mp.sin(x) / x if x != 0 else mp.mpf(1)
    elif b.target == "si":
        truth = mp.si(x)
    else:
        truth = mp.sin(x)
    v = b.eval_raw(x, digits)
    tol = mp.mpf(10) ** (-digits + 8)
    return v <= truth + tol if b.direction == "lower" else v >= truth - tol


# Row 7's published p = 0.3473 is p0 = 0.34730724... (the root of
# cos(p pi/2)^(1/p) = 2/pi) rounded down, and with it the lower form lies
# above sin(x)/x on (1.570443, pi/2]: by 6.7e-6 at pi/2.  The catalog uses
# p0 itself, which makes the form sharp at pi/2.
ROW7_LOWER = ("table11_7", "lower")


class TestCatalog:
    def test_directions_hold_on_interior_points(self):
        digits = 30
        cat = baseline_catalog()
        assert len(cat) > 25
        with mp.workdps(digits + 10):
            for b in cat:
                for i in (1, 3, 5, 7):
                    assert _direction_holds(b, mp.pi * i / 16, digits), (b.family, b.direction, i)

    def test_directions_hold_at_endpoints(self):
        # x = 0 takes each row's declared value there (row 5 is 0/0), and at
        # x = pi/2 the sharp forms meet 2/pi to within rounding
        digits = 30
        with mp.workdps(digits + 10):
            for b in baseline_catalog():
                for x in (mp.mpf(0), mp.pi / 2):
                    assert _direction_holds(b, x, digits), (b.family, b.direction, x)

    def test_row7_lower_at_half_pi(self):
        digits = 30
        cat = {(b.family, b.direction): b for b in baseline_catalog()}
        with mp.workdps(digits + 10):
            assert _direction_holds(cat[ROW7_LOWER], mp.pi / 2, digits)
            # sharp there: 2/pi to within rounding
            v = cat[ROW7_LOWER].eval_raw(mp.pi / 2, digits)
            assert abs(v - 2 / mp.pi) < mp.mpf(10) ** (-digits + 5)

    def test_row3_sharp_at_half_pi(self):
        digits = 40
        cat = {(b.family, b.direction): b for b in baseline_catalog()}
        b = cat[("table11_3", "lower")]
        with mp.workdps(digits + 10):
            v = b.eval_raw(mp.pi / 2, digits)
            assert abs(v - 2 / mp.pi) < mp.mpf(10) ** (-digits + 5)


class TestBoundFnInterface:
    def test_as_sinc(self):
        digits = 30
        b = sine_lower(2).as_sinc()
        assert b.target == "sinc"
        with mp.workdps(digits + 10):
            at0 = b.eval_raw(mp.mpf(0), digits)
            assert abs(at0 - 1) < mp.mpf(10) ** (-digits + 5)
            x = mp.mpf(1)
            direct = sine_lower(2).eval_raw(x, digits)
            assert abs(b.eval_raw(x, digits) - direct / 1) < mp.mpf(10) ** (-digits + 5)

    def test_as_sinc_rejects_non_sin(self):
        with pytest.raises(ValueError):
            zhu_bound(0, "lower").as_sinc()

    def test_reflect_rejects_non_sin(self):
        with pytest.raises(ValueError):
            reflect_to_cos(zhu_bound(0, "lower"))


class TestDirectionProperties:
    @given(
        n=st.integers(min_value=1, max_value=4),
        num=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_spline_stays_below_sine(self, n, num):
        digits = 30
        with mp.workdps(digits + 10):
            xv = mp.pi / 2 * num / 64
            v = sine_lower(n).eval_raw(xv, digits)
            assert v <= mp.sin(xv) + mp.mpf(10) ** (-digits + 8)

    @given(
        n=st.integers(min_value=2, max_value=4),
        num=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_upper_stays_above_sine(self, n, num):
        digits = 30
        with mp.workdps(digits + 10):
            xv = mp.pi / 2 * num / 64
            v = sine_upper(n).eval_raw(xv, digits)
            assert v >= mp.sin(xv) - mp.mpf(10) ** (-digits + 8)
