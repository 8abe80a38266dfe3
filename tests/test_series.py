"""Error-series recurrences, exponent rules, and the derived sine series."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from splinebound.numerics import PiRational, Var, horner_eval
from splinebound.series import (
    ORDER1_SERIES_C1,
    ORDER2_SERIES_HEAD,
    eval_error_series,
    exponent_rule,
    order1_coefficients,
    order2_coefficients,
    sine_series,
    sine_series_eval,
)
from splinebound.spline import HALF_PI, sine_spline

from fixtures_exact import (
    ORDER1_CLOSED,
    ORDER1_DECIMALS,
    ORDER2_CLOSED,
    ORDER2_DECIMALS,
)


class TestClosedForms:
    @pytest.mark.parametrize("k", sorted(ORDER1_CLOSED))
    def test_order1_recurrence_matches_closed_form(self, k):
        s = order1_coefficients(12)
        assert s.coeffs[k] == ORDER1_CLOSED[k]

    @pytest.mark.parametrize("k", sorted(ORDER2_CLOSED))
    def test_order2_recurrence_matches_closed_form(self, k):
        s = order2_coefficients(12)
        assert s.coeffs[k] == ORDER2_CLOSED[k]

    def test_order1_decimals(self):
        s = order1_coefficients(8)
        for k, expected in ORDER1_DECIMALS.items():
            got = float(s.coeffs[k].to_ext_real(20))
            assert abs(got - expected) <= 1e-4 * abs(expected)

    def test_order2_decimals(self):
        s = order2_coefficients(8)
        for k, expected in ORDER2_DECIMALS.items():
            got = float(s.coeffs[k].to_ext_real(20))
            assert abs(got - expected) <= 1e-4 * abs(expected)

    def test_ratio_identity(self):
        # c3/c2 = 1 - frac(-e3/e2) where e2, e3 are the raw monomial errors
        with mp.workdps(40):
            e2 = mp.pi - 3
            e3 = 2 - mp.pi / 2 - mp.pi**3 / 48
            frac = (-e3 / e2) - mp.floor(-e3 / e2)
            s = order1_coefficients(4)
            ratio = s.coeffs[3].to_ext_real(35) / s.coeffs[2].to_ext_real(35)
            assert abs(ratio - (1 - frac)) < mp.mpf(10) ** (-30)


class TestExponentRule:
    def test_order1_listing(self):
        twos = [2, 5, 6, 9, 10, 13, 14]
        threes = [3, 4, 7, 8, 11, 12]
        assert all(exponent_rule(1, k) == 2 for k in twos)
        assert all(exponent_rule(1, k) == 3 for k in threes)

    def test_order2_listing(self):
        threes = [3, 6, 7, 10, 11, 14, 15]
        fours = [4, 5, 8, 9, 12, 13]
        assert all(exponent_rule(2, k) == 3 for k in threes)
        assert all(exponent_rule(2, k) == 4 for k in fours)

    def test_floor_form_consistency(self):
        # the pairwise-alternating pattern admits closed floor expressions;
        # the sine series follow it from k = 1 (order 1) and k = 0 (order 2),
        # below the error-series starts k = 2 and k = 3
        s1, s2 = sine_series("order1", 2), sine_series("order2", 3)
        for k in range(1, 201):
            expected = math.floor(5 / 2 + (-1) ** ((k + 1) // 2) / 2)
            assert s1.exponent(k) == expected
            if k >= 2:
                assert exponent_rule(1, k) == expected
        for k in range(0, 201):
            expected = math.floor(7 / 2 + (-1) ** (k // 2) / 2)
            assert s2.exponent(k) == expected
            if k >= 3:
                assert exponent_rule(2, k) == expected

    def test_below_start_rejected(self):
        with pytest.raises(ValueError):
            exponent_rule(1, 1)
        with pytest.raises(ValueError):
            exponent_rule(2, 2)
        with pytest.raises(ValueError):
            exponent_rule(3, 5)


class TestCoefficientShape:
    @pytest.mark.parametrize("order,start", ((1, 2), (2, 3)))
    def test_positive_and_decreasing(self, order, start):
        build = order1_coefficients if order == 1 else order2_coefficients
        s = build(60)
        prev = None
        for k in range(start, 61):
            # the closed forms cancel heavily (values fall to ~1e-73 by k=60
            # while individual pi-power terms are huge), so evaluate generously
            v = s.coeffs[k].to_ext_real(160)
            assert v > 0
            if prev is not None:
                assert v < prev
            prev = v

    def test_small_K_rejected(self):
        with pytest.raises(ValueError):
            order1_coefficients(1)
        with pytest.raises(ValueError):
            order2_coefficients(2)


def _taylor_sin_half_pi_t(m):
    # coefficient of t^m in sin(pi t / 2)
    if m % 2 == 0:
        return PiRational.zero()
    sign = 1 if (m // 2) % 2 == 0 else -1
    return PiRational.pi_term(m, sign, 2**m * math.factorial(m))


class TestMonomialExpansion:
    @pytest.mark.parametrize("order", (1, 2))
    def test_first_powers_match_spline_error(self, order):
        # re-expanding the structural series in monomials of t must reproduce
        # the Taylor coefficients of sin(pi t/2) - f_n(pi t/2), exactly
        max_power = 10
        build = order1_coefficients if order == 1 else order2_coefficients
        series = build(max_power)
        expanded = series.to_monomials(max_power)
        spline_in_t = sine_spline(order).substitute_affine(
            PiRational.zero(), HALF_PI, Var.T_ON_0_1
        )
        for m in range(max_power + 1):
            expected = _taylor_sin_half_pi_t(m) - spline_in_t.coeff(m)
            assert expanded.coeff(m) == expected


class TestEvaluation:
    def test_zero_at_endpoints(self):
        s = order1_coefficients(10)
        assert eval_error_series(s, mp.mpf(0), 30, 5) == 0
        assert eval_error_series(s, mp.mpf(1), 30, 5) == 0

    def test_domain_and_term_count_errors(self):
        s = order1_coefficients(5)
        with pytest.raises(ValueError):
            eval_error_series(s, mp.mpf(2), 30, 2)
        with pytest.raises(ValueError):
            eval_error_series(s, mp.mpf("0.5"), 30, 10)

    @pytest.mark.parametrize("order", (1, 2))
    def test_converges_to_spline_error(self, order):
        # with many terms the series equals sin(x) - f_n(x) to high accuracy
        digits = 40
        build = order1_coefficients if order == 1 else order2_coefficients
        series = build(120)
        spline = sine_spline(order)
        with mp.workdps(digits + 10):
            worst = mp.mpf(0)
            for i in range(0, 101, 10):
                t = mp.mpf(i) / 100
                x = mp.pi * t / 2
                approx = eval_error_series(series, t, digits, 119 - series.start_index)
                truth = mp.sin(x) - horner_eval(spline, x, digits)
                worst = max(worst, abs(approx - truth))
            assert worst < mp.mpf(10) ** (-25)

    def test_tail_geometric_envelope(self):
        # every term is below c_start * t^k, so the tail after the partial sum
        # is under c_start * t^(k+1)/(1-t)
        s = order1_coefficients(80)
        digits = 30
        with mp.workdps(digits + 10):
            t = mp.mpf("0.7")
            full = eval_error_series(s, t, digits, 79 - s.start_index)
        for terms in (5, 10, 20):
            with mp.workdps(digits + 10):
                partial = eval_error_series(s, t, digits, terms)
                k_next = s.start_index + terms
                c_head = s.coeffs[s.start_index].to_ext_real(digits)
                envelope = c_head * t**k_next / (1 - t)
                assert abs(full - partial) <= envelope


class TestSineSeries:
    def test_head_coefficients(self):
        # the order-1 head coefficient and the order-2 replacement head both
        # have documented closed forms
        assert ORDER1_SERIES_C1 == PiRational.from_rational(-2) + PiRational.pi_term(1, 1, 2)
        c0, c1, c2 = ORDER2_SERIES_HEAD
        assert c0 == PiRational.from_rational(-1) + PiRational.pi_term(2, 1, 8)
        assert float(c1.to_ext_real(20)) == pytest.approx(0.0381974, abs=2e-6)
        assert float(c2.to_ext_real(20)) == pytest.approx(-0.0157130, abs=2e-6)

    def test_head_held_in_coeffs(self):
        # the closed-form head replaces the error series' own c_k
        s1, s2 = sine_series("order1", 5), sine_series("order2", 5)
        assert s1.coeffs[1] is ORDER1_SERIES_C1
        assert s1.coeffs[2:] == order1_coefficients(5).coeffs[2:]
        assert s2.coeffs[:3] == ORDER2_SERIES_HEAD
        assert s2.coeffs[3:] == order2_coefficients(5).coeffs[3:]

    def test_terms_beyond_coefficients_rejected(self):
        s = sine_series("order1", 3)
        with pytest.raises(ValueError, match="k=3, need 10"):
            s.read_terms(30, 10)

    @pytest.mark.parametrize("variant", ("order1", "order2"))
    def test_endpoint_values(self, variant):
        with mp.workdps(40):
            half_pi = mp.pi / 2
        zero = sine_series_eval(variant, mp.mpf(0), 30, 6)
        one = sine_series_eval(variant, half_pi, 30, 6)
        assert abs(float(zero)) < 1e-28
        assert abs(float(one) - 1.0) < 1e-28

    @pytest.mark.parametrize("variant", ("order1", "order2"))
    def test_converges_to_sine(self, variant):
        digits = 40
        with mp.workdps(digits + 10):
            worst = mp.mpf(0)
            for i in range(1, 10):
                x = mp.pi * i / 20
                got = sine_series_eval(variant, x, digits, 90)
                worst = max(worst, abs(got - mp.sin(x)))
            assert worst < mp.mpf(10) ** (-20)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            sine_series_eval("order1", mp.mpf(4), 30, 5)
        with pytest.raises(ValueError):
            sine_series_eval("other", mp.mpf(1), 30, 5)


small_t = st.integers(min_value=1, max_value=99)


class TestProperties:
    @given(ti=small_t, terms=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_partial_sums_increase(self, ti, terms):
        # positive coefficients: adding terms can only increase the sum
        s = order1_coefficients(40)
        with mp.workdps(40):
            t = mp.mpf(ti) / 100
        a = eval_error_series(s, t, 30, terms)
        b = eval_error_series(s, t, 30, terms + 1)
        assert b >= a

    @given(ti=small_t)
    @settings(max_examples=40, deadline=None)
    def test_series_error_is_positive(self, ti):
        # the spline is a lower bound, so the error series must be positive
        # on the open interval
        s = order2_coefficients(30)
        with mp.workdps(40):
            t = mp.mpf(ti) / 100
        assert eval_error_series(s, t, 30, 25) > 0
