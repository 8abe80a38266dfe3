"""Exact scalar arithmetic, precision contexts and polynomial algebra."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from splinebound.numerics import (
    PiRational,
    Poly,
    Var,
    horner_eval,
    integrate_over_lambda,
)


def pr(*pairs):
    return PiRational({j: Fraction(n, d) for j, n, d in pairs})


class TestPiRational:
    def test_cancellation(self):
        a = pr((1, 1, 1), (0, -3, 1))  # pi - 3
        assert a + PiRational.from_rational(3) == pr((1, 1, 1))

    def test_scalar_distribution(self):
        a = pr((0, -2, 1), (1, 1, 2))  # -2 + pi/2
        assert a * 2 == pr((0, -4, 1), (1, 1, 1))

    def test_order2_seed_combination(self):
        # 2*c1 - c0 + pi^2/8 with c0 = -1, c1 = -2 + pi/2
        c0 = PiRational.from_rational(-1)
        c1 = pr((0, -2, 1), (1, 1, 2))
        c2 = 2 * c1 - c0
        assert c2 == pr((0, -3, 1), (1, 1, 1))
        c2 = c2 + PiRational.pi_term(2, 1, 8)
        assert c2 == pr((0, -3, 1), (1, 1, 1), (2, 1, 8))

    def test_mul_convolves_powers(self):
        a = PiRational.pi_term(-3, 80)
        b = PiRational.pi_term(2, 1, 80)
        assert a * b == PiRational.pi_term(-1, 1)

    def test_canonical_no_zero_terms(self):
        a = pr((2, 1, 1)) - pr((2, 1, 1))
        assert a.terms == {}
        assert a.is_zero()

    def test_inverse_single_term(self):
        assert PiRational.pi_term(1, 1, 2).inverse() == PiRational.pi_term(-1, 2)
        with pytest.raises(ValueError):
            pr((0, 1, 1), (1, 1, 1)).inverse()

    def test_json_round_trip(self):
        a = pr((-3, 80, 1), (0, 7, 3), (2, -1, 48))
        assert PiRational.from_json_dict(a.to_json_dict()) == a


class TestToExtReal:
    def test_pi_minus_3(self):
        v = pr((1, 1, 1), (0, -3, 1)).to_ext_real(6)
        assert abs(float(v) - 0.141593) < 1e-6

    def test_zero(self):
        assert float(PiRational.zero().to_ext_real(12)) == 0.0

    def test_c1_decimal(self):
        v = pr((0, -2, 1), (1, 1, 2)).to_ext_real(6)
        assert abs(float(v) - (-0.429204)) < 1e-6

    def test_monotone_refinement(self):
        a = pr((1, 3, 7), (0, -1, 3), (-2, 5, 11))
        coarse = a.to_ext_real(15)
        fine = a.to_ext_real(40)
        with mp.workdps(50):
            assert abs(coarse - fine) <= mp.mpf(10) ** (-14) * abs(fine)

    @pytest.mark.parametrize("digits", (15, 40, 90))
    def test_rounded_at_digits_plus_ten(self, digits):
        # summed at digits + 15, then rounded to digits + 10
        a = pr((1, 3, 7), (0, -1, 3), (-2, 5, 11))
        with mp.workdps(digits + 15):
            total = mp.mpf(0)
            for j, q in a.terms.items():
                total += mp.mpf(q.numerator) / q.denominator * mp.pi**j
        with mp.workdps(digits + 10):
            expected = +total
        got = a.to_ext_real(digits)
        assert got._mpf_ == expected._mpf_

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the pi-power terms are summed at digits + 15 "
        "and cancel by far more digits than that",
    )
    def test_high_order_coefficient_to_its_digits(self):
        from splinebound.spline import sine_spline

        c = sine_spline(20).coeff(22)  # exact value 8.60e-47
        with mp.workdps(400):
            exact = mp.fsum(
                mp.mpf(q.numerator) / q.denominator * mp.pi**j for j, q in c.terms.items()
            )
            assert abs(c.to_ext_real(20) - exact) <= mp.mpf(10) ** (-19) * abs(exact)

    def test_decimal_string_keeps_zeros(self):
        assert PiRational.from_rational(1, 4).to_decimal_string(6) == "0.250000"
        assert pr((1, 1, 1)).to_decimal_string(12) == "3.14159265359"


class TestPoly:
    def test_variable_mismatch(self):
        a = Poly([PiRational.one()], Var.X_ON_0_HALFPI)
        b = Poly([PiRational.one()], Var.T_ON_0_1)
        with pytest.raises(ValueError):
            a + b

    def test_trailing_zeros_trimmed(self):
        p = Poly([PiRational.one(), PiRational.zero(), PiRational.zero()])
        assert p.degree == 0

    def test_powers(self):
        p = Poly([PiRational.one(), PiRational.one()])
        assert p**0 == Poly([PiRational.one()])
        assert p**2 == Poly([PiRational.from_rational(c) for c in (1, 2, 1)])
        with pytest.raises(ValueError):
            p**-1

    def test_horner_endpoint(self):
        # (2/pi) x at x = pi/2 gives 1
        p = Poly([PiRational.zero(), PiRational.pi_term(-1, 2)])
        with mp.workdps(60):
            x = mp.pi / 2
            assert abs(horner_eval(p, x, 50) - 1) < mp.mpf(10) ** -45

    def test_horner_at_zero(self):
        p = Poly([pr((0, 7, 2)), PiRational.one(), PiRational.one()])
        v = horner_eval(p, mp.mpf(0), 30)
        assert float(v) == 3.5

    def test_horner_f1_quarter_pi(self):
        from splinebound.spline import sine_spline

        f1 = sine_spline(1)
        with mp.workdps(40):
            x = mp.pi / 4
        v = horner_eval(f1, x, 30)
        with mp.workdps(40):
            err = mp.sin(mp.pi / 4) - v
            assert mp.mpf("0.696") < v < mp.mpf("0.697")
            assert err > 0  # lower bound

    def test_horner_matches_exact_expansion(self):
        from splinebound.spline import HALF_PI, sine_spline

        f2 = sine_spline(2)
        exact = f2.eval_exact(HALF_PI * Fraction(1, 2))  # x = pi/4
        with mp.workdps(60):
            x = mp.pi / 4
        numeric = horner_eval(f2, x, 50)
        with mp.workdps(60):
            assert abs(exact.to_ext_real(50) - numeric) < mp.mpf(10) ** (-45)


class TestIntegrateOverLambda:
    def test_identity_on_linear(self):
        p = Poly([PiRational.zero(), PiRational.pi_term(-1, 2)])
        assert integrate_over_lambda(p) == p
        q = Poly([PiRational.zero(), PiRational.one()])
        assert integrate_over_lambda(q) == q

    def test_f1_gives_h1(self):
        from splinebound.spline import sine_spline

        h1 = integrate_over_lambda(sine_spline(1))
        c2 = PiRational.pi_term(-2, 6) * (PiRational.one() - PiRational.pi_term(1, 1, 3))
        c3 = PiRational.pi_term(-3, -16, 3) * (
            PiRational.one() - PiRational.pi_term(1, 1, 4)
        )
        assert h1 == Poly([PiRational.zero(), PiRational.one(), c2, c3])

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            integrate_over_lambda(Poly([PiRational.one(), PiRational.one()]))

    def test_wrong_variable_rejected(self):
        p = Poly([PiRational.zero(), PiRational.one()], Var.T_ON_0_1)
        with pytest.raises(ValueError):
            integrate_over_lambda(p)


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=40
)
pi_rationals = st.dictionaries(
    st.integers(min_value=-4, max_value=4), small_fracs, max_size=4
).map(PiRational)


class TestProperties:
    @given(a=pi_rationals, b=pi_rationals)
    @settings(max_examples=200)
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(a=pi_rationals)
    @settings(max_examples=200)
    def test_mul_identity(self, a):
        assert a * PiRational.one() == a

    @given(
        coeffs=st.lists(small_fracs, min_size=2, max_size=8),
    )
    @settings(max_examples=100)
    def test_integrate_derivative_identity(self, coeffs):
        p = Poly([PiRational.zero()] + [PiRational.from_rational(c) for c in coeffs])
        # differentiate then multiply term k by k/(k) reconstruction:
        # d/dx sum a_k/k x^k has coefficient a_k x^(k-1); x * that, term-wise
        # re-divided, must reproduce p
        integrated = integrate_over_lambda(p)
        back = Poly(
            [PiRational.zero()]
            + [integrated.coeff(k) * k for k in range(1, integrated.degree + 1)]
        )
        assert back == p
