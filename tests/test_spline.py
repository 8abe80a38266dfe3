"""Two-point Hermite splines: fixtures, interpolation property, reflection."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from splinebound.numerics import PiRational, Poly, Var, horner_eval
from splinebound.spline import (
    HALF_PI,
    EndpointData,
    cosine_spline,
    reflect_half_pi,
    sine_endpoint_data,
    sine_spline,
    two_point_spline,
)

from fixtures_exact import COSINE_SPLINES, SINE_SPLINES

_SIN_CYCLE = (0, 1, 0, -1)


class TestSineFixtures:
    @pytest.mark.parametrize("n", sorted(SINE_SPLINES))
    def test_low_order_closed_forms(self, n):
        assert sine_spline(n).poly == SINE_SPLINES[n]

    def test_degree(self):
        for n in (0, 1, 2, 3, 4, 7):
            assert sine_spline(n).poly.degree == 2 * n + 1

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_taylor_prefix(self, n):
        # low-power coefficients lock onto the Maclaurin series of sine:
        # powers below roughly n are exactly 0, 1, 0, -1/6, 0, 1/120, ...
        maclaurin = {1: Fraction(1), 3: Fraction(-1, 6), 5: Fraction(1, 120)}
        p = sine_spline(n).poly
        for m in range(n):
            expected = PiRational.from_rational(maclaurin.get(m, Fraction(0)))
            assert p.coeff(m) == expected


class TestHermiteMatching:
    @pytest.mark.parametrize("n", range(9))
    def test_endpoint_derivatives(self, n):
        p = sine_spline(n).poly
        for k in range(n + 1):
            at0 = p.eval_exact(PiRational.zero())
            at_half = p.eval_exact(HALF_PI)
            assert at0 == PiRational.from_rational(_SIN_CYCLE[k % 4])
            assert at_half == PiRational.from_rational(_SIN_CYCLE[(k + 1) % 4])
            p = p.derivative()

    @pytest.mark.parametrize("n", (12, 16, 24, 32))
    def test_high_order_endpoints_exact(self, n):
        p = sine_spline(n).poly
        assert p.eval_exact(PiRational.zero()).is_zero()
        assert p.eval_exact(HALF_PI) == PiRational.one()

    def test_constant_data_reproduced(self):
        for n in range(6):
            data = EndpointData(
                alpha=PiRational.zero(),
                beta=HALF_PI,
                derivs_alpha=(PiRational.one(),) + (PiRational.zero(),) * n,
                derivs_beta=(PiRational.one(),) + (PiRational.zero(),) * n,
            )
            s = two_point_spline(data, n)
            assert s.poly == Poly([PiRational.one()])


class TestCosine:
    @pytest.mark.parametrize("n", sorted(COSINE_SPLINES))
    def test_low_order_closed_forms(self, n):
        assert cosine_spline(n).poly == COSINE_SPLINES[n]

    def test_reflection_involution(self):
        p = sine_spline(3).poly
        assert reflect_half_pi(reflect_half_pi(p)) == p

    @pytest.mark.parametrize("n", range(1, 6))
    def test_generic_interpolant_agrees(self, n):
        # feeding cosine endpoint data through the generic constructor must
        # give the same polynomial as reflecting the sine spline
        data = EndpointData(
            alpha=PiRational.zero(),
            beta=HALF_PI,
            derivs_alpha=tuple(
                PiRational.from_rational(_SIN_CYCLE[(k + 1) % 4]) for k in range(n + 1)
            ),
            derivs_beta=tuple(
                PiRational.from_rational(_SIN_CYCLE[(k + 2) % 4]) for k in range(n + 1)
            ),
        )
        assert two_point_spline(data, n).poly == cosine_spline(n).poly

    def test_value_tracks_cosine(self):
        g4 = cosine_spline(4).poly
        with mp.workdps(50):
            x = mp.pi / 6
        v = horner_eval(g4, x, 40)
        with mp.workdps(50):
            assert abs(v - mp.cos(mp.pi / 6)) < mp.mpf(10) ** (-8)


class TestValidation:
    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sine_spline(-1)
        with pytest.raises(ValueError):
            cosine_spline(-2)

    def test_wrong_derivative_count(self):
        data = sine_endpoint_data(2)
        with pytest.raises(ValueError):
            two_point_spline(data, 3)

    def test_degenerate_interval(self):
        data = EndpointData(
            alpha=HALF_PI,
            beta=HALF_PI,
            derivs_alpha=(PiRational.one(),),
            derivs_beta=(PiRational.one(),),
        )
        with pytest.raises(ValueError):
            two_point_spline(data, 0)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)


class TestInterpolationProperty:
    @given(
        n=st.integers(min_value=0, max_value=3),
        coeffs=st.lists(small_fracs, min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_reproduces_low_degree_polynomials(self, n, coeffs):
        # the order-n spline of any polynomial of degree <= 2n+1 is that
        # polynomial itself
        coeffs = coeffs[: 2 * n + 2]
        p = Poly([PiRational.from_rational(c) for c in coeffs], Var.X_ON_0_HALFPI)
        derivs_alpha = []
        derivs_beta = []
        d = p
        for _ in range(n + 1):
            derivs_alpha.append(d.eval_exact(PiRational.zero()))
            derivs_beta.append(d.eval_exact(HALF_PI))
            d = d.derivative()
        data = EndpointData(
            alpha=PiRational.zero(),
            beta=HALF_PI,
            derivs_alpha=tuple(derivs_alpha),
            derivs_beta=tuple(derivs_beta),
        )
        assert two_point_spline(data, n).poly == p
