"""Two-point Hermite splines: fixtures, interpolation property, reflection."""

from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from splinebound.bounds import reflect_to_cos, sine_lower, sine_upper
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

# up to four pi-power terms; the small integer values make sums and
# products of them cancel a term often
multi_term = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.one_of(st.sampled_from((-1, 1, 2)), small_fracs),
    max_size=4,
).map(PiRational)


@st.composite
def generic_endpoint_data(draw):
    # alpha != 0 and a width that is a single pi-power term, as
    # `two_point_spline` requires
    n = draw(st.integers(min_value=0, max_value=3))
    offset = draw(multi_term)
    start = draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
    width = draw(st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6))
    power = draw(st.integers(min_value=-1, max_value=2))
    alpha = offset + PiRational.pi_term(power, start)
    if alpha.is_zero():
        alpha = PiRational.one()
    return EndpointData(
        alpha=alpha,
        beta=alpha + PiRational.pi_term(power, width),
        derivs_alpha=tuple(draw(multi_term) for _ in range(n + 1)),
        derivs_beta=tuple(draw(multi_term) for _ in range(n + 1)),
    )


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


# -- term order -------------------------------------------------------------
#
# `to_ext_real` sums a coefficient's pi-power terms in their insertion order,
# so that order fixes the rounding of every printed decimal; `==` ignores
# it.  The references below are the Hermite expansion and the Horner
# substitution written out in Poly-over-PiRational arithmetic, and the
# package must give the same terms in the same order.


def ref_substitute_affine(p, a, b, variable=None):
    var = variable or p.variable
    lin = Poly([a, b], var)
    out = Poly([], var)
    for c in reversed(p.coefficients):
        out = out * lin + Poly([c], var)
    return out


def ref_two_point_spline(data, n):
    width = data.beta - data.alpha
    inv_width = width.inverse()
    u = Poly([PiRational.zero(), PiRational.one()])
    one_minus_u = Poly([PiRational.one(), PiRational.from_rational(-1)])
    total = Poly([])
    for derivs, sign, lead, base in (
        (data.derivs_alpha, 1, one_minus_u ** (n + 1), u),
        (data.derivs_beta, -1, u ** (n + 1), one_minus_u),
    ):
        for k in range(n + 1):
            fk = derivs[k]
            if isinstance(fk, PiRational) and fk.is_zero():
                continue
            inner = Poly([])
            for i in range(n - k + 1):
                inner = inner + (base**i).scale(comb(n + i, i))
            scalar = (width**k) * fk * Fraction(sign**k, factorial(k))
            total = total + (lead * (base**k) * inner).scale(scalar)
    return ref_substitute_affine(total, -data.alpha * inv_width, inv_width)


def term_items(p):
    return [list(c.terms.items()) for c in p.coefficients]


class TestTermOrder:
    @pytest.mark.parametrize("n", [*range(17), 24, 32])
    def test_sine_spline(self, n):
        ref = ref_two_point_spline(sine_endpoint_data(n), n)
        assert term_items(sine_spline(n).poly) == term_items(ref)

    @pytest.mark.parametrize("n", range(13))
    def test_reflected_bounds(self, n):
        minus_one = PiRational.from_rational(-1)
        bounds = [sine_lower(n)] + ([sine_upper(n)] if n >= 2 else [])
        for b in bounds:
            ref = ref_substitute_affine(b.body, HALF_PI, minus_one)
            assert term_items(reflect_to_cos(b).body) == term_items(ref)

    @pytest.mark.parametrize("n", range(9))
    def test_cosine_spline(self, n):
        ref = ref_substitute_affine(
            ref_two_point_spline(sine_endpoint_data(n), n),
            HALF_PI,
            PiRational.from_rational(-1),
        )
        assert term_items(cosine_spline(n).poly) == term_items(ref)

    @given(
        coeffs=st.lists(multi_term, min_size=2, max_size=6),
        a=multi_term,
        b=multi_term,
        variable=st.sampled_from(Var),
    )
    @settings(max_examples=300, deadline=None)
    def test_substitute_affine(self, coeffs, a, b, variable):
        p = Poly(coeffs)
        got = p.substitute_affine(a, b, variable=variable)
        ref = ref_substitute_affine(p, a, b, variable=variable)
        assert got.variable is ref.variable
        assert term_items(got) == term_items(ref)

    def test_cancelled_term_enters_again_last(self):
        # (1 - pi) y - y^2 at the constant 1 - 1/pi: the pi^0 term cancels
        # at the second Horner step and comes back at the third, after the
        # terms that survived
        p = Poly([PiRational.zero(), PiRational({0: 1, 1: -1}), PiRational({0: -1})])
        a, b = PiRational({0: 1, -1: -1}), PiRational.zero()
        got = p.substitute_affine(a, b)
        assert term_items(got) == term_items(ref_substitute_affine(p, a, b))
        assert list(got.coeff(0).terms) == [-1, -2, 1, 0]

    def test_zero_shift_single_term_scales(self):
        # a = 0 and b = -2/pi: c_m * b**m, each c_m's terms in their own order
        p = Poly([
            PiRational({1: 1, 0: -3}),
            PiRational({-1: 2, 2: 1, 0: 5}),
            PiRational.zero(),
            PiRational({0: Fraction(1, 3), 3: -1}),
        ])
        a, b = PiRational.zero(), PiRational.pi_term(-1, -2)
        got = p.substitute_affine(a, b)
        assert term_items(got) == term_items(ref_substitute_affine(p, a, b))
        assert got.coeff(1) == PiRational({-2: -4, 1: -2, -1: -10})
        assert list(got.coeff(1).terms) == [-2, 1, -1]
        assert got.coeff(3).terms == {-3: Fraction(-8, 3), 0: 8}

    def test_zero_shift_multi_term_b(self):
        # a = 0 and b = 1 - 1/pi: the Horner steps merge the products of b's
        # terms in an order c_2 * b**2 would not, so the y^2 terms come out
        # as -2, -3, 0, -1 where the power would give -1, -2, -3, 0
        p = Poly([
            PiRational.pi_term(-1, 1),
            PiRational.pi_term(-1, 1),
            PiRational({-1: 1, 0: 1}),
        ])
        a, b = PiRational.zero(), PiRational({0: 1, -1: -1})
        got = p.substitute_affine(a, b)
        assert term_items(got) == term_items(ref_substitute_affine(p, a, b))
        assert list(got.coeff(2).terms) == [-2, -3, 0, -1]
        assert list((p.coeff(2) * b**2).terms) == [-1, -2, -3, 0]

    @given(data=generic_endpoint_data())
    @settings(max_examples=40, deadline=None)
    def test_generic_endpoint_data(self, data):
        n = data.order()
        assert term_items(two_point_spline(data, n).poly) == term_items(
            ref_two_point_spline(data, n)
        )

    @given(data=generic_endpoint_data())
    @settings(max_examples=20, deadline=None)
    def test_generic_endpoint_data_interpolates(self, data):
        p = two_point_spline(data, data.order()).poly
        for fa, fb in zip(data.derivs_alpha, data.derivs_beta):
            assert p.eval_exact(data.alpha) == fa
            assert p.eval_exact(data.beta) == fb
            p = p.derivative()
