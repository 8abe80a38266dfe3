"""Directional bound functions for sin, sin(x)/x, cos and Si on [0, pi/2].

Spline lower bounds, difference-constructed upper bounds (2*better - worse),
reflection to cosine, term-wise integration to the sine integral, and a
catalog of published baseline inequalities used for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from math import factorial
from typing import Callable, Optional, Union

import mpmath as mp

from .numerics import PiRational, Poly, horner_eval, horner_values
from .series import order1_coefficients, order2_coefficients
from .spline import reflect_half_pi, sine_spline

Body = Union[Poly, Callable[[mp.mpf, int], mp.mpf]]


@dataclass(frozen=True)
class BoundFn:
    """Evaluable bound descriptor.

    direction 'lower' means body(x) <= target(x) on [0, pi/2] (strict inside,
    equal at declared sharp points); 'upper' the reverse; 'approximation'
    claims no direction.  The builders below return one shared instance per
    argument value: treat it as immutable.

    A callable body is called as body(x, digits) by `eval_values` only,
    with an mpf x and inside mp.workdps(digits + 10); so a body neither
    converts x nor sets a precision of its own.
    """

    family: str
    order: int
    direction: str
    target: str  # sin | sinc | cos | si
    body: Body
    # lim_{x->0} body(x)/target(x); None means derive it (poly bodies) or
    # that the ratio is regular at 0.
    zero_ratio: Optional[Callable[[int], mp.mpf]] = field(default=None, compare=False)

    def eval_values(self, xs, digits: int) -> list:
        """Body values at each mpf x of `xs`, computed at `digits` working
        digits in one precision context."""
        if isinstance(self.body, Poly):
            return horner_values(self.body, xs, digits)
        with mp.workdps(digits + 10):
            return [self.body(mp.mpf(x), digits) for x in xs]

    def eval_raw(self, x, digits: int):
        """Body value at one mpf x: `eval_values` of the column [x]."""
        return self.eval_values([x], digits)[0]

    def ratio_at_zero(self, digits: int):
        """lim body(x)/target(x) as x -> 0+, for removable singularities."""
        if self.zero_ratio is not None:
            return self.zero_ratio(digits)
        if self.target in ("sin", "si"):
            # target ~ x at 0; polynomial bodies here have zero constant term
            return self.body.coeff(1).to_ext_real(digits)
        # cos(0) = 1 and sinc(0) = 1: plain evaluation works
        return self.eval_raw(0, digits)

    def ratio_at_half_pi(self, digits: int):
        """lim body(x)/cos(x) as x -> pi/2-, for cos bounds vanishing there.

        By l'Hopital the limit is -body'(pi/2); needs a polynomial body with
        an exact zero at pi/2.
        """
        if self.target != "cos" or not isinstance(self.body, Poly):
            raise ValueError("half-pi ratio applies to polynomial cos bounds")
        with mp.workdps(digits + 10):
            return -horner_eval(self._body_derivative, mp.pi / 2, digits)

    @cached_property
    def _body_derivative(self) -> Poly:
        # built once per instance, so its coefficients convert once per digits
        return self.body.derivative()

    def as_sinc(self) -> "BoundFn":
        """Expose a sin-target polynomial bound in sin(x)/x form."""
        if self.target != "sin" or not isinstance(self.body, Poly):
            raise ValueError("as_sinc applies to polynomial sin bounds")

        def body(x, digits):
            if x == 0:
                return self.ratio_at_zero(digits)
            return self.eval_raw(x, digits) / x

        return BoundFn(self.family, self.order, self.direction, "sinc", body)


# -- spline bounds ---------------------------------------------------------


@cache
def sine_lower(n: int) -> BoundFn:
    """n-th order spline approximant as a lower bound, sharp at 0 and pi/2."""
    return BoundFn("spline", n, "lower", "sin", sine_spline(n).poly)


@cache
def sine_upper(n: int) -> BoundFn:
    """Upper bound 2*f_n - f_(n-1) from consecutive spline lower bounds.

    Requires n >= 2; validity for n >= 5 is certified empirically by the
    grid check rather than assumed.
    """
    if n < 2:
        raise ValueError("upper bounds start at order 2")
    fn = sine_spline(n).poly
    fn1 = sine_spline(n - 1).poly
    return BoundFn("spline_upper", n, "upper", "sin", fn.scale(2) - fn1)


@dataclass(frozen=True)
class SufficiencyCertificate:
    """Margins c_k - 2*d_(k+1) whose positivity validates the order-2 upper bound."""

    K: int
    margins: tuple
    all_positive: bool


def sufficiency_check(K: int, digits: int = 50) -> SufficiencyCertificate:
    """Exact margins c_k - 2*d_(k+1) for 2 <= k <= K, signs read at >= 50 digits."""
    c = order1_coefficients(K).coeffs
    d = order2_coefficients(K + 1).coeffs
    digits = max(digits, 50)
    margins = tuple(c[k] - 2 * d[k + 1] for k in range(2, K + 1))
    all_pos = all(m.to_ext_real(digits) > 0 for m in margins)
    return SufficiencyCertificate(K=K, margins=margins, all_positive=all_pos)


@lru_cache(maxsize=256)
def reflect_to_cos(b: BoundFn) -> BoundFn:
    """Map a sin bound to the cos bound obtained by the x -> pi/2 - y substitution.

    Reflected once per value of the bound (its coefficients are exact, so
    equal values are equal bounds) and the result shared.
    """
    if b.target != "sin" or not isinstance(b.body, Poly):
        raise ValueError("reflection applies to polynomial sin bounds")
    return BoundFn(b.family, b.order, b.direction, "cos", reflect_half_pi(b.body))


@cache
def si_lower(n: int) -> BoundFn:
    """Lower bound for Si(x): term-wise integral of the sine spline over lambda."""
    from .numerics import integrate_over_lambda

    return BoundFn("spline", n, "lower", "si", integrate_over_lambda(sine_spline(n).poly))


def si_reference(x, digits: int) -> mp.mpf:
    """Si(x) at mpf x >= 0 by its alternating power series, correct to
    `digits` digits and rounded to digits + 10.

    Truncated when the next term drops below 10^(-digits-5); the alternating
    remainder bound then guarantees the stated accuracy.  Each term's
    magnitude x^(2k+1)/((2k+1)(2k+1)!) is computed once and added with sign
    (-1)^k; rounding to nearest is sign-symmetric, so this is the same sum
    as rounding each signed term.
    """
    with mp.workdps(digits + 15):
        xv = mp.mpf(x)
        if xv < 0:
            raise ValueError("Si reference is defined for x >= 0 here")
        cutoff = mp.mpf(10) ** (-digits - 5)
        total = mp.mpf(0)
        k = 0
        mag = xv  # x^1 / (1 * 1!)
        while True:
            total += -mag if k % 2 else mag
            k += 1
            mag = xv ** (2 * k + 1) / ((2 * k + 1) * factorial(2 * k + 1))
            if mag < cutoff:
                break
    with mp.workdps(digits + 10):
        return +total


# -- Taylor reference ------------------------------------------------------


@cache
def taylor_sine(order: int) -> BoundFn:
    """Truncated sine Taylor polynomial of odd order k.

    Direction alternates with the sign of the last kept term: upper for
    k = 1, 5, 9, ... and lower for k = 3, 7, 11, ...
    """
    if order < 1 or order % 2 == 0:
        raise ValueError("Taylor sine bounds use odd order >= 1")
    coeffs = [PiRational.zero()] * (order + 1)
    for j in range(1, order + 1, 2):
        coeffs[j] = PiRational.from_rational((-1) ** (j // 2), factorial(j))
    direction = "upper" if (order // 2) % 2 == 0 else "lower"
    return BoundFn("taylor", order, direction, "sin", Poly(coeffs))


# -- Zhu general-form bounds ----------------------------------------------


def zhu_alpha(n: int) -> list[PiRational]:
    """Exact alpha_0..alpha_n of the Zhu recurrence."""
    a = [PiRational.pi_term(-1, 2), PiRational.pi_term(-3, 1)]
    for k in range(2, n + 1):
        a.append(
            a[k - 1] * PiRational.pi_term(-2, 2 * k - 1, 2 * k)
            - a[k - 2] * PiRational.pi_term(-2, 1, 16 * (k - 1) * k)
        )
    return a[: n + 1]


@cache
def zhu_bound(n: int, direction: str) -> BoundFn:
    """Order-n Zhu bound for sin(x)/x in the variable u = pi^2 - 4x^2."""
    alpha = zhu_alpha(n + 1)
    consts = {}

    def constants(digits):
        # alpha_k, pi^2, the head sum and pi^(2n+2) depend on no point:
        # each is computed once per (digits, working precision)
        key = (digits, mp.mp.prec)
        out = consts.get(key)
        if out is None:
            pi = mp.pi
            av = [a.to_ext_real(digits) for a in alpha]
            head = sum(av[k] * pi ** (2 * k) for k in range(n + 1))
            out = consts[key] = (av, pi**2, head, pi ** (2 * n + 2))
        return out

    def body(x, digits):
        av, pi2, head, pi_top = constants(digits)
        u = pi2 - 4 * x**2
        acc = mp.mpf(0)
        for k in range(n + 1):
            acc += av[k] * u**k
        if direction == "lower":
            acc += av[n + 1] * u ** (n + 1)
        else:
            acc += (1 - head) * u ** (n + 1) / pi_top
        return acc

    return BoundFn("zhu", n, direction, "sinc", body)


# -- published baseline catalog -------------------------------------------


def _real_cbrt(v):
    # cos(x) at pi/2 rounded to the working precision can be a tiny negative
    # number, where mp.cbrt returns the complex principal root
    return mp.cbrt(v) if v >= 0 else -mp.cbrt(-v)


def _lv_si_body(x, digits):
    return (2 * x + mp.sin(x)) / 3 - (x**3 + 3 * x * mp.cos(x) - 3 * mp.sin(x)) / (
        9 * mp.pi**2
    )


@cache
def lv_si_lower() -> BoundFn:
    """Published closed-form lower bound for the sine integral."""
    return BoundFn(
        "lv_si", 0, "lower", "si", _lv_si_body, zero_ratio=lambda d: mp.mpf(1)
    )


def _cusa(x):  # Cusa-Huygens, also the upper form of rows 1 and 2
    return (2 + mp.cos(x)) / 3


def _cos_ratio(x):  # (9 + 6 cos x)/(14 + cos x), shared by rows 8 and 9
    return (9 + 6 * mp.cos(x)) / (14 + mp.cos(x))


def _tan_half_ratio_sq(x):  # (tan(x/2)/(x/2))^2 of row 5, 0/0 at x = 0
    return mp.tan(x / 2) ** 2 / (x / 2) ** 2


def _k0():  # row 10's k0, which makes its lower form sharp at pi/2
    return (8 * mp.pi - 24) / (mp.pi**3 - 2 * mp.pi**2)


@cache
def _p0(prec: int) -> mp.mpf:
    """Row 7's exponent p0 = 0.34730724..., the root of cos(p pi/2)^(1/p)
    = 2/pi, at `prec` bits: it makes the lower form sharp at pi/2.  The
    published 0.3473 is p0 rounded down, and with it the form exceeds 2/pi
    at pi/2 by 6.7e-6."""
    with mp.workprec(prec):
        return mp.findroot(
            lambda p: mp.log(mp.cos(p * mp.pi / 2)) / p - mp.log(2 / mp.pi),
            mp.mpf("0.3473"),
        )


def _row7_lower(x):
    p = _p0(mp.mp.prec)
    return mp.cos(p * x) ** (1 / p)


# (family, order, direction, sin(x)/x formula, value at x = 0 where the
# formula is 0/0 there); each formula keeps the operation order of its
# transcription, so its rounding is that of the published form.  Row 5
# (Hua) is implemented as transcribed; its x -> 0 limit is 1.  Row 7 uses
# the exact p0 where the table prints it rounded down.
_CATALOG = (
    ("jordan", 0, "lower", lambda x: 2 / mp.pi, None),
    ("jordan", 0, "upper", lambda x: mp.mpf(1), None),
    ("cusa_huygens", 0, "upper", _cusa, None),
    ("redheffer", 0, "lower", lambda x: (mp.pi**2 - x**2) / (mp.pi**2 + x**2), None),
    ("table11_1", 1, "lower", lambda x: (1 + mp.cos(x)) / 2, None),
    ("table11_1", 1, "upper", _cusa, None),
    ("table11_2", 2, "lower", lambda x: _real_cbrt(mp.cos(x)), None),
    ("table11_2", 2, "upper", _cusa, None),
    ("table11_3", 3, "lower",
     lambda x: (mp.cos(x) + mp.pi / (mp.pi - 2) - 1) / (mp.pi / (mp.pi - 2)), None),
    ("table11_3", 3, "upper", lambda x: (mp.cos(x) + 2) / 3, None),
    ("table11_4", 4, "lower", lambda x: (1 - 7 * x**2 / 60) / (1 + x**2 / 20), None),
    ("table11_4", 4, "upper",
     lambda x: (1 - x**2 / 7 + 11 * x**4 / 2520) / (1 + x**2 / 42), None),
    ("table11_5", 5, "lower",
     lambda x: 2 + 23 * x**3 * mp.sin(x) / 720 - _tan_half_ratio_sq(x), 1),
    ("table11_5", 5, "upper",
     lambda x: 2
     + (128 - 16 * mp.pi**2 + 16 * mp.pi) * x**3 * mp.sin(x) / mp.pi**5
     - _tan_half_ratio_sq(x), 1),
    ("table11_6", 6, "lower", lambda x: (2 / mp.pi) ** (4 * x**2 / mp.pi**2), None),
    ("table11_6", 6, "upper", lambda x: mp.exp(-(x**2) / 6), None),
    ("table11_7", 7, "lower", _row7_lower, None),
    ("table11_7", 7, "upper", lambda x: mp.cos(x / 3) ** 3, None),
    ("table11_8", 8, "lower", lambda x: (28 / mp.pi + 6 * mp.cos(x)) / (14 + mp.cos(x)), None),
    ("table11_8", 8, "upper", _cos_ratio, None),
    ("table11_9", 9, "lower",
     lambda x: _cos_ratio(x) ** (mp.log(mp.pi / 2) / mp.log(mp.mpf(14) / 9)), None),
    ("table11_9", 9, "upper", _cos_ratio, None),
    ("table11_10", 10, "lower",
     lambda x: (2 + mp.cos(x) - _k0() * x**2) / (3 - _k0() * x**2), None),
    ("table11_10", 10, "upper", lambda x: (2 + mp.cos(x) - x**2 / 10) / (3 - x**2 / 10), None),
)


def _published(formula, at_zero, x, digits):
    """Body of a catalog row: its formula, or its declared value at x = 0."""
    return mp.mpf(at_zero) if at_zero is not None and x == 0 else formula(x)


def baseline_catalog() -> list[BoundFn]:
    """Published sin(x)/x bounds: the classical inequalities, the ten tabulated
    lower/upper pairs, Zhu orders 0-2 and the Lv sine-integral bound."""
    entries = [
        BoundFn(family, order, direction, "sinc", partial(_published, formula, at_zero))
        for family, order, direction, formula, at_zero in _CATALOG
    ]
    entries.extend(zhu_bound(n, d) for n in range(3) for d in ("lower", "upper"))
    entries.append(lv_si_lower())
    return entries
