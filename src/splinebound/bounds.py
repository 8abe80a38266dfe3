"""Directional bound functions for sin, sin(x)/x, cos and Si on [0, pi/2].

Spline lower bounds, difference-constructed upper bounds (2*better - worse),
reflection to cosine, term-wise integration to the sine integral, and a
catalog of published baseline inequalities used for comparison.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from math import factorial
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Union

import mpmath as mp

from .numerics import PiRational, Poly, horner_eval, horner_values
from .series import order1_coefficients, order2_coefficients
from .spline import reflect_half_pi, sine_spline

Body = Union[Poly, Callable[[mp.mpf, int], mp.mpf]]


class BoundFn:
    """Evaluable bound descriptor.

    direction 'lower' means body(x) <= target(x) on [0, pi/2] (strict inside,
    equal at declared sharp points); 'upper' the reverse; 'approximation'
    claims no direction.  The builders below return one shared instance per
    argument value: treat it as immutable.

    A callable body is called as body(x, digits) by `eval_values` only,
    with an mpf x and inside mp.workdps(digits + 10); so a body neither
    converts x nor sets a precision of its own.

    Immutable, and equal and hashed by family, order, direction, target and
    body: `reflect_to_cos` memoises by that value.
    """

    family: str
    order: int
    direction: str
    target: str  # sin | sinc | cos | si
    body: Body
    # lim_{x->0} body(x)/target(x); None means derive it (poly bodies) or
    # that the ratio is regular at 0.  Not part of the value.
    zero_ratio: Optional[Callable[[int], mp.mpf]]

    def __init__(self, family, order, direction, target, body, zero_ratio=None):
        vars(self).update(
            family=family, order=order, direction=direction, target=target,
            body=body, zero_ratio=zero_ratio,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"BoundFn is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"BoundFn is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.family, self.order, self.direction, self.target, self.body)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"BoundFn{self._key()!r}"

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
    return BoundFn("spline", n, "lower", "sin", sine_spline(n))


@cache
def sine_upper(n: int) -> BoundFn:
    """Upper bound 2*f_n - f_(n-1) from consecutive spline lower bounds.

    Requires n >= 2; validity for n >= 5 is certified empirically by the
    grid check rather than assumed.
    """
    if n < 2:
        raise ValueError("upper bounds start at order 2")
    return BoundFn("spline_upper", n, "upper", "sin", sine_spline(n).scale(2) - sine_spline(n - 1))


class SufficiencyCertificate(NamedTuple):
    """Margins c_k - 2*d_(k+1) whose positivity validates the order-2 upper bound."""

    margins: tuple
    all_positive: bool


def sufficiency_check(K: int) -> SufficiencyCertificate:
    """Exact margins c_k - 2*d_(k+1) for 2 <= k <= K, signs read at 50 digits."""
    c = order1_coefficients(K).coeffs
    d = order2_coefficients(K + 1).coeffs
    margins = tuple(c[k] - 2 * d[k + 1] for k in range(2, K + 1))
    all_pos = all(m.to_ext_real(50) > 0 for m in margins)
    return SufficiencyCertificate(margins=margins, all_positive=all_pos)


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

    return BoundFn("spline", n, "lower", "si", integrate_over_lambda(sine_spline(n)))


# Largest x `si_reference` accepts: the domain its tests check against an
# independent series oracle.
SI_MAX_X = 1000


def si_reference(x, digits: int) -> mp.mpf:
    """Si(x) at finite mpf x in [0, SI_MAX_X], correct to `digits` digits
    and rounded to digits + 10; a larger x raises ValueError.

    x is rounded to digits + 15 digits on entry, and mpmath's `si` is
    evaluated there at digits + 10 working digits.
    """
    with mp.workdps(digits + 15):
        xv = mp.mpf(x)
    if xv < 0:
        raise ValueError("Si reference is defined for x >= 0 here")
    if not mp.isfinite(xv):
        raise ValueError(f"Si reference needs a finite x, got {x}")
    if xv > SI_MAX_X:
        raise ValueError(f"Si reference needs x <= SI_MAX_X = {SI_MAX_X}, got {mp.nstr(xv, 8)}")
    with mp.workdps(digits + 10):
        return mp.si(xv)


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


def zhu_constants(n: int, digits: int):
    """What the Zhu bounds of orders 0..n read besides the point, at the
    working precision: alpha_0..alpha_(n+1) at `digits` digits, pi^2, and
    for each order m <= n the head sum sum_(k<=m) alpha_k pi^(2k) and
    pi^(2m+2)."""
    pi = mp.pi
    av = [a.to_ext_real(digits) for a in zhu_alpha(n + 1)]
    heads, head = [], 0
    for k in range(n + 1):
        head += av[k] * pi ** (2 * k)
        heads.append(head)
    return av, pi**2, heads, [pi ** (2 * m + 2) for m in range(n + 1)]


def zhu_values(x, constants, columns) -> list:
    """Values at mpf x of the Zhu bounds `columns`, (order, direction)
    pairs, from one pass over x with the `zhu_constants` of an order at
    least theirs.

    u = pi^2 - 4x^2, each power u^k is computed once and the prefix sums
    S_m = sum_(k<=m) alpha_k u^k are shared: lower(n) = S_(n+1) and
    upper(n) = S_n + (1 - head_n) u^(n+1) / pi^(2n+2), with the operations
    of an order-n bound evaluated on its own, in the same order.
    """
    av, pi2, heads, tops = constants
    u = pi2 - 4 * x**2
    pows, sums, acc = [], [], mp.mpf(0)
    for k in range(max(n for n, _ in columns) + 2):
        pows.append(u**k)
        acc += av[k] * pows[k]
        sums.append(acc)
    return [
        sums[n + 1] if d == "lower" else sums[n] + (1 - heads[n]) * pows[n + 1] / tops[n]
        for n, d in columns
    ]


@cache
def zhu_bound(n: int, direction: str) -> BoundFn:
    """Order-n Zhu bound for sin(x)/x in the variable u = pi^2 - 4x^2."""
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    consts = {}

    def body(x, digits):
        # the constants depend on no point: computed once per (digits,
        # working precision)
        key = (digits, mp.mp.prec)
        c = consts.get(key)
        if c is None:
            c = consts[key] = zhu_constants(n, digits)
        return zhu_values(x, c, [(n, direction)])[0]

    return BoundFn("zhu", n, direction, "sinc", body)


# -- published baseline catalog -------------------------------------------


def _real_cbrt(v):
    # cos(x) at pi/2 rounded to the working precision can be a tiny negative
    # number, where mp.cbrt returns the complex principal root
    return mp.cbrt(v) if v >= 0 else -mp.cbrt(-v)


@cache
def _formula_constants(prec: int) -> SimpleNamespace:
    """The point-free constants of the catalog and Lv formulas at `prec`
    bits, each the value of its published expression."""
    with mp.workprec(prec):
        return SimpleNamespace(
            k0=(8 * mp.pi - 24) / (mp.pi**3 - 2 * mp.pi**2),  # row 10, sharp at pi/2
            pi28=28 / mp.pi,  # row 8
            hua=128 - 16 * mp.pi**2 + 16 * mp.pi,  # row 5 upper
            pi5=mp.pi**5,  # row 5 upper
            nine_pi2=9 * mp.pi**2,  # Lv
        )


def _lv_si_body(x, digits):
    sin = mp.sin(x)
    nine_pi2 = _formula_constants(mp.mp.prec).nine_pi2
    return (2 * x + sin) / 3 - (x**3 + 3 * x * mp.cos(x) - 3 * sin) / nine_pi2


@cache
def lv_si_lower() -> BoundFn:
    """Published closed-form lower bound for the sine integral."""
    return BoundFn(
        "lv_si", 0, "lower", "si", _lv_si_body, zero_ratio=lambda d: mp.mpf(1)
    )


class CatalogPoint:
    """An mpf x and the values of it that the catalog formulas share.

    Each value is computed on first use at the working precision of that
    use, so one instance serves one x at one precision; a caller that has
    sin(x) at that precision already may pass it in.
    """

    def __init__(self, x, sin=None):
        self.x = x
        self.c = _formula_constants(mp.mp.prec)
        if sin is not None:
            self.sin = sin

    @cached_property
    def x2(self):
        return self.x**2

    @cached_property
    def x3(self):
        return self.x**3

    @cached_property
    def cos(self):
        return mp.cos(self.x)

    @cached_property
    def sin(self):
        return mp.sin(self.x)

    @cached_property
    def tan_ratio(self):  # (tan(x/2)/(x/2))^2 of row 5, 0/0 at x = 0
        return mp.tan(self.x / 2) ** 2 / (self.x / 2) ** 2


def _cusa(p):  # Cusa-Huygens, also the upper form of rows 1 and 2
    return (2 + p.cos) / 3


def _cos_ratio(p):  # (9 + 6 cos x)/(14 + cos x), shared by rows 8 and 9
    return (9 + 6 * p.cos) / (14 + p.cos)


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


def _row7_lower(p):
    p0 = _p0(mp.mp.prec)
    return mp.cos(p0 * p.x) ** (1 / p0)


# (family, order, direction, sin(x)/x formula over a CatalogPoint p, value
# at x = 0 where the formula is 0/0 there); each formula keeps the
# operation order of its transcription, so its rounding is that of the
# published form.  Row 5 (Hua) is implemented as transcribed; its x -> 0
# limit is 1.  Row 7 uses the exact p0 where the table prints it rounded
# down.
_CATALOG = (
    ("jordan", 0, "lower", lambda p: 2 / mp.pi, None),
    ("jordan", 0, "upper", lambda p: mp.mpf(1), None),
    ("cusa_huygens", 0, "upper", _cusa, None),
    ("redheffer", 0, "lower", lambda p: (mp.pi**2 - p.x2) / (mp.pi**2 + p.x2), None),
    ("table11_1", 1, "lower", lambda p: (1 + p.cos) / 2, None),
    ("table11_1", 1, "upper", _cusa, None),
    ("table11_2", 2, "lower", lambda p: _real_cbrt(p.cos), None),
    ("table11_2", 2, "upper", _cusa, None),
    ("table11_3", 3, "lower",
     lambda p: (p.cos + mp.pi / (mp.pi - 2) - 1) / (mp.pi / (mp.pi - 2)), None),
    ("table11_3", 3, "upper", lambda p: (p.cos + 2) / 3, None),
    ("table11_4", 4, "lower", lambda p: (1 - 7 * p.x2 / 60) / (1 + p.x2 / 20), None),
    ("table11_4", 4, "upper",
     lambda p: (1 - p.x2 / 7 + 11 * p.x**4 / 2520) / (1 + p.x2 / 42), None),
    ("table11_5", 5, "lower", lambda p: 2 + 23 * p.x3 * p.sin / 720 - p.tan_ratio, 1),
    ("table11_5", 5, "upper",
     lambda p: 2 + p.c.hua * p.x3 * p.sin / p.c.pi5 - p.tan_ratio, 1),
    ("table11_6", 6, "lower", lambda p: (2 / mp.pi) ** (4 * p.x2 / mp.pi**2), None),
    ("table11_6", 6, "upper", lambda p: mp.exp(-p.x2 / 6), None),
    ("table11_7", 7, "lower", _row7_lower, None),
    ("table11_7", 7, "upper", lambda p: mp.cos(p.x / 3) ** 3, None),
    ("table11_8", 8, "lower", lambda p: (p.c.pi28 + 6 * p.cos) / (14 + p.cos), None),
    ("table11_8", 8, "upper", _cos_ratio, None),
    ("table11_9", 9, "lower",
     lambda p: _cos_ratio(p) ** (mp.log(mp.pi / 2) / mp.log(mp.mpf(14) / 9)), None),
    ("table11_9", 9, "upper", _cos_ratio, None),
    ("table11_10", 10, "lower",
     lambda p: (2 + p.cos - p.c.k0 * p.x2) / (3 - p.c.k0 * p.x2), None),
    ("table11_10", 10, "upper", lambda p: (2 + p.cos - p.x2 / 10) / (3 - p.x2 / 10), None),
)


class _Published(NamedTuple):
    """Body of a catalog row: its formula, or its declared value at x = 0."""

    formula: Callable
    at_zero: Optional[int]

    def at(self, p: CatalogPoint):
        """The value at the point of `p`, read from its shared values."""
        if self.at_zero is not None and p.x == 0:
            return mp.mpf(self.at_zero)
        return self.formula(p)

    def __call__(self, x, digits):
        return self.at(CatalogPoint(x))


@cache
def baseline_catalog() -> tuple[BoundFn, ...]:
    """Published sin(x)/x bounds: the classical inequalities, the ten tabulated
    lower/upper pairs, Zhu orders 0-2 and the Lv sine-integral bound."""
    entries = [
        BoundFn(family, order, direction, "sinc", _Published(formula, at_zero))
        for family, order, direction, formula, at_zero in _CATALOG
    ]
    entries.extend(zhu_bound(n, d) for n in range(3) for d in ("lower", "upper"))
    entries.append(lv_si_lower())
    return tuple(entries)
