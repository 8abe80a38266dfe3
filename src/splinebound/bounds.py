"""Directional bound functions for sin, sin(x)/x, cos and Si on [0, pi/2].

Spline lower bounds, difference-constructed upper bounds (2*better - worse),
reflection to cosine, term-wise integration to the sine integral, and a
catalog of published baseline inequalities used for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Optional, Union

import mpmath as mp

from .numerics import ExtReal, PiRational, Poly, Var, horner_eval
from .series import order1_coefficients, order2_coefficients
from .spline import reflect_half_pi, sine_spline

Body = Union[Poly, Callable[[mp.mpf, int], mp.mpf]]


@dataclass(frozen=True)
class BoundFn:
    """Evaluable bound descriptor.

    direction 'lower' means body(x) <= target(x) on [0, pi/2] (strict inside,
    equal at declared sharp points); 'upper' the reverse; 'approximation'
    claims no direction.
    """

    family: str
    order: int
    direction: str
    target: str  # sin | sinc | cos | si
    body: Body
    # lim_{x->0} body(x)/target(x); None means derive it (poly bodies) or
    # that the ratio is regular at 0.
    zero_ratio: Optional[Callable[[int], mp.mpf]] = field(default=None, compare=False)

    def eval_raw(self, x, digits: int):
        """Body value at mpf x, computed at `digits` working digits."""
        if isinstance(self.body, Poly):
            return horner_eval(self.body, x, digits)
        with mp.workdps(digits + 10):
            return self.body(mp.mpf(x), digits)

    def eval(self, x: ExtReal) -> ExtReal:
        return ExtReal(self.eval_raw(x.value, x.digits), x.digits)

    def ratio_at_zero(self, digits: int):
        """lim body(x)/target(x) as x -> 0+, for removable singularities."""
        if self.zero_ratio is not None:
            return self.zero_ratio(digits)
        if self.target in ("sin", "si"):
            # target ~ x at 0; polynomial bodies here have zero constant term
            return self.body.coeff(1).to_ext_real(digits).value
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
            return -horner_eval(self.body.derivative(), mp.pi / 2, digits)

    def as_sinc(self) -> "BoundFn":
        """Expose a sin-target polynomial bound in sin(x)/x form."""
        if self.target != "sin" or not isinstance(self.body, Poly):
            raise ValueError("as_sinc applies to polynomial sin bounds")

        def body(x, digits):
            if x == 0:
                return self.ratio_at_zero(digits)
            with mp.workdps(digits + 10):
                return self.eval_raw(x, digits) / x

        return BoundFn(self.family, self.order, self.direction, "sinc", body)

    def to_json_dict(self, digits: int = 50) -> dict:
        out = {
            "family": self.family,
            "order": self.order,
            "direction": self.direction,
            "target": self.target,
        }
        if isinstance(self.body, Poly):
            out["variable"] = self.body.variable.value
            out["coefficients_exact"] = [
                c.to_json_dict() if isinstance(c, PiRational) else None
                for c in self.body.coefficients
            ]
            out["coefficients_decimal"] = [
                c.to_ext_real(digits).to_decimal_string(digits)
                for c in self.body.coefficients
            ]
        return out


# -- spline bounds ---------------------------------------------------------


def sine_lower(n: int) -> BoundFn:
    """n-th order spline approximant as a lower bound, sharp at 0 and pi/2."""
    return BoundFn("spline", n, "lower", "sin", sine_spline(n).poly)


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
    all_pos = all(m.to_ext_real(digits).value > 0 for m in margins)
    return SufficiencyCertificate(K=K, margins=margins, all_positive=all_pos)


def reflect_to_cos(b: BoundFn) -> BoundFn:
    """Map a sin bound to the cos bound obtained by the x -> pi/2 - y substitution."""
    if b.target != "sin" or not isinstance(b.body, Poly):
        raise ValueError("reflection applies to polynomial sin bounds")
    return BoundFn(b.family, b.order, b.direction, "cos", reflect_half_pi(b.body))


def si_lower(n: int) -> BoundFn:
    """Lower bound for Si(x): term-wise integral of the sine spline over lambda."""
    from .numerics import integrate_over_lambda

    return BoundFn("spline", n, "lower", "si", integrate_over_lambda(sine_spline(n).poly))


def si_reference(x: ExtReal, digits: int | None = None) -> ExtReal:
    """Si(x) by its alternating power series, correct to the requested digits.

    Truncated when the next term drops below 10^(-digits-5); the alternating
    remainder bound then guarantees the stated accuracy.  Each term's
    magnitude x^(2k+1)/((2k+1)(2k+1)!) is computed once and added with sign
    (-1)^k; rounding to nearest is sign-symmetric, so this is the same sum
    as rounding each signed term.
    """
    digits = digits or x.digits
    with mp.workdps(digits + 15):
        xv = mp.mpf(x.value)
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
        return ExtReal(total, digits)


# -- Taylor reference ------------------------------------------------------


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


def zhu_bound(n: int, direction: str) -> BoundFn:
    """Order-n Zhu bound for sin(x)/x in the variable u = pi^2 - 4x^2."""
    alpha = zhu_alpha(n + 1)

    def body(x, digits):
        with mp.workdps(digits + 10):
            pi = mp.pi
            u = pi**2 - 4 * mp.mpf(x) ** 2
            av = [a.to_ext_real(digits).value for a in alpha]
            acc = mp.mpf(0)
            for k in range(n + 1):
                acc += av[k] * u**k
            if direction == "lower":
                acc += av[n + 1] * u ** (n + 1)
            else:
                head = sum(av[k] * pi ** (2 * k) for k in range(n + 1))
                acc += (1 - head) * u ** (n + 1) / pi ** (2 * n + 2)
            return acc

    return BoundFn("zhu", n, direction, "sinc", body)


# -- published baseline catalog -------------------------------------------


def _mk(fn, at_zero=None):
    def body(x, digits):
        with mp.workdps(digits + 10):
            x = mp.mpf(x)
            if x == 0 and at_zero is not None:
                return mp.mpf(at_zero)
            return fn(x)

    return body


def _lv_si_body(x, digits):
    with mp.workdps(digits + 10):
        x = mp.mpf(x)
        return (2 * x + mp.sin(x)) / 3 - (
            x**3 + 3 * x * mp.cos(x) - 3 * mp.sin(x)
        ) / (9 * mp.pi**2)


def lv_si_lower() -> BoundFn:
    """Published closed-form lower bound for the sine integral."""
    return BoundFn(
        "lv_si", 0, "lower", "si", _lv_si_body, zero_ratio=lambda d: mp.mpf(1)
    )


def baseline_catalog() -> list[BoundFn]:
    """Published sin(x)/x bounds: the classical inequalities, the ten tabulated
    lower/upper pairs, Zhu orders 0-2 and the Lv sine-integral bound."""
    cusa = _mk(lambda x: (2 + mp.cos(x)) / 3)
    entries: list[BoundFn] = [
        BoundFn("jordan", 0, "lower", "sinc", _mk(lambda x: 2 / mp.pi)),
        BoundFn("jordan", 0, "upper", "sinc", _mk(lambda x: mp.mpf(1))),
        BoundFn("cusa_huygens", 0, "upper", "sinc", cusa),
        BoundFn(
            "redheffer",
            0,
            "lower",
            "sinc",
            _mk(lambda x: (mp.pi**2 - x**2) / (mp.pi**2 + x**2)),
        ),
        # Table 1.1 rows
        BoundFn("table11_1", 1, "lower", "sinc", _mk(lambda x: (1 + mp.cos(x)) / 2)),
        BoundFn("table11_1", 1, "upper", "sinc", cusa),
        BoundFn("table11_2", 2, "lower", "sinc", _mk(lambda x: mp.cbrt(mp.cos(x)))),
        BoundFn("table11_2", 2, "upper", "sinc", cusa),
        BoundFn(
            "table11_3",
            3,
            "lower",
            "sinc",
            _mk(lambda x: (mp.cos(x) + mp.pi / (mp.pi - 2) - 1) / (mp.pi / (mp.pi - 2))),
        ),
        BoundFn("table11_3", 3, "upper", "sinc", _mk(lambda x: (mp.cos(x) + 2) / 3)),
        BoundFn(
            "table11_4",
            4,
            "lower",
            "sinc",
            _mk(lambda x: (1 - 7 * x**2 / 60) / (1 + x**2 / 20)),
        ),
        BoundFn(
            "table11_4",
            4,
            "upper",
            "sinc",
            _mk(lambda x: (1 - x**2 / 7 + 11 * x**4 / 2520) / (1 + x**2 / 42)),
        ),
        # row 5 (Hua): implemented as transcribed; x -> 0 limit is 1
        BoundFn(
            "table11_5",
            5,
            "lower",
            "sinc",
            _mk(
                lambda x: 2
                + 23 * x**3 * mp.sin(x) / 720
                - mp.tan(x / 2) ** 2 / (x / 2) ** 2,
                at_zero=1,
            ),
        ),
        BoundFn(
            "table11_5",
            5,
            "upper",
            "sinc",
            _mk(
                lambda x: 2
                + (128 - 16 * mp.pi**2 + 16 * mp.pi) * x**3 * mp.sin(x) / mp.pi**5
                - mp.tan(x / 2) ** 2 / (x / 2) ** 2,
                at_zero=1,
            ),
        ),
        BoundFn(
            "table11_6",
            6,
            "lower",
            "sinc",
            _mk(lambda x: (2 / mp.pi) ** (4 * x**2 / mp.pi**2)),
        ),
        BoundFn("table11_6", 6, "upper", "sinc", _mk(lambda x: mp.exp(-(x**2) / 6))),
        BoundFn(
            "table11_7",
            7,
            "lower",
            "sinc",
            _mk(lambda x: mp.cos(mp.mpf("0.3473") * x) ** (1 / mp.mpf("0.3473"))),
        ),
        BoundFn("table11_7", 7, "upper", "sinc", _mk(lambda x: mp.cos(x / 3) ** 3)),
        BoundFn(
            "table11_8",
            8,
            "lower",
            "sinc",
            _mk(lambda x: (28 / mp.pi + 6 * mp.cos(x)) / (14 + mp.cos(x))),
        ),
        BoundFn(
            "table11_8",
            8,
            "upper",
            "sinc",
            _mk(lambda x: (9 + 6 * mp.cos(x)) / (14 + mp.cos(x))),
        ),
        BoundFn(
            "table11_9",
            9,
            "lower",
            "sinc",
            _mk(
                lambda x: ((9 + 6 * mp.cos(x)) / (14 + mp.cos(x)))
                ** (mp.log(mp.pi / 2) / mp.log(mp.mpf(14) / 9))
            ),
        ),
        BoundFn(
            "table11_9",
            9,
            "upper",
            "sinc",
            _mk(lambda x: (9 + 6 * mp.cos(x)) / (14 + mp.cos(x))),
        ),
        BoundFn(
            "table11_10",
            10,
            "lower",
            "sinc",
            # k0 = (8 pi - 24)/(pi^3 - 2 pi^2) makes the form sharp at pi/2
            _mk(
                lambda x: (
                    2 + mp.cos(x) - (8 * mp.pi - 24) / (mp.pi**3 - 2 * mp.pi**2) * x**2
                )
                / (3 - (8 * mp.pi - 24) / (mp.pi**3 - 2 * mp.pi**2) * x**2)
            ),
        ),
        BoundFn(
            "table11_10",
            10,
            "upper",
            "sinc",
            _mk(lambda x: (2 + mp.cos(x) - x**2 / 10) / (3 - x**2 / 10)),
        ),
    ]
    entries.extend(zhu_bound(n, d) for n in range(3) for d in ("lower", "upper"))
    entries.append(lv_si_lower())
    return entries
