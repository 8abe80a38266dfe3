"""Error-series coefficients for the first and second order sine splines.

The error sin(pi*t/2) - f_n(pi*t/2), n in {1, 2}, can be written as
sum_k c_k t^k (1-t)^p(k) with positive, strictly decreasing coefficients.
The coefficients follow four-branch recurrences (one branch per residue of
k mod 4); the exponent p(k) alternates in pairs between two values.
Re-arranged, the same data gives rapidly converging series for sin(x).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import mpf_add, mpf_mul, mpf_pow_int, round_nearest

from .numerics import PiRational, Poly, Var

# exponent patterns, by residue of k mod 4
_ORDER1_START = 2
_ORDER2_START = 3


def _pair_exponent(order: int, k: int) -> int:
    """Exponent of (1-t) in term k of an order-1 or order-2 series, error
    series and sine series alike: it alternates in pairs of k."""
    return order + 1 if (k - order) % 4 in (0, 1) else order + 2


def exponent_rule(spline_order: int, k: int) -> int:
    """Exponent p(k) of the (1-t) factor in the error series term k.

    Order 1: p=2 for k in {2,5,6,9,10,...}, p=3 for k in {3,4,7,8,...}.
    Order 2: p=3 for k in {3,6,7,10,11,...}, p=4 for k in {4,5,8,9,...}.
    """
    if spline_order not in (1, 2):
        raise ValueError("spline_order must be 1 or 2")
    start = _ORDER1_START if spline_order == 1 else _ORDER2_START
    if k < start:
        raise ValueError(f"order-{spline_order} series starts at k={start}")
    return _pair_exponent(spline_order, k)


def _pi_power_term(k: int) -> PiRational:
    # pi^k / (2^k k!)
    return PiRational.pi_term(k, 1, 2**k * factorial(k))


def order1_coefficients(K: int) -> "ErrorSeries":
    """Exact c_0..c_K for the first-order error series, via the recurrence."""
    if K < 2:
        raise ValueError("K must be >= 2")
    c = [PiRational.zero()] * (K + 1)
    c[0] = PiRational.from_rational(-1)
    c[1] = 2 * c[0] + PiRational.pi_term(1, 1, 2)
    c[2] = 2 * c[1] - c[0]
    if K >= 3:
        c[3] = c[2] + c[1] - c[0] - _pi_power_term(3)
    for k in range(4, K + 1):
        r = k % 4
        if r == 0:
            c[k] = 3 * c[k - 1] - c[k - 2]
        elif r == 1:
            c[k] = 2 * c[k - 1] - c[k - 3] + _pi_power_term(k)
        elif r == 2:
            c[k] = 2 * c[k - 1] - 3 * c[k - 2] + c[k - 3]
        else:
            c[k] = 3 * c[k - 2] - 4 * c[k - 3] - c[k - 4] + c[k - 5] - _pi_power_term(k)
    return ErrorSeries(spline_order=1, coeffs=tuple(c), start_index=_ORDER1_START)


def order2_coefficients(K: int) -> "ErrorSeries":
    """Exact c_0..c_K for the second-order error series, via the recurrence."""
    if K < 3:
        raise ValueError("K must be >= 3")
    c = [PiRational.zero()] * (K + 1)
    c[0] = PiRational.from_rational(-1)
    c[1] = 2 * c[0] + PiRational.pi_term(1, 1, 2)
    c[2] = 2 * c[1] - c[0] + _pi_power_term(2)
    c[3] = c[2] + 4 * c[1] - c[0] - _pi_power_term(3)
    if K >= 4:
        c[4] = 3 * c[3] - 2 * c[2] - 4 * c[1] - c[0]
    if K >= 5:
        c[5] = 3 * c[4] - c[2] - 3 * c[1] + _pi_power_term(5)
    for k in range(6, K + 1):
        r = k % 4
        if r == 2:
            c[k] = 4 * c[k - 1] - 6 * c[k - 2] + c[k - 3]
        elif r == 3:
            c[k] = 2 * c[k - 1] - 2 * c[k - 2] - 2 * c[k - 3] + c[k - 4] - _pi_power_term(k)
        elif r == 0:
            c[k] = 3 * c[k - 1] - 3 * c[k - 2] + 4 * c[k - 3] - c[k - 4]
        else:
            c[k] = 4 * c[k - 1] - 3 * c[k - 2] + c[k - 3] - c[k - 4] + _pi_power_term(k)
    return ErrorSeries(spline_order=2, coeffs=tuple(c), start_index=_ORDER2_START)


class ErrorSeries(NamedTuple):
    """Coefficients c_k and exponent rule for eps_n(t) = sum c_k t^k (1-t)^p(k)."""

    spline_order: int
    coeffs: tuple
    start_index: int

    def exponent(self, k: int) -> int:
        return exponent_rule(self.spline_order, k)

    def to_monomials(self, max_power: int) -> Poly:
        """Re-expand the structural terms into monomials of t, exactly.

        Only terms with k <= max_power can contribute to powers <= max_power,
        so the leading coefficients returned are final.
        """
        one_minus_t = Poly(
            [PiRational.one(), PiRational.from_rational(-1)], Var.T_ON_0_1
        )
        total = Poly([], Var.T_ON_0_1)
        for k in range(self.start_index, min(len(self.coeffs) - 1, max_power) + 1):
            term = (one_minus_t ** self.exponent(k)) * Poly(
                [PiRational.zero()] * k + [self.coeffs[k]], Var.T_ON_0_1
            )
            total = total + term
        return Poly(
            [total.coeff(m) for m in range(max_power + 1)], Var.T_ON_0_1
        )


def _read_terms(series, ks, digits: int) -> list:
    """(k, c_k as an _mpf_ read at `digits` digits, p(k)) for each k of ks:
    the terms of `series` that `_term_sums` adds."""
    held = len(series.coeffs) - 1
    if ks and ks[-1] > held:
        raise ValueError(f"series holds coefficients to k={held}, need {ks[-1]}")
    return [(k, series.coeffs[k].to_ext_real(digits)._mpf_, series.exponent(k)) for k in ks]


def _term_sums(terms, acc, t, u):
    """Yield (k, acc + the terms so far) after each term c_k t^k u^p of
    `terms`, the (k, c_k, p) triples of `_read_terms`.

    Runs on raw _mpf_ values at the caller's working precision with the
    calls the mpf operators make, each rounded to nearest: t^k and u^p by
    mpf_pow_int, c_k t^k and its product with u^p by mpf_mul, then the sum
    by mpf_add.  Each term keeps t^k and u^p as powers, so every sum rounds
    as a sum evaluated on its own would; u^p is computed once per exponent.
    """
    prec = mp.mp.prec
    tm, um, a = t._mpf_, u._mpf_, acc._mpf_
    upow = {}
    for k, c, p in terms:
        up = upow.get(p)
        if up is None:
            up = upow[p] = mpf_pow_int(um, p, prec, round_nearest)
        term = mpf_mul(c, mpf_pow_int(tm, k, prec, round_nearest), prec, round_nearest)
        a = mpf_add(a, mpf_mul(term, up, prec, round_nearest), prec, round_nearest)
        yield k, mp.make_mpf(a)


def eval_error_series(series: ErrorSeries, t, digits: int, terms: int) -> mp.mpf:
    """Partial sum of `terms` structural terms starting at the series start,
    at mpf t computed at `digits` working digits.

    Exactly 0 at t = 0 and t = 1.
    """
    with mp.workdps(digits + 10):
        tv = mp.mpf(t)
        if tv < 0 or tv > 1:
            raise ValueError("t must lie in [0, 1]")
        if tv == 0 or tv == 1:
            return mp.mpf(0)
        ks = range(series.start_index, series.start_index + terms)
        acc = mp.mpf(0)
        for _, acc in _term_sums(_read_terms(series, ks, digits), acc, tv, 1 - tv):
            pass
        return acc


# -- sine series derived from the error series -----------------------------

# Head coefficient for the order-1 series term k=1: 2(-1 + pi/4), equal in
# value to the order-1 seed -2 + pi/2.
ORDER1_SERIES_C1 = 2 * (PiRational.from_rational(-1) + PiRational.pi_term(1, 1, 4))

# Order-2 series replaces coefficients k=0..2 with its own closed forms.
ORDER2_SERIES_HEAD = (
    PiRational.from_rational(-1) + PiRational.pi_term(2, 1, 8),  # c_0
    PiRational.from_rational(-4) + PiRational.pi_term(1, 1, 2) + PiRational.pi_term(2, 1, 4),  # c_1
    PiRational.from_rational(-10) + PiRational.pi_term(1, 2) + PiRational.pi_term(2, 3, 8),  # c_2
)


class SineSeries(NamedTuple):
    """Convergent series for sin(x) on [0, pi/2] built from an error series.

    variant "order1": sin(x) = 2x/pi + (2x/pi)(1 - 2x/pi)
        + sum_{k>=1} c_k t^k (1-t)^p,  t = 2x/pi.
    variant "order2": sin(x) = 1 - (pi^2/8)(1-t)^2
        + sum_{k>=0} c_k t^k (1-t)^p, with its own c_0..c_2.

    `coeffs` holds the series' own c_k: the error series' coefficients with
    the closed-form head (ORDER1_SERIES_C1 or ORDER2_SERIES_HEAD) in place.
    """

    variant: str
    coeffs: tuple

    def exponent(self, k: int) -> int:
        return _pair_exponent(1 if self.variant == "order1" else 2, k)

    @property
    def first_term(self) -> int:
        """Index of the first series term after the head."""
        return 1 if self.variant == "order1" else 0

    def read_terms(self, digits: int, n_terms: int) -> list:
        """The terms k = first_term..n_terms for `sums_at`, each coefficient
        read once at `digits` digits."""
        return _read_terms(self, range(self.first_term, n_terms + 1), digits)

    def sums_at(self, x, terms, pi=None):
        """Yield (n, s_n(x)) at mpf x in [0, pi/2] for n from one below
        the first term index to the last of `terms` (from `read_terms`),
        where s_n is the head plus the series terms k <= n (for the lowest
        n, the head alone).  Runs at the caller's working precision; `pi`
        is mp.pi read at that precision, which a caller evaluating a whole
        column reads once for all its points."""
        if pi is None:
            pi = +mp.pi
        if x < 0 or x > pi / 2:
            raise ValueError("x must lie in [0, pi/2]")
        t = 2 * x / pi
        u = 1 - t
        if self.variant == "order1":
            acc = t + t * u
        else:
            acc = 1 - pi**2 / 8 * u**2
        yield self.first_term - 1, acc
        yield from _term_sums(terms, acc, t, u)


# Table 5.1 and figures 5 and 6 ask for 20 (variant, n) pairs.  A series to
# n = 40 holds about 60 KB with its conversions at two precisions, so the
# memo stays under 2 MB.
@lru_cache(maxsize=32)
def sine_series(variant: str, n_terms: int) -> SineSeries:
    """The series of `variant` with its coefficients to k = n_terms (at
    least its head), built once per (variant, n_terms) and shared, so each
    coefficient keeps its conversions between calls."""
    if variant == "order1":
        c = order1_coefficients(max(n_terms, 2)).coeffs
        return SineSeries("order1", c[:1] + (ORDER1_SERIES_C1,) + c[2:])
    if variant == "order2":
        c = order2_coefficients(max(n_terms, 3)).coeffs
        return SineSeries("order2", ORDER2_SERIES_HEAD + c[3:])
    raise ValueError("variant must be 'order1' or 'order2'")


def sine_series_eval(variant: str, x, digits: int, n_terms: int) -> mp.mpf:
    """Head terms plus series terms k <= n_terms at mpf x, computed at
    `digits` working digits: the last partial sum of `SineSeries.sums_at`.

    The term count convention matches the published tables: n counts the
    upper summation index (k = 1..n for order 1, k = 0..n for order 2).
    """
    s = sine_series(variant, n_terms)
    with mp.workdps(digits + 10):
        for _, acc in s.sums_at(x, s.read_terms(digits, n_terms)):
            pass
        return acc
