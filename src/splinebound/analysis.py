"""Relative-error measurement and reproduction of the published tables/figures.

Relative error convention: re(x) = 1 - approximant(x)/reference(x); the
reported bound is max |re| over a grid of equally spaced points including
both endpoints (1000 points by default).  Precision contexts auto-escalate
so that bounds near 1e-100 remain resolvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import mpmath as mp

from .bounds import (
    BoundFn,
    lv_si_lower,
    si_lower,
    si_reference,
    sine_lower,
    sine_upper,
    taylor_sine,
    zhu_bound,
)
from .numerics import DEFAULT_DIGITS, ExtReal, Poly, digits_for_bound, horner_eval
from .series import sine_series

DEFAULT_SAMPLES = 1000


@dataclass(frozen=True)
class Grid:
    """Equally spaced sample points, inclusive of both endpoints."""

    left: ExtReal
    right: ExtReal
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def digits(self) -> int:
        return max(self.left.digits, self.right.digits)

    def points(self, digits: int | None = None):
        digits = digits or self.digits
        with mp.workdps(digits + 10):
            a = mp.mpf(self.left.value)
            b = mp.mpf(self.right.value)
            step = (b - a) / (self.count - 1)
            pts = [a + i * step for i in range(self.count)]
            pts[-1] = b
            return pts


def half_pi_grid(count: int = DEFAULT_SAMPLES, digits: int = DEFAULT_DIGITS) -> Grid:
    return Grid(ExtReal(0, digits), ExtReal.pi(digits) / 2, count)


@dataclass(frozen=True)
class RelErrReport:
    """Scan result; `rounds` counts the scans made and `converged` says
    whether the last one was at a precision able to resolve its bound."""

    bound_id: str
    grid: Grid
    re_values: tuple
    re_bound: mp.mpf
    argmax: mp.mpf
    digits: int
    rounds: int
    converged: bool


# reference evaluators ------------------------------------------------------


def reference_for(target: str):
    """Reference evaluator f(x) at working digits, by target name."""
    if target == "sin":
        return lambda x, d: mp.sin(x)
    if target == "cos":
        return lambda x, d: mp.cos(x)
    if target == "sinc":
        return lambda x, d: mp.sin(x) / x if x != 0 else mp.mpf(1)
    if target == "si":
        return lambda x, d: si_reference(ExtReal(x, d)).value
    raise ValueError(f"unknown target {target!r}")


def relative_error(approx: BoundFn, reference, x: ExtReal) -> ExtReal:
    """re(x) = 1 - approx(x)/reference(x), with declared limits at x = 0."""
    digits = x.digits
    with mp.workdps(digits + 10):
        xv = mp.mpf(x.value)
        if xv == 0 and approx.target in ("sin", "si"):
            return ExtReal(1 - approx.ratio_at_zero(digits), digits)
        ref = reference(xv, digits)
        if approx.target == "cos" and abs(ref) < mp.mpf(10) ** (-digits // 2):
            # x is within rounding distance of pi/2, where bound and cosine
            # share an exact zero: use the l'Hopital limit of the ratio
            return ExtReal(1 - approx.ratio_at_half_pi(digits), digits)
        if ref == 0:
            raise ZeroDivisionError("reference vanishes with no declared limit")
        return ExtReal(1 - approx.eval_raw(xv, digits) / ref, digits)


def _scan_once(approx: BoundFn, reference, grid: Grid, digits: int):
    with mp.workdps(digits + 10):
        values = []
        best = mp.mpf(0)
        arg = mp.mpf(grid.left.value)
        for xv in grid.points(digits):
            re = relative_error(approx, reference, ExtReal(xv, digits)).value
            values.append(re)
            if abs(re) > best:
                best = abs(re)
                arg = xv
        return values, best, arg


def re_bound_scan(
    approx: BoundFn,
    reference,
    grid: Grid,
    digits: int | None = None,
    max_rounds: int = 4,
) -> RelErrReport:
    """Full relative-error report over the grid.

    The precision context is raised and the scan repeated until the measured
    bound is well above rounding noise (re_bound >> 10^-digits), for at most
    `max_rounds` scans; the report says whether that happened.
    """
    digits = digits or max(grid.digits, DEFAULT_DIGITS)
    converged = False
    for rounds in range(1, max_rounds + 1):
        values, best, arg = _scan_once(approx, reference, grid, digits)
        if best == 0:
            converged = True
            break
        needed = digits_for_bound(float(best), floor=DEFAULT_DIGITS)
        if needed <= digits:
            converged = True
            break
        digits = needed
    bound_id = f"{approx.family}:{approx.target}:{approx.direction}:{approx.order}"
    return RelErrReport(
        bound_id=bound_id,
        grid=grid,
        re_values=tuple(values),
        re_bound=best,
        argmax=arg,
        digits=digits,
        rounds=rounds,
        converged=converged,
    )


def certify_direction(
    approx: BoundFn, grid: Grid, digits: int | None = None
) -> tuple[bool, RelErrReport]:
    """Grid certification that the declared direction holds everywhere.

    Lower bounds must have re >= 0 at every point, upper bounds re <= 0
    (re = 1 - f_A/f, f > 0 on the sampled interior).  At the sharp points the
    true re is exactly 0 and the computed value is pure rounding noise, so
    sign excursions below the evaluation noise floor (10 digits above the
    working epsilon) do not count as violations.
    """
    report = re_bound_scan(approx, reference_for(approx.target), grid, digits)
    floor = mp.mpf(10) ** (-(report.digits - 10))
    if approx.direction == "lower":
        ok = all(v >= -floor for v in report.re_values)
    elif approx.direction == "upper":
        ok = all(v <= floor for v in report.re_values)
    else:
        ok = True
    return ok, report


def scale_check(f0_form: BoundFn, grid: Grid, digits: int | None = None) -> dict:
    """Confirm re in x-coordinates equals re of the t-substituted form at t = 2x/pi.

    The t-form polynomial p(pi*t/2) is built symbolically, so the two sides
    are genuinely independent evaluation paths.
    """
    if f0_form.target != "sin" or not isinstance(f0_form.body, Poly):
        raise ValueError("scale check applies to polynomial sin bounds")
    digits = digits or max(grid.digits, DEFAULT_DIGITS)
    from .numerics import PiRational, Var
    from .spline import HALF_PI

    t_poly = f0_form.body.substitute_affine(
        PiRational.zero(), HALF_PI, variable=Var.T_ON_0_1
    )
    reference = reference_for("sin")
    max_dev = mp.mpf(0)
    with mp.workdps(digits + 10):
        pi = +mp.pi
        for xv in grid.points(digits):
            re_x = relative_error(f0_form, reference, ExtReal(xv, digits)).value
            t = 2 * xv / pi
            if t == 0:
                re_t = re_x  # both use the same declared limit at 0
            else:
                re_t = 1 - horner_eval(t_poly, t, digits) / mp.sin(pi * t / 2)
            max_dev = max(max_dev, abs(re_x - re_t))
    return {
        "max_deviation": max_dev,
        "digits": digits,
        "pass": max_dev < mp.mpf(10) ** (5 - digits),
    }


# -- published table data ---------------------------------------------------

TABLE_2_1 = {
    1: 0.571,
    3: 7.52e-2,
    5: 4.52e-3,
    7: 1.57e-4,
    9: 3.54e-6,
    13: 6.63e-10,
    17: 4.35e-14,
    33: 7.07e-34,
}

TABLE_3_1 = {
    0: 0.363,
    1: 1.63e-2,
    2: 3.31e-4,
    3: 3.62e-6,
    4: 2.48e-8,
    6: 3.91e-13,
    8: 2.02e-18,
    16: 9.19e-43,
    32: 2.19e-100,
}

# rows: n -> (first-order series value, second-order series value)
TABLE_5_1 = {
    1: (1.63e-2, None),  # second-order entry not stated in the source table
    2: (2.70e-3, 3.31e-4),
    3: (1.42e-3, 3.89e-5),
    4: (9.14e-4, 2.00e-5),
    6: (1.30e-6, 3.11e-8),
    8: (7.92e-7, 3.91e-9),
    12: (1.50e-10, 2.83e-13),
    16: (9.85e-15, 9.05e-18),
    20: (2.82e-19, 1.45e-22),
}

TABLE_5_2 = {
    0: 0.363,
    1: 1.24e-2,
    2: 2.12e-4,
    3: 2.06e-6,
    4: 1.28e-8,
    8: 8.21e-19,
    12: 1.61e-30,
    16: 2.85e-43,
}


def matches_sig_figs(computed, expected, sig: int = 3) -> bool:
    """Agreement to `sig` significant figures: |c - e| <= 10^(1-sig) * |e|."""
    if expected == 0:
        return computed == 0
    with mp.workdps(30):
        return abs(mp.mpf(computed) - mp.mpf(expected)) <= mp.mpf(10) ** (1 - sig) * abs(
            mp.mpf(expected)
        )


def _sin_column(xs, digits: int) -> list:
    """sin(x) at each x, computed once and shared by every curve of a figure."""
    sin = reference_for("sin")
    with mp.workdps(digits + 10):
        return [sin(xv, digits) for xv in xs]


def _series_column(variant: str, n: int, xs, sins, digits: int) -> list:
    """|1 - series(x)/sin(x)| at each x, 0 at x = 0 where both series are
    exact in the limit; the exact series is built once for the column."""
    s = sine_series(variant, n)
    with mp.workdps(digits + 10):
        return [
            abs(1 - s.eval(xv, digits, n) / sv) if xv != 0 else mp.mpf(0)
            for xv, sv in zip(xs, sins)
        ]


def _series_re_bound(variant: str, n: int, expected: float, samples: int) -> mp.mpf:
    digits = digits_for_bound(expected)
    xs = half_pi_grid(samples, digits).points(digits)
    return max(_series_column(variant, n, xs, _sin_column(xs, digits), digits))


def reproduce_table(table_id: str, samples: int = DEFAULT_SAMPLES) -> list[dict]:
    """Recompute a published table and compare at 3 significant figures.

    Mismatches are reported via the per-row 'pass' flag, never raised.
    """
    rows: list[dict] = []
    if table_id == "2.1":
        for order, expected in TABLE_2_1.items():
            digits = digits_for_bound(expected)
            b = taylor_sine(order)
            rep = re_bound_scan(
                b, reference_for("sin"), half_pi_grid(samples, digits), digits
            )
            rows.append(
                {
                    "table": table_id,
                    "order": order,
                    "direction": b.direction,
                    "computed": rep.re_bound,
                    "expected": expected,
                    "pass": matches_sig_figs(rep.re_bound, expected),
                }
            )
    elif table_id == "3.1":
        for order, expected in TABLE_3_1.items():
            digits = digits_for_bound(expected)
            rep = re_bound_scan(
                sine_lower(order),
                reference_for("sin"),
                half_pi_grid(samples, digits),
                digits,
            )
            rows.append(
                {
                    "table": table_id,
                    "order": order,
                    "computed": rep.re_bound,
                    "expected": expected,
                    "pass": matches_sig_figs(rep.re_bound, expected),
                }
            )
    elif table_id == "5.1":
        for n, (first, second) in TABLE_5_1.items():
            row = {"table": table_id, "terms": n}
            b1 = _series_re_bound("order1", n, first, samples)
            row["computed_first"] = b1
            row["expected_first"] = first
            ok = matches_sig_figs(b1, first)
            if second is None:
                row["computed_second"] = None
                row["expected_second"] = "not stated in source table"
            else:
                b2 = _series_re_bound("order2", n, second, samples)
                row["computed_second"] = b2
                row["expected_second"] = second
                ok = ok and matches_sig_figs(b2, second)
            row["pass"] = ok
            rows.append(row)
    elif table_id == "5.2":
        for order, expected in TABLE_5_2.items():
            digits = digits_for_bound(expected)
            rep = re_bound_scan(
                si_lower(order),
                reference_for("si"),
                half_pi_grid(samples, digits),
                digits,
            )
            rows.append(
                {
                    "table": table_id,
                    "order": order,
                    "computed": rep.re_bound,
                    "expected": expected,
                    "pass": matches_sig_figs(rep.re_bound, expected),
                }
            )
    else:
        raise ValueError(f"unknown table id {table_id!r}")
    return rows


# -- figure data ------------------------------------------------------------


def _curve_re(bound: BoundFn, grid: Grid, digits: int) -> list:
    ref = reference_for(bound.target)
    return [
        relative_error(bound, ref, ExtReal(xv, digits)).value
        for xv in grid.points(digits)
    ]


def _curve_err(poly: Poly, xs, sins, digits: int, sign: int = 1) -> list:
    """sign * (sin - poly) pointwise, for sin-target polynomials."""
    with mp.workdps(digits + 10):
        return [
            sign * (sv - horner_eval(poly, xv, digits)) for xv, sv in zip(xs, sins)
        ]


def figure_data(figure_id: str, grid: Grid | None = None) -> dict:
    """Columnar data behind each published figure (abscissae plus one column
    per curve); rendering is left to downstream tools."""
    from .bounds import baseline_catalog

    grid = grid or half_pi_grid(DEFAULT_SAMPLES, DEFAULT_DIGITS)
    digits = grid.digits
    xs = grid.points(digits)
    cols: dict[str, list] = {"x": xs}

    if figure_id == "1":
        catalog = {(b.family, b.direction): b for b in baseline_catalog()}
        for row in (1, 2, 4, 5, 8, 10):
            for direction in ("lower", "upper"):
                b = catalog[(f"table11_{row}", direction)]
                cols[f"table11_{row}_{direction}"] = [
                    abs(v) for v in _curve_re(b, grid, digits)
                ]
    elif figure_id == "2":
        for n in range(3):
            for direction in ("lower", "upper"):
                cols[f"zhu_{n}_{direction}"] = [
                    abs(v) for v in _curve_re(zhu_bound(n, direction), grid, digits)
                ]
    elif figure_id == "3":
        for n in (1, 2, 3, 4):
            cols[f"spline_{n}"] = [abs(v) for v in _curve_re(sine_lower(n), grid, digits)]
        for k in (1, 3, 5, 7, 9):
            cols[f"taylor_{k}"] = [abs(v) for v in _curve_re(taylor_sine(k), grid, digits)]
    elif figure_id == "4":
        sins = _sin_column(xs, digits)
        for n in (1, 2, 3, 4):
            cols[f"err_spline_{n}"] = _curve_err(sine_lower(n).body, xs, sins, digits)
    elif figure_id == "5":
        sins = _sin_column(xs, digits)
        for n in range(1, 10):
            cols[f"series1_{n}"] = _series_column("order1", n, xs, sins, digits)
    elif figure_id == "6":
        sins = _sin_column(xs, digits)
        for n in range(2, 10):
            cols[f"series2_{n}"] = _series_column("order2", n, xs, sins, digits)
    elif figure_id == "7":
        sins = _sin_column(xs, digits)
        for n in (2, 3, 4):
            cols[f"err_upper_{n}"] = _curve_err(
                sine_upper(n).body, xs, sins, digits, sign=-1
            )
    elif figure_id == "8":
        for n in (1, 2, 3, 4):
            cols[f"si_spline_{n}"] = [
                abs(v) for v in _curve_re(si_lower(n), grid, digits)
            ]
        cols["lv"] = [abs(v) for v in _curve_re(lv_si_lower(), grid, digits)]
    else:
        raise ValueError(f"unknown figure id {figure_id!r}")
    return {"figure": figure_id, "samples": grid.count, "digits": digits, "columns": cols}
