"""Relative-error measurement and reproduction of the published tables/figures.

Relative error convention: re(x) = 1 - approximant(x)/reference(x); the
reported bound is max |re| over a grid of equally spaced points including
both endpoints (1000 points by default).  Precision contexts auto-escalate
so that bounds near 1e-100 remain resolvable.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fone, mpf_abs, mpf_div, mpf_sub, round_nearest

from .bounds import (
    BoundFn,
    CatalogPoint,
    baseline_catalog,
    lv_si_lower,
    si_lower,
    si_reference,
    sine_lower,
    sine_upper,
    taylor_sine,
    zhu_constants,
    zhu_values,
)
from .numerics import DEFAULT_DIGITS, Poly, digits_for_bound, horner_values
from .series import sine_series

DEFAULT_SAMPLES = 1000


class _GridFields(NamedTuple):
    left: mp.mpf
    right: mp.mpf
    count: int
    digits: int


class Grid(_GridFields):
    """Equally spaced sample points, inclusive of both endpoints, with the
    precision `digits` the endpoints were computed for.

    Equal and hashed by its four fields: figure and table calls key their
    shared points by the grid.
    """

    __slots__ = ()

    def __new__(cls, left: mp.mpf, right: mp.mpf, count: int, digits: int):
        if count < 2:
            raise ValueError("grid needs at least 2 points")
        return super().__new__(cls, left, right, count, digits)

    def points(self, digits: int | None = None):
        digits = digits or self.digits
        with mp.workdps(digits + 10):
            a = mp.mpf(self.left)
            b = mp.mpf(self.right)
            step = (b - a) / (self.count - 1)
            pts = [a + i * step for i in range(self.count)]
            pts[-1] = b
            return pts


def half_pi_grid(count: int = DEFAULT_SAMPLES, digits: int = DEFAULT_DIGITS) -> Grid:
    with mp.workdps(digits + 10):
        return Grid(mp.mpf(0), mp.pi / 2, count, digits)


class RelErrReport(NamedTuple):
    """Scan result; `rounds` counts the scans made, `digits` is the precision
    of the last one (the one `re_values` come from) and `converged` says
    whether that precision was able to resolve its bound."""

    bound_id: str
    grid: Grid
    re_values: tuple
    re_bound: mp.mpf
    argmax: mp.mpf
    digits: int
    rounds: int
    converged: bool


# reference evaluators ------------------------------------------------------


# One certify pass over the Si bounds asks for about 1,000 distinct points;
# an entry costs about 640 B, so the memo stays under 3 MB.
@lru_cache(maxsize=4096)
def _si_value(x, digits: int) -> mp.mpf:
    """Si(x) to `digits` digits, summed once per (x, digits) and shared by
    every bound, table and figure that asks for it.

    Keyed by the mpf value of x; the series sets its own working precision,
    so the value depends on nothing else.
    """
    return si_reference(x, digits)


def _sin(x, digits: int) -> mp.mpf:
    return mp.sin(x)


def _sinc_from(sin):
    """sin(x)/x from the sin reference `sin`, 1 at x = 0."""
    return lambda x, d: sin(x, d) / x if x != 0 else mp.mpf(1)


def reference_for(target: str):
    """Reference evaluator f(x) at working digits, by target name.

    sin, cos and sinc are evaluated at the caller's working precision; the
    Si series is costlier, and its values are memoised.
    """
    if target == "sin":
        return _sin
    if target == "cos":
        return lambda x, d: mp.cos(x)
    if target == "sinc":
        return _sinc_from(_sin)
    if target == "si":
        return _si_value
    raise ValueError(f"unknown target {target!r}")


def _call_references():
    """reference_for for the curves or rows of one figure or table call.

    sin(x) is computed once per (x, digits) and kept only as long as the
    returned lookup, and the sinc reference divides that value by x.  Every
    reference is called at mp.workdps(digits + 10), so a kept value is the
    one a fresh call would give.
    """
    sin = reference_for("sin")
    sines = {}

    def shared_sin(x, digits):
        key = (x._mpf_, digits)
        value = sines.get(key)
        if value is None:
            value = sines[key] = sin(x, digits)
        return value

    shared = {"sin": shared_sin, "sinc": _sinc_from(shared_sin)}
    return lambda target: shared.get(target) or reference_for(target)


def relative_errors(approx: BoundFn, reference, xs, digits: int) -> list:
    """re(x) = 1 - approx(x)/reference(x) at each mpf x of `xs`, computed at
    `digits` working digits in one precision context, with declared limits
    at x = 0.  Each value takes the two roundings of the mpf operators:
    the quotient, then the difference, each to nearest at the working
    precision."""
    with mp.workdps(digits + 10):
        prec = mp.mp.prec
        # a cos reference below this is within rounding distance of pi/2
        near_half_pi = mp.mpf(10) ** (-digits // 2) if approx.target == "cos" else None
        out = []
        at, body_xs, refs = [], [], []
        for xv in xs:
            xv = mp.mpf(xv)
            if xv == 0 and approx.target in ("sin", "si"):
                out.append(1 - approx.ratio_at_zero(digits))
                continue
            ref = reference(xv, digits)
            if near_half_pi is not None and abs(ref) < near_half_pi:
                # bound and cosine share an exact zero at pi/2: use the
                # l'Hopital limit of the ratio
                out.append(1 - approx.ratio_at_half_pi(digits))
                continue
            if ref == 0:
                raise ZeroDivisionError("reference vanishes with no declared limit")
            at.append(len(out))
            out.append(None)
            body_xs.append(xv)
            refs.append(ref._mpf_)
        values = approx.eval_values(body_xs, digits)
        for i, a, r in zip(at, values, refs):
            out[i] = mp.make_mpf(_re_raw(a._mpf_, r, prec))
        return out


def _re_raw(a, r, prec: int) -> tuple:
    """1 - a/r as an _mpf_ value, for raw _mpf_ values a and r, with the
    roundings of the mpf operators at `prec` bits: the quotient, then the
    difference, each to nearest."""
    return mpf_sub(fone, mpf_div(a, r, prec, round_nearest), prec, round_nearest)


def relative_error(approx: BoundFn, reference, x, digits: int) -> mp.mpf:
    """re at one mpf x: `relative_errors` of the column [x]."""
    return relative_errors(approx, reference, [x], digits)[0]


def _scan_once(approx: BoundFn, reference, grid: Grid, xs, digits: int):
    with mp.workdps(digits + 10):
        values = relative_errors(approx, reference, xs, digits)
        best = mp.mpf(0)
        arg = mp.mpf(grid.left)
        for xv, re in zip(xs, values):
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
    points=None,
) -> RelErrReport:
    """Full relative-error report over the grid.

    The precision context is raised and the scan repeated until the measured
    bound is well above rounding noise (re_bound >> 10^-digits), for at most
    `max_rounds` scans; the report says whether that happened.  Each scan
    reads the grid's points at its precision from points(digits),
    grid.points unless the caller shares point sets between scans.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    digits = digits or max(grid.digits, DEFAULT_DIGITS)
    points = points or grid.points
    for rounds in range(1, max_rounds + 1):
        values, best, arg = _scan_once(approx, reference, grid, points(digits), digits)
        needed = digits_for_bound(float(best), floor=DEFAULT_DIGITS)
        converged = best == 0 or needed <= digits
        if converged or rounds == max_rounds:
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
        xs = grid.points(digits)
        ts = [2 * xv / pi for xv in xs]
        re_xs = relative_errors(f0_form, reference, xs, digits)
        for re_x, t, p_t in zip(re_xs, ts, horner_values(t_poly, ts, digits)):
            if t == 0:
                re_t = re_x  # both use the same declared limit at 0
            else:
                re_t = 1 - p_t / mp.sin(pi * t / 2)
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


def _abs_re_raw(a, r, prec: int) -> mp.mpf:
    """|1 - a/r| for raw _mpf_ values a and r: `_re_raw`, then the absolute
    value rounded to nearest at `prec` bits."""
    return mp.make_mpf(mpf_abs(_re_raw(a, r, prec), prec, round_nearest))


def _series_re(variant: str, ns, xs, refs, digits: int) -> dict:
    """{n: |1 - s_n(x)/sin(x)| at each x} for the partial sums s_n, n in ns,
    0 at x = 0 where every s_n is exact in the limit.  pi and each
    coefficient are read once, and one pass of the term loop at each x
    gives every column; sin comes from refs("sin")."""
    last = max(ns)
    s = sine_series(variant, last)
    sin = refs("sin")
    cols = {n: [] for n in ns}
    with mp.workdps(digits + 10):
        prec = mp.mp.prec
        pi = +mp.pi
        terms = s.read_terms(digits, last)
        for xv in xs:
            if xv == 0:
                for col in cols.values():
                    col.append(mp.mpf(0))
                continue
            sv = sin(xv, digits)._mpf_
            for n, acc in s.sums_at(xv, terms, pi):
                if n in cols:
                    cols[n].append(_abs_re_raw(acc._mpf_, sv, prec))
    return cols


# Table and figure specs name their builders inside lambdas, so a builder is
# looked up when a value is computed and a wrapper put over its module name
# at run time sees every call.


def _scanned(build, row, grid: Grid, digits: int, refs, points):
    """Table cell: the bound build(row) and its max |re| on the grid."""
    bound = build(row)
    rep = re_bound_scan(bound, refs(bound.target), grid, digits, points=partial(points, grid))
    return bound, rep.re_bound


def _series_max(variant: str, n: int, grid: Grid, digits: int, refs, points):
    """Table cell: no bound, and the largest value of the series column."""
    (column,) = _series_re(variant, [n], points(grid, digits), refs, digits).values()
    return None, max(column)


def _call_points():
    """grid.points for the rows of one table call: each distinct point set
    built once and kept only as long as the returned lookup.  A point set
    depends only on the grid's value and the precision, and no scan changes
    its list."""
    kept = {}

    def points(grid: Grid, digits: int):
        xs = kept.get((grid, digits))
        if xs is None:
            xs = kept[(grid, digits)] = grid.points(digits)
        return xs

    return points


# table id -> (row label, whether rows show their bound's direction, columns);
# a column (key suffix, published value by row, cell) fills computed<suffix>
# and expected<suffix>, the cell scanning at the digits the published value
# needs with references and grid points shared by the table's rows.  Taylor
# polynomials alternate between lower and upper bounds.
_TABLES = {
    "2.1": ("order", True, [("", TABLE_2_1, partial(_scanned, lambda n: taylor_sine(n)))]),
    "3.1": ("order", False, [("", TABLE_3_1, partial(_scanned, lambda n: sine_lower(n)))]),
    "5.1": ("terms", False, [
        ("_first", {n: v[0] for n, v in TABLE_5_1.items()}, partial(_series_max, "order1")),
        ("_second", {n: v[1] for n, v in TABLE_5_1.items()}, partial(_series_max, "order2")),
    ]),
    "5.2": ("order", False, [("", TABLE_5_2, partial(_scanned, lambda n: si_lower(n)))]),
}


def reproduce_table(table_id: str, samples: int = DEFAULT_SAMPLES) -> list[dict]:
    """Recompute a published table and compare at 3 significant figures.

    Mismatches are reported via the per-row 'pass' flag, never raised.
    """
    if table_id not in _TABLES:
        raise ValueError(f"unknown table id {table_id!r}")
    label, show_direction, columns = _TABLES[table_id]
    refs = _call_references()
    points = _call_points()
    rows: list[dict] = []
    for key in columns[0][1]:
        row = {"table": table_id, label: key}
        ok = True
        for suffix, published, cell in columns:
            expected = published[key]
            if expected is None:
                row[f"computed{suffix}"] = None
                row[f"expected{suffix}"] = "not stated in source table"
                continue
            digits = digits_for_bound(expected)
            bound, computed = cell(key, half_pi_grid(samples, digits), digits, refs, points)
            if show_direction:
                row["direction"] = bound.direction
            row[f"computed{suffix}"] = computed
            row[f"expected{suffix}"] = expected
            ok = ok and matches_sig_figs(computed, expected)
        row["pass"] = ok
        rows.append(row)
    return rows


# -- figure data ------------------------------------------------------------
#
# A curve maps (xs, refs, digits) to its columns, {name: one value per x};
# refs(target) gives the references shared by the figure's curves.


def _abs_re(name: str, build, xs, refs, digits: int) -> dict:
    """|re| of the bound build() against its own reference."""
    bound = build()
    ref = refs(bound.target)
    with mp.workdps(digits + 10):
        return {name: [abs(v) for v in relative_errors(bound, ref, xs, digits)]}


def _sin_minus(name: str, build, sign: int, xs, refs, digits: int) -> dict:
    """sign * (sin - p) for the polynomial body p of the sin bound build()."""
    poly = build().body
    sin = refs("sin")
    with mp.workdps(digits + 10):
        values = horner_values(poly, xs, digits)
        return {name: [sign * (sin(xv, digits) - p) for xv, p in zip(xs, values)]}


def _series_curves(prefix: str, variant: str, ns, xs, refs, digits: int) -> dict:
    """One column <prefix>_<n> per series truncation n in ns."""
    cols = _series_re(variant, ns, xs, refs, digits)
    return {f"{prefix}_{n}": col for n, col in cols.items()}


def _sinc_curves(names, values_at, xs, refs, digits: int) -> dict:
    """|re| against sin(x)/x of the curves `names`, whose values at one mpf
    x values_at(x) gives together, in that order: one pass over xs, with
    one reference per x and the two roundings of `relative_errors`."""
    sinc = refs("sinc")
    cols = [[] for _ in names]
    with mp.workdps(digits + 10):
        prec = mp.mp.prec
        for xv in xs:
            xv = mp.mpf(xv)
            r = sinc(xv, digits)._mpf_
            for col, a in zip(cols, values_at(xv)):
                col.append(_abs_re_raw(a._mpf_, r, prec))
    return dict(zip(names, cols))


def _table11_curves(rows, xs, refs, digits: int) -> dict:
    """Columns table11_<row>_<direction> of the published Table 1.1 rows,
    whose formulas read one shared CatalogPoint at each x."""
    keys = [(r, d) for r in rows for d in ("lower", "upper")]
    catalog = {(b.family, b.direction): b.body for b in baseline_catalog()}
    bodies = [catalog[(f"table11_{r}", d)] for r, d in keys]
    sin = refs("sin")

    def values_at(xv):
        p = CatalogPoint(xv, sin(xv, digits))
        return [body.at(p) for body in bodies]

    names = [f"table11_{r}_{d}" for r, d in keys]
    return _sinc_curves(names, values_at, xs, refs, digits)


def _zhu_curves(ns, xs, refs, digits: int) -> dict:
    """Columns zhu_<n>_<direction>, all from one pass of `zhu_values` at
    each x."""
    columns = [(n, d) for n in ns for d in ("lower", "upper")]
    with mp.workdps(digits + 10):
        constants = zhu_constants(max(ns), digits)
    names = [f"zhu_{n}_{d}" for n, d in columns]
    return _sinc_curves(names, lambda xv: zhu_values(xv, constants, columns), xs, refs, digits)


# figure id -> its curves, whose columns follow x in order
_FIGURES = {
    "1": [partial(_table11_curves, (1, 2, 4, 5, 8, 10))],
    "2": [partial(_zhu_curves, range(3))],
    "3": [partial(_abs_re, f"spline_{n}", lambda n=n: sine_lower(n)) for n in range(1, 5)]
    + [partial(_abs_re, f"taylor_{k}", lambda k=k: taylor_sine(k)) for k in range(1, 10, 2)],
    "4": [
        partial(_sin_minus, f"err_spline_{n}", lambda n=n: sine_lower(n), 1)
        for n in range(1, 5)
    ],
    "5": [partial(_series_curves, "series1", "order1", range(1, 10))],
    "6": [partial(_series_curves, "series2", "order2", range(2, 10))],
    "7": [
        partial(_sin_minus, f"err_upper_{n}", lambda n=n: sine_upper(n), -1)
        for n in range(2, 5)
    ],
    "8": [partial(_abs_re, f"si_spline_{n}", lambda n=n: si_lower(n)) for n in range(1, 5)]
    + [partial(_abs_re, "lv", lambda: lv_si_lower())],
}


def figure_data(figure_id: str, grid: Grid | None = None) -> dict:
    """Columnar data behind each published figure (abscissae plus one column
    per curve); rendering is left to downstream tools."""
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}")
    grid = grid or half_pi_grid(DEFAULT_SAMPLES, DEFAULT_DIGITS)
    digits = grid.digits
    xs = grid.points(digits)
    refs = _call_references()
    cols: dict[str, list] = {"x": xs}
    for curve in _FIGURES[figure_id]:
        cols.update(curve(xs, refs, digits))
    return {"figure": figure_id, "samples": grid.count, "digits": digits, "columns": cols}
