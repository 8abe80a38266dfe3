"""Every evaluation site agrees bit for bit with a reference loop.

The reference reads each exact coefficient at the working precision
through to_ext_real and then does nested multiplication, or for the sine
series the term sum, written out here apart from the package.  Figure
columns are checked against each curve computed on its own, with a fresh
reference value at every point.  Each site must return the identical mpf
(==, not a tolerance).
"""

import mpmath as mp
import pytest

from splinebound.analysis import (
    figure_data,
    half_pi_grid,
    re_bound_scan,
    reference_for,
    relative_error,
    reproduce_table,
)
from splinebound.bounds import (
    baseline_catalog,
    reflect_to_cos,
    si_lower,
    sine_lower,
    sine_upper,
    taylor_sine,
    zhu_bound,
)
from splinebound.cli import codegen_kernel
from splinebound.numerics import digits_for_bound, horner_eval
from splinebound.series import sine_series, sine_series_eval

DIGITS = (50, 90)


def ref_horner(poly, x, digits):
    with mp.workdps(digits + 10):
        x = mp.mpf(x)
        acc = mp.mpf(0)
        for c in reversed(poly.coefficients):
            acc = acc * x + c.to_ext_real(digits)
        return acc


def points(digits):
    with mp.workdps(digits + 10):
        return [
            mp.mpf(0),
            mp.pi / 7,
            mp.mpf(1) / 3,
            mp.mpf("1.2"),
            mp.pi / 2 - mp.mpf(10) ** -5,
            mp.pi / 2,
        ]


BOUNDS = {
    "sine_lower_3": lambda: sine_lower(3),
    "sine_upper_4": lambda: sine_upper(4),
    "cos_lower_2": lambda: reflect_to_cos(sine_lower(2)),
    "cos_upper_5": lambda: reflect_to_cos(sine_upper(5)),
    "si_lower_3": lambda: si_lower(3),
    # the rounded kernels of `splinebound codegen sin 4` and `codegen cos 2`
    "kernel_sin_4": lambda: codegen_kernel("sin", 4, 17)[1],
    "kernel_cos_2": lambda: codegen_kernel("cos", 2, 17)[1],
}


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_eval_raw(name, digits):
    b = BOUNDS[name]()
    for x in points(digits):
        assert b.eval_raw(x, digits) == ref_horner(b.body, x, digits)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", ("sine_lower_3", "sine_upper_4", "kernel_sin_4"))
def test_as_sinc(name, digits):
    b = BOUNDS[name]()
    sinc = b.as_sinc()
    assert sinc.eval_raw(0, digits) == b.body.coeff(1).to_ext_real(digits)
    for x in points(digits)[1:]:
        with mp.workdps(digits + 10):
            expected = ref_horner(b.body, x, digits) / x
        assert sinc.eval_raw(x, digits) == expected


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", ("cos_lower_2", "cos_upper_5", "kernel_cos_2"))
def test_ratio_at_half_pi(name, digits):
    b = BOUNDS[name]()
    with mp.workdps(digits + 10):
        expected = -ref_horner(b.body.derivative(), mp.pi / 2, digits)
    assert b.ratio_at_half_pi(digits) == expected


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", ("sine_lower_3", "si_lower_3", "kernel_sin_4"))
def test_ratio_at_zero(name, digits):
    b = BOUNDS[name]()
    assert b.ratio_at_zero(digits) == b.body.coeff(1).to_ext_real(digits)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", ("kernel_sin_4", "cos_upper_5"))
def test_json_decimals(name, digits):
    # the decimals `gen` prints in its JSON, CSV and text outputs
    b = BOUNDS[name]()
    expected = []
    for c in b.body.coefficients:
        with mp.workdps(digits + 5):
            expected.append(mp.nstr(c.to_ext_real(digits), digits, strip_zeros=False))
    assert [c.to_decimal_string(digits) for c in b.body.coefficients] == expected


def ref_series(variant, x, digits, n):
    s = sine_series(variant, n)
    with mp.workdps(digits + 10):
        t = 2 * x / mp.pi
        u = 1 - t
        if variant == "order1":
            acc, k0 = t + t * u, 1
        else:
            acc, k0 = 1 - mp.pi**2 / 8 * u**2, 0
        for k in range(k0, n + 1):
            ck = s.term_coefficient(k).to_ext_real(digits)
            acc += ck * t**k * u ** s.exponent(k)
        return acc


# every column series<v>_<n> of figures 5 and 6
SERIES_COLUMNS = [("5", "order1", n) for n in range(1, 10)] + [
    ("6", "order2", n) for n in range(2, 10)
]


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("figure,variant,n", SERIES_COLUMNS)
def test_series_column(figure, variant, n, digits):
    grid = half_pi_grid(17, digits)
    column = figure_data(figure, grid)["columns"][f"series{variant[-1]}_{n}"]
    expected = []
    with mp.workdps(digits + 10):
        for xv in grid.points(digits):
            if xv == 0:
                expected.append(mp.mpf(0))
                continue
            s = ref_series(variant, xv, digits, n)
            assert sine_series_eval(variant, xv, digits, n) == s
            expected.append(abs(1 - s / mp.sin(xv)))
    assert column == expected


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("variant,ns", (("order1", range(0, 10)), ("order2", range(-1, 10))))
def test_series_eval_is_partial_sum(variant, ns, digits):
    # n = 0 (order 1) and n = -1 (order 2) are the head alone
    s = sine_series(variant, max(ns))
    for x in points(digits)[1:]:
        with mp.workdps(digits + 10):
            sums = dict(s.partial_sums(x, digits, max(ns)))
        assert list(sums) == list(ns)
        for n in ns:
            assert s.eval(x, digits, n) == sums[n] == ref_series(variant, x, digits, n)


def _figure_bounds():
    catalog = {(b.family, b.direction): b for b in baseline_catalog()}
    table11 = {
        f"table11_{r}_{d}": catalog[(f"table11_{r}", d)]
        for r in (1, 2, 4, 5, 8, 10)
        for d in ("lower", "upper")
    }
    zhu = {f"zhu_{n}_{d}": zhu_bound(n, d) for n in range(3) for d in ("lower", "upper")}
    spline = {f"spline_{n}": sine_lower(n) for n in range(1, 5)}
    taylor = {f"taylor_{k}": taylor_sine(k) for k in range(1, 10, 2)}
    return {"1": table11, "2": zhu, "3": {**spline, **taylor}}


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("figure", ("1", "2", "3"))
def test_abs_re_columns(figure, digits):
    # each curve on its own, with a fresh reference at every point
    grid = half_pi_grid(17, digits)
    columns = figure_data(figure, grid)["columns"]
    bounds = _figure_bounds()[figure]
    assert list(columns) == ["x", *bounds]
    for name, bound in bounds.items():
        ref = reference_for(bound.target)
        with mp.workdps(digits + 10):
            expected = [
                abs(relative_error(bound, ref, xv, digits)) for xv in grid.points(digits)
            ]
        assert columns[name] == expected, name


@pytest.mark.parametrize("digits", DIGITS)
def test_horner_zero_coefficients_and_wide_x(digits):
    # taylor_sine(33) has a zero coefficient at every even power; the last
    # point carries more digits than the working precision, so horner_eval
    # must round it on entry as the reference loop's mp.mpf(x) does
    poly = taylor_sine(33).body
    assert any(c.is_zero() for c in poly.coefficients)
    with mp.workdps(digits + 40):
        wide = mp.pi / 3
    for x in [*points(digits), wide]:
        assert horner_eval(poly, x, digits) == ref_horner(poly, x, digits)


def test_table_rows_share_references():
    # the rows of table 2.1 share their sin values; each row's bound equals
    # a scan of its own with a fresh reference
    rows = reproduce_table("2.1", samples=40)
    for row in rows:
        digits = digits_for_bound(row["expected"])
        grid = half_pi_grid(40, digits)
        rep = re_bound_scan(taylor_sine(row["order"]), reference_for("sin"), grid, digits)
        assert row["computed"] == rep.re_bound, row["order"]
