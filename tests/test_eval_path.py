"""Every evaluation site agrees bit for bit with a reference loop.

The reference reads each exact coefficient at the working precision
through to_ext_real and then does nested multiplication, or for the sine
series the term sum, written out here apart from the package.  Figure
columns are checked against each curve computed on its own, with a fresh
reference value at every point.  Each site must return the identical mpf
(==, not a tolerance).
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from splinebound.analysis import (
    figure_data,
    half_pi_grid,
    re_bound_scan,
    reference_for,
    relative_error,
    relative_errors,
    reproduce_table,
)
from splinebound.bounds import (
    baseline_catalog,
    lv_si_lower,
    reflect_to_cos,
    si_lower,
    si_reference,
    sine_lower,
    sine_upper,
    taylor_sine,
    zhu_bound,
)
from splinebound.cli import codegen_kernel
from splinebound.numerics import (
    PiRational,
    Poly,
    digits_for_bound,
    horner_eval,
    horner_values,
)
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
            ck = s.coeffs[k].to_ext_real(digits)
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
            sums = dict(s.sums_at(x, s.read_terms(digits, max(ns))))
        assert list(sums) == list(ns)
        for n in ns:
            got = sine_series_eval(variant, x, digits, n)
            assert got == sums[n] == ref_series(variant, x, digits, n)


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
    return {
        "1": table11,
        "2": zhu,
        "3": {**spline, **taylor},
        "4": {f"err_spline_{n}": sine_lower(n) for n in range(1, 5)},
        "7": {f"err_upper_{n}": sine_upper(n) for n in range(2, 5)},
        "8": {**{f"si_spline_{n}": si_lower(n) for n in range(1, 5)}, "lv": lv_si_lower()},
    }


# figures whose columns are sign * (sin - p) for the body p of a sin bound;
# the others plot |re|
SIN_MINUS_SIGN = {"4": 1, "7": -1}


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("figure", ("1", "2", "3", "4", "7", "8"))
def test_abs_re_columns(figure, digits):
    # each curve on its own, with a fresh reference at every point
    grid = half_pi_grid(17, digits)
    columns = figure_data(figure, grid)["columns"]
    bounds = _figure_bounds()[figure]
    assert list(columns) == ["x", *bounds]
    for name, bound in bounds.items():
        ref = reference_for(bound.target)
        with mp.workdps(digits + 10):
            if figure in SIN_MINUS_SIGN:
                expected = [
                    SIN_MINUS_SIGN[figure] * (mp.sin(xv) - ref_horner(bound.body, xv, digits))
                    for xv in grid.points(digits)
                ]
            else:
                expected = [
                    abs(relative_error(bound, ref, xv, digits)) for xv in grid.points(digits)
                ]
        assert [v._mpf_ for v in columns[name]] == [v._mpf_ for v in expected], name


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
        rep = re_bound_scan(taylor_sine(row["order"]), reference_for("sin"), grid)
        assert row["computed"] == rep.re_bound, row["order"]


# -- the integer-mantissa kernel against the mpf loop ------------------------

fracs = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    # dyadic values have few bits, so steps often round an exact tie
    st.builds(Fraction, st.integers(-(2**60), 2**60), st.sampled_from([1, 2**20, 2**45])),
)
pi_rationals = st.dictionaries(st.integers(-4, 4), fracs, max_size=3).map(PiRational)
# zero coefficients are drawn often, not left to chance
coefficients = st.one_of(st.just(PiRational.zero()), pi_rationals)


@st.composite
def columns(draw):
    """(poly, xs, digits): a pi-rational polynomial with zero coefficients,
    and points that are negative, wider than the working precision, or a
    root of the polynomial, where its terms cancel."""
    digits = draw(st.integers(1, 220))
    coeffs = draw(st.lists(coefficients, min_size=1, max_size=12))
    root = PiRational(draw(st.dictionaries(st.integers(-1, 1), fracs, min_size=1, max_size=2)))
    if draw(st.booleans()):
        # make `root` an exact zero: p(root) = 0, so rounding is all that is left
        coeffs[0] = coeffs[0] - Poly(coeffs).eval_exact(root)
    xs = [root.to_ext_real(digits + 30)]
    with mp.workdps(digits + 40):
        for v in draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=4)):
            k = draw(st.one_of(st.just(0), st.integers(-(10**6), 10**6)))
            xs.append(mp.mpf(v) + mp.pi / 10**12 * k)
    return Poly(coeffs), xs, digits


@given(columns())
@settings(max_examples=300, deadline=None)
def test_horner_values_match_mpf_loop(case):
    poly, xs, digits = case
    got = horner_values(poly, xs, digits)
    assert [v._mpf_ for v in got] == [ref_horner(poly, x, digits)._mpf_ for x in xs]


@pytest.mark.parametrize("digits", (1, 50, 220))
def test_horner_exact_ties(digits):
    # two steps whose exact result lies exactly half an ulp between its two
    # neighbours at the working precision, so ties-to-even decides:
    # the product 3x at x = 1 - 2^(1-prec), and the sum x + 1 at x = 1 - 2^-prec
    with mp.workdps(digits + 10):
        prec = mp.mp.prec
    three, one = PiRational.from_rational(3), PiRational.one()
    # (poly, x = num / 2^scale, exact step result times 2^scale)
    cases = [
        (Poly([PiRational.zero(), three]), 2 ** (prec - 1) - 1, prec - 1, 3 * (2 ** (prec - 1) - 1)),
        (Poly([one, one]), 2**prec - 1, prec, 2 ** (prec + 1) - 1),
    ]
    for poly, num, scale, exact in cases:
        dropped = exact.bit_length() - prec
        assert dropped == 1 and exact % 2**dropped == 2 ** (dropped - 1)
        q = exact >> dropped
        even = (q + (q & 1)) << dropped  # the neighbour with an even mantissa
        with mp.workdps(digits + 10):
            x = mp.mpf(num) / 2**scale
            want = mp.mpf(even) / 2**scale
        assert horner_eval(poly, x, digits) == ref_horner(poly, x, digits) == want


@pytest.mark.parametrize("x", (mp.inf, -mp.inf, mp.nan))
def test_horner_rejects_non_finite_x(x):
    # inf and nan have mantissa 0, which the integer loop would read as 0
    poly = sine_lower(3).body
    for call in (
        lambda: horner_values(poly, [mp.mpf(1), x], 50),
        lambda: horner_eval(poly, x, 50),
        lambda: sine_lower(3).eval_raw(x, 50),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("digits", (20, 50))
def test_horner_far_apart_exponents(digits):
    # the product and the coefficient are too far apart to overlap at the
    # working precision: the larger one is the rounded sum
    poly = sine_lower(3).body
    with mp.workdps(digits + 10):
        xs = [mp.mpf("1e-5000"), -mp.mpf("3e-900"), mp.mpf("1e900"), -mp.mpf("7e4000")]
    assert horner_values(poly, xs, digits) == [ref_horner(poly, x, digits) for x in xs]


def ref_relative_error(bound, x, digits):
    """1 - body(x)/target(x) at one point, with the declared limits at 0
    (sin, si) and at pi/2 (cos), from the reference loops above."""
    with mp.workdps(digits + 10):
        x = mp.mpf(x)
        if bound.target in ("sin", "si") and x == 0:
            return 1 - bound.body.coeff(1).to_ext_real(digits)
        if bound.target == "si":
            ref = si_reference(x, digits)
        else:
            ref = getattr(mp, bound.target)(x)
        if bound.target == "cos" and abs(ref) < mp.mpf(10) ** (-digits // 2):
            return 1 - (-ref_horner(bound.body.derivative(), mp.pi / 2, digits))
        return 1 - ref_horner(bound.body, x, digits) / ref


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize(
    "name", ("sine_lower_3", "sine_upper_4", "cos_lower_2", "cos_upper_5", "si_lower_3", "kernel_cos_2")
)
def test_relative_errors_column(name, digits):
    b = BOUNDS[name]()
    xs = half_pi_grid(33, digits).points(digits) + points(digits)
    with mp.workdps(digits + 40):
        xs.append(mp.pi / 2 - mp.mpf(10) ** -(digits + 5))  # within rounding of pi/2
    got = relative_errors(b, reference_for(b.target), xs, digits)
    assert [v._mpf_ for v in got] == [ref_relative_error(b, x, digits)._mpf_ for x in xs]
    assert relative_error(b, reference_for(b.target), xs[5], digits) == got[5]
