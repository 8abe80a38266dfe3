"""Cached and shared values are bit-identical to computing them afresh.

Exact coefficients are converted once per precision, and Horner reads
each `Poly`'s coefficients through those conversions; `sine_spline` and
the bound builders are built once per order, the cosine reflection once
per exact value, a figure's sin column is shared by its
curves, a table's rows share its grid points, the Si reference is
memoised per (x, digits), `si_reference` computes each term once, on
integer mantissas with the bits of a former mpf loop kept here, and each
Zhu bound computes its constants once per precision.  Figures 1 and 2 share each point's values between their curves
within one call, at that call's precision, and keep none of them after it.
Each test compares `_mpf_` tuples (or ==) against a fresh computation or a
reference kept here.
"""

import sys
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

from splinebound.analysis import (
    Grid,
    _call_references,
    _table11_curves,
    certify_direction,
    figure_data,
    half_pi_grid,
    re_bound_scan,
    reference_for,
    reproduce_table,
)
from splinebound.bounds import (
    BoundFn,
    _si_sum,
    baseline_catalog,
    reflect_to_cos,
    si_lower,
    si_reference,
    sine_lower,
    sine_upper,
    sufficiency_check,
    zhu_alpha,
    zhu_bound,
)
from splinebound.cli import _round_coefficient
from splinebound.numerics import PiRational, Poly, horner_eval
from splinebound.series import order1_coefficients, sine_series, sine_series_eval
from splinebound.spline import (
    reflect_half_pi,
    sine_endpoint_data,
    sine_spline,
    two_point_spline,
)


def fresh_copy(p: PiRational) -> PiRational:
    return PiRational.from_json_dict(p.to_json_dict())


def test_conversion_cached_per_precision():
    p = sine_spline(2).coeff(3)
    assert len(p.terms) > 1
    first = p.to_ext_real(90)
    for digits in (90, 50, 90):
        got = p.to_ext_real(digits)
        want = fresh_copy(p).to_ext_real(digits)
        assert got._mpf_ == want._mpf_
    assert p.to_ext_real(90) is first


def test_horner_values_match_fresh_coefficients():
    a = sine_spline(3)
    b = Poly([fresh_copy(c) for c in a.coefficients], a.variable)
    assert a == b and a is not b
    # a negative coefficient takes the signed-mantissa path
    assert any(c.to_ext_real(50) < 0 for c in a.coefficients)
    with mp.workdps(60):
        x = mp.pi / 5
    for digits in (50, 90, 50):
        assert horner_eval(a, x, digits)._mpf_ == horner_eval(b, x, digits)._mpf_
    # no module of the package holds the conversions in a dict keyed by id()
    for name, module in sys.modules.items():
        if name == "splinebound" or name.startswith("splinebound."):
            for value in vars(module).values():
                if isinstance(value, dict):
                    assert id(a) not in value and id(b) not in value, name


@pytest.mark.parametrize("n", (0, 1, 4, 7))
def test_sine_spline_built_once(n):
    s = sine_spline(n)
    assert sine_spline(n) is s
    assert isinstance(s.coefficients, tuple)
    assert s == two_point_spline(sine_endpoint_data(n))


@pytest.mark.parametrize("variant,n", (("order1", 9), ("order2", 20)))
def test_sine_series_built_once(variant, n):
    # a repeated call shares one series, so its coefficients convert once;
    # its values are those of a series built afresh
    s = sine_series(variant, n)
    assert sine_series(variant, n) is s
    fresh = sine_series.__wrapped__(variant, n)
    assert fresh is not s and fresh == s
    x = mp.mpf(1)
    with mp.workdps(60):
        *_, (_, want) = fresh.sums_at(x, fresh.read_terms(50, n))
    for _ in range(2):
        assert sine_series_eval(variant, x, 50, n)._mpf_ == want._mpf_
    maxsize = sine_series.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_grid_equal_values_hash_alike():
    a, b = half_pi_grid(11, 30), half_pi_grid(11, 30)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 0, b: 1}) == 1
    assert a != half_pi_grid(12, 30) and a != half_pi_grid(11, 40)


def test_bound_value_leaves_out_zero_ratio():
    body = sine_lower(3).body
    plain = BoundFn("spline", 3, "lower", "sin", body)
    ratio = BoundFn("spline", 3, "lower", "sin", body, zero_ratio=lambda d: mp.mpf(1))
    assert plain == ratio and hash(plain) == hash(ratio)
    assert plain != BoundFn("spline", 3, "upper", "sin", body)
    assert reflect_to_cos(ratio) is reflect_to_cos(plain)


def _value_objects():
    return [
        (half_pi_grid(5, 30), "count"),
        (sine_lower(2), "body"),
        (baseline_catalog()[0].body, "formula"),
        (sine_endpoint_data(2), "alpha"),
        (sine_series("order1", 3), "coeffs"),
        (order1_coefficients(3), "coeffs"),
        (sufficiency_check(3), "margins"),
        (re_bound_scan(sine_lower(1), reference_for("sin"), half_pi_grid(5, 30)), "re_bound"),
    ]


def test_values_are_immutable():
    for value, field in _value_objects():
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is not None


def test_certify_repeatable():
    grid = half_pi_grid(60, 50)
    ok1, rep1 = certify_direction(sine_upper(3), grid)
    ok2, rep2 = certify_direction(sine_upper(3), grid)
    assert ok1 and ok2
    assert [v._mpf_ for v in rep1.re_values] == [v._mpf_ for v in rep2.re_values]
    assert (rep1.re_bound, rep1.digits, rep1.rounds) == (rep2.re_bound, rep2.digits, rep2.rounds)


def test_scan_reports_rounds_and_convergence():
    # re ~ 2e-18 needs 56 digits: one escalation from 50, then it holds
    grid = half_pi_grid(40, 50)
    ref = reference_for("sin")
    rep = re_bound_scan(sine_lower(8), ref, grid)
    assert (rep.rounds, rep.converged, rep.digits) == (2, True, 56)
    capped = re_bound_scan(sine_lower(8), ref, grid, max_rounds=1)
    # the digits its values were scanned at, not the next round's 56
    assert (capped.rounds, capped.converged, capped.digits) == (1, False, 50)


@pytest.mark.parametrize("n", (2, 5))
def test_bounds_built_once(n):
    assert sine_lower(n) is sine_lower(n)
    assert sine_upper(n) is sine_upper(n)
    assert si_lower(n) is si_lower(n)


def test_reflection_shared_by_value():
    up = sine_upper(5)
    cos_up = reflect_to_cos(up)
    assert reflect_to_cos(up) is cos_up
    body = Poly([fresh_copy(c) for c in up.body.coefficients], up.body.variable)
    fresh = BoundFn(up.family, up.order, up.direction, up.target, body)
    assert fresh is not up
    assert reflect_to_cos(fresh) is cos_up


def test_reflection_of_decimal_body_keeps_its_digits():
    # kernels rounded at 20 and at 60 digits are different exact values, so
    # the value-keyed memo gives each its own reflection
    poly = sine_lower(2).body

    def decimal_bound(digits):
        body = Poly(
            [PiRational.from_rational(Fraction(_round_coefficient(c, digits)))
             for c in poly.coefficients],
            poly.variable,
        )
        return BoundFn("kernel", 2, "lower", "sin", body)

    assert decimal_bound(20) != decimal_bound(60)

    low, high = reflect_to_cos(decimal_bound(20)), reflect_to_cos(decimal_bound(60))
    assert low != high
    assert reflect_to_cos(decimal_bound(20)) is low
    for bound, digits in ((low, 20), (high, 60)):
        assert bound.body == reflect_half_pi(decimal_bound(digits).body)


@pytest.mark.parametrize("digits", (50, 58, 90))
def test_si_memo_matches_direct_series(digits):
    si = reference_for("si")
    grid = half_pi_grid(41, digits)
    points = grid.points(digits)
    assert points[0] == 0 and points[-1] == grid.right  # 0 and pi/2
    for _ in range(2):  # the second pass reads the memo
        for xv in points:
            got = si(xv, digits)
            assert got._mpf_ == si_reference(xv, digits)._mpf_


def test_si_memo_is_bounded():
    maxsize = reference_for("si").cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def si_reference_two_powers(xv, digits):
    # the former loop: every term's power computed twice, once signed
    with mp.workdps(digits + 15):
        xv = mp.mpf(xv)
        cutoff = mp.mpf(10) ** (-digits - 5)
        total = mp.mpf(0)
        k = 0
        while True:
            term = (-1) ** k * xv ** (2 * k + 1) / ((2 * k + 1) * factorial(2 * k + 1))
            total += term
            k += 1
            nxt = xv ** (2 * k + 1) / ((2 * k + 1) * factorial(2 * k + 1))
            if nxt < cutoff:
                break
    with mp.workdps(digits + 10):  # rounded to digits + 10
        return +total


@pytest.mark.parametrize("digits", (50, 68, 90))
def test_si_reference_matches_two_power_loop(digits):
    for xv in half_pi_grid(41, digits).points(digits):
        got = si_reference(xv, digits)
        assert got._mpf_ == si_reference_two_powers(xv, digits)._mpf_


def si_sum_mpf(x, digits):
    # the former loop on mpf values, each term's power computed once; its
    # sum at the working precision, before the final rounding
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
    return total


def si_reference_mpf(x, digits):
    total = si_sum_mpf(x, digits)
    with mp.workdps(digits + 10):
        return +total


def assert_si_kernel_matches(x, digits):
    """si_reference at x equals the former loop, and so does its sum at
    the working precision, where a term one unit off would show."""
    assert si_reference(x, digits)._mpf_ == si_reference_mpf(x, digits)._mpf_, x
    with mp.workdps(digits + 15):
        _, xm, xe, _ = mp.mpf(x)._mpf_
        wp = mp.mp.prec
    got = mp.make_mpf(from_man_exp(*_si_sum(xm, xe, digits, wp)))
    assert got._mpf_ == si_sum_mpf(x, digits)._mpf_, x


def si_points(digits):
    """0, 2^-200, powers of two, 1/3, pi/2, 7/4 and 3 at the working
    precision, digits + 15, then pi/2 and 1/3 held 40 digits wider.  Every
    term of the series at these points is below 10, so the working
    precision is digits + 15 at each."""
    with mp.workdps(digits + 55):
        wide = [mp.pi / 2, mp.mpf(1) / 3]
    with mp.workdps(digits + 15):
        powers = [mp.mpf(2) ** k for k in (-200, -20, -1, 0, 1, 2)]
        return [mp.mpf(0), *powers, mp.mpf(1) / 3, mp.pi / 2, mp.mpf(7) / 4, mp.mpf(3), *wide]


@pytest.mark.parametrize("digits", (1, 2, 9, 30, 50, 58, 90, 151, 220))
def test_si_kernel_matches_mpf_loop(digits):
    for x in si_points(digits):
        assert_si_kernel_matches(x, digits)


@given(st.integers(1, 220), st.lists(st.floats(0, 4.99), min_size=1, max_size=4), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_si_kernel_matches_mpf_loop_at_random_points(digits, xs, wider):
    # points given with up to 40 more digits than the working precision,
    # which both round on entry
    with mp.workdps(digits + 15 + wider):
        xs = [mp.mpf(x) * (1 + mp.pi / 10**12) for x in xs]
    for x in xs:
        assert_si_kernel_matches(x, digits)


def test_table_rows_share_grid_points(monkeypatch):
    # table 2.1 scans its eight rows at two precisions: one call builds
    # each point set once
    built = []
    points = Grid.points

    def counted(grid, digits=None):
        built.append((grid.count, digits))
        return points(grid, digits)

    monkeypatch.setattr(Grid, "points", counted)
    reproduce_table("2.1", samples=40)
    assert sorted(built) == [(40, 50), (40, 88)]


def test_call_references_keyed_by_digits():
    # one x read at two precisions: each keeps its own sin value
    refs = _call_references()
    with mp.workdps(100):
        x = mp.mpf(1) / 3
    for digits in (50, 90, 50):
        for target in ("sin", "sinc"):
            fresh = reference_for(target)
            with mp.workdps(digits + 10):
                assert refs(target)(x, digits)._mpf_ == fresh(x, digits)._mpf_
    with mp.workdps(60):
        assert refs("sinc")(mp.mpf(0), 50) == 1
    assert refs("si") is reference_for("si")


def test_figure5_shared_sin_column():
    digits = 50
    grid = half_pi_grid(25, digits)
    cols = figure_data("5", grid)["columns"]
    for n in range(1, 10):
        with mp.workdps(digits + 10):
            # the former column: its own mp.sin at every point
            expected = [
                abs(1 - sine_series_eval("order1", xv, digits, n) / mp.sin(xv))
                if xv != 0
                else mp.mpf(0)
                for xv in grid.points(digits)
            ]
        assert [v._mpf_ for v in cols[f"series1_{n}"]] == [v._mpf_ for v in expected]


def zhu_body_per_point(n, direction, x, digits):
    # the former body: every constant recomputed at each point
    alpha = zhu_alpha(n + 1)
    with mp.workdps(digits + 10):
        pi = mp.pi
        u = pi**2 - 4 * x**2
        av = [a.to_ext_real(digits) for a in alpha]
        acc = mp.mpf(0)
        for k in range(n + 1):
            acc += av[k] * u**k
        if direction == "lower":
            acc += av[n + 1] * u ** (n + 1)
        else:
            head = sum(av[k] * pi ** (2 * k) for k in range(n + 1))
            acc += (1 - head) * u ** (n + 1) / pi ** (2 * n + 2)
        return acc


@pytest.mark.parametrize("direction", ("lower", "upper"))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_zhu_constants_kept_per_precision(n, direction):
    bound = zhu_bound(n, direction)
    for digits in (50, 90, 50):
        xs = half_pi_grid(9, digits).points(digits)
        got = bound.eval_values(xs, digits)
        want = [zhu_body_per_point(n, direction, x, digits) for x in xs]
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


# Figure 1's rows as first transcribed, with every value computed afresh at
# each point (row 5 is 0/0 at x = 0, where its declared value is 1)
def _former_k0():
    return (8 * mp.pi - 24) / (mp.pi**3 - 2 * mp.pi**2)


def _former_tan_ratio(x):
    return mp.tan(x / 2) ** 2 / (x / 2) ** 2


FORMER_TABLE11 = {
    "table11_1_lower": lambda x: (1 + mp.cos(x)) / 2,
    "table11_1_upper": lambda x: (2 + mp.cos(x)) / 3,
    "table11_2_lower": lambda x: mp.cbrt(mp.cos(x)) if mp.cos(x) >= 0 else -mp.cbrt(-mp.cos(x)),
    "table11_2_upper": lambda x: (2 + mp.cos(x)) / 3,
    "table11_4_lower": lambda x: (1 - 7 * x**2 / 60) / (1 + x**2 / 20),
    "table11_4_upper": lambda x: (1 - x**2 / 7 + 11 * x**4 / 2520) / (1 + x**2 / 42),
    "table11_5_lower": lambda x: 2 + 23 * x**3 * mp.sin(x) / 720 - _former_tan_ratio(x),
    "table11_5_upper": lambda x: 2
    + (128 - 16 * mp.pi**2 + 16 * mp.pi) * x**3 * mp.sin(x) / mp.pi**5
    - _former_tan_ratio(x),
    "table11_8_lower": lambda x: (28 / mp.pi + 6 * mp.cos(x)) / (14 + mp.cos(x)),
    "table11_8_upper": lambda x: (9 + 6 * mp.cos(x)) / (14 + mp.cos(x)),
    "table11_10_lower": lambda x: (2 + mp.cos(x) - _former_k0() * x**2)
    / (3 - _former_k0() * x**2),
    "table11_10_upper": lambda x: (2 + mp.cos(x) - x**2 / 10) / (3 - x**2 / 10),
}


def former_column(body, xs, digits):
    # |1 - body(x)/sinc(x)| per point, with a fresh sin for the reference
    with mp.workdps(digits + 10):
        out = []
        for xv in xs:
            sinc = mp.sin(xv) / xv if xv != 0 else mp.mpf(1)
            out.append(abs(1 - body(xv) / sinc))
        return out


def test_figure_values_follow_precision():
    # one x read at 50, then 90, then 50 digits in one process: every value
    # figures 1 and 2 share between curves, and every constant, is that of
    # its own precision.  The grid's right end holds 120 digits, more than
    # any of these precisions; a point that wide given to the shared pass
    # itself is rounded on entry, as a curve on its own rounds it.
    with mp.workdps(120):
        right = mp.mpf(14) / 9
    for digits in (50, 90, 50):
        grid = Grid(mp.mpf(0), right, 5, digits)
        xs = grid.points(digits)
        fig1 = figure_data("1", grid)["columns"]
        wide = _table11_curves((1, 2, 4, 5, 8, 10), [right], _call_references(), digits)
        for name, formula in FORMER_TABLE11.items():
            body = lambda x, f=formula, row5="_5_" in name: mp.mpf(1) if row5 and x == 0 else f(x)
            want = former_column(body, xs, digits)
            assert [v._mpf_ for v in fig1[name]] == [v._mpf_ for v in want], (name, digits)
            assert wide[name][0]._mpf_ == want[-1]._mpf_, (name, digits)
        fig2 = figure_data("2", grid)["columns"]
        for n in range(3):
            for d in ("lower", "upper"):
                want = former_column(lambda x: zhu_body_per_point(n, d, x, digits), xs, digits)
                got = fig2[f"zhu_{n}_{d}"]
                assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (n, d, digits)


def module_store_sizes() -> dict:
    """Size of every memo, dict, list and set held at module level by the package."""
    sizes = {}
    for name, module in sys.modules.items():
        if name == "splinebound" or name.startswith("splinebound."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info"):
                    sizes[name, attr] = value.cache_info().currsize
                elif isinstance(value, (dict, list, set)):
                    sizes[name, attr] = len(value)
    return sizes


def test_figure_data_keeps_no_point_values():
    # the second round asks for new points at the same precision: a store
    # of per-point values would grow, a per-precision constant would not.
    # The Si memo is the one store kept across calls by design: it is
    # bounded, and keyed by (x, digits).
    figures = [str(i) for i in range(1, 9)]
    for f in figures:
        figure_data(f, half_pi_grid(7, 50))
    before = module_store_sizes()
    for f in figures:
        figure_data(f, half_pi_grid(11, 50))
    after = module_store_sizes()
    grown = {key for key in after if after[key] != before.get(key)}
    assert grown <= {("splinebound.analysis", "_si_value")}
