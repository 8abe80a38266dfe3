"""Acceptance gate: eight criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` before asserting, so the
summary survives in captured output either way.  Tolerances: published table
values are matched to 3 significant figures; the rounded-kernel bounds of
criterion 8 to 2 significant figures (the printed coefficients round the
exact values correctly, but the published bounds themselves are only
reproducible to about that level).
"""

from fractions import Fraction

import mpmath as mp

from splinebound.analysis import (
    certify_direction,
    half_pi_grid,
    re_bound_scan,
    reference_for,
    reproduce_table,
)
from splinebound.bounds import (
    BoundFn,
    reflect_to_cos,
    si_lower,
    sine_lower,
    sine_upper,
    sufficiency_check,
)
from splinebound.numerics import Poly, Var, digits_for_bound, horner_eval
from splinebound.series import order1_coefficients, order2_coefficients
from splinebound.spline import HALF_PI, cosine_spline, sine_spline
from splinebound.numerics import PiRational

from fixtures_exact import (
    COSINE_SPLINES,
    F2_UPPER,
    ORDER1_CLOSED,
    ORDER1_DECIMALS,
    ORDER2_CLOSED,
    ORDER2_DECIMALS,
    SINE_SPLINES,
    SI_SPLINES,
)

SAMPLES = 1000


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def table_ok(table_id):
    rows = reproduce_table(table_id, samples=SAMPLES)
    return all(r["pass"] for r in rows)


def test_criterion_1_table_3_1():
    assert report(1, "spline re_bound table", table_ok("3.1"))


def test_criterion_2_table_2_1():
    assert report(2, "taylor re_bound table", table_ok("2.1"))


def test_criterion_3_table_5_1():
    assert report(3, "sine series re_bound table", table_ok("5.1"))


def test_criterion_4_table_5_2():
    assert report(4, "sine integral re_bound table", table_ok("5.2"))


def test_criterion_5_exact_fixtures():
    ok = all(sine_spline(n) == SINE_SPLINES[n] for n in SINE_SPLINES)
    ok = ok and all(cosine_spline(n) == COSINE_SPLINES[n] for n in COSINE_SPLINES)
    ok = ok and all(si_lower(n).body == SI_SPLINES[n] for n in SI_SPLINES)
    ok = ok and sine_upper(2).body == F2_UPPER
    assert report(5, "exact coefficient fixtures", ok)


def test_criterion_6_recurrences():
    s1 = order1_coefficients(12)
    s2 = order2_coefficients(12)
    ok = all(s1.coeffs[k] == v for k, v in ORDER1_CLOSED.items())
    ok = ok and all(s2.coeffs[k] == v for k, v in ORDER2_CLOSED.items())
    for series, decimals in ((s1, ORDER1_DECIMALS), (s2, ORDER2_DECIMALS)):
        for k, expected in decimals.items():
            got = float(series.coeffs[k].to_ext_real(20))
            # the stated decimals carry 5-6 significant figures
            ok = ok and abs(got - expected) <= 1e-4 * abs(expected)
    assert report(6, "coefficient recurrences", ok)


def _suite_a():
    for build, start in ((order1_coefficients, 2), (order2_coefficients, 3)):
        s = build(60)
        prev = None
        for k in range(start, 61):
            v = s.coeffs[k].to_ext_real(160)
            if v <= 0 or (prev is not None and v >= prev):
                return False
            prev = v
    return True


def _suite_b():
    return sufficiency_check(50).all_positive


def _suite_c():
    grid = half_pi_grid(500, 50)
    bounds = [sine_lower(n) for n in range(9)]
    bounds += [sine_upper(n) for n in range(2, 9)]
    bounds += [reflect_to_cos(b) for b in bounds]
    bounds += [si_lower(n) for n in range(1, 9)]
    for b in bounds:
        ok, _ = certify_direction(b, grid)
        if not ok:
            return False
    return True


def _suite_d():
    from splinebound.series import eval_error_series

    digits = 40
    with mp.workdps(digits + 10):
        for build, order in ((order1_coefficients, 1), (order2_coefficients, 2)):
            series = build(120)
            spline = sine_spline(order)
            for i in range(101):
                t = mp.mpf(i) / 100
                x = mp.pi * t / 2
                approx = eval_error_series(series, t, digits, 119 - series.start_index)
                truth = mp.sin(x) - horner_eval(spline, x, digits)
                if abs(approx - truth) >= mp.mpf(10) ** (-25):
                    return False
    return True


def _suite_e():
    import math

    for build, order in ((order1_coefficients, 1), (order2_coefficients, 2)):
        series = build(10)
        expanded = series.to_monomials(10)
        spline_in_t = sine_spline(order).substitute_affine(
            PiRational.zero(), HALF_PI, Var.T_ON_0_1
        )
        for m in range(11):
            if m % 2 == 0:
                taylor = PiRational.zero()
            else:
                sign = 1 if (m // 2) % 2 == 0 else -1
                taylor = PiRational.pi_term(m, sign, 2**m * math.factorial(m))
            if expanded.coeff(m) != taylor - spline_in_t.coeff(m):
                return False
    return True


def test_criterion_7_property_suites():
    parts = {
        "a": _suite_a(),
        "b": _suite_b(),
        "c": _suite_c(),
        "d": _suite_d(),
        "e": _suite_e(),
    }
    ok = all(parts.values())
    assert report(7, f"property suites {parts}", ok)


# printed rounded-coefficient kernels with their published re_bounds
ROUNDED_KERNELS = [
    (
        2,
        ["0", "1", "0", "-0.1699", "0.0055", "0.0056"],
        6.59e-4,
    ),
    (
        4,
        ["0", "1", "0"]
        + [Fraction(-1, 6), "0", "8.33165e-3", "5.17e-6", "-2.0463e-4", "3.55e-6", "1.89e-6"],
        4.31e-7,
    ),
    (
        6,
        ["0", "1", "0", Fraction(-1, 6), "0", Fraction(1, 120), "0",
         "-1.98412876e-4", "7.78e-10", "2.754282e-6", "1.485e-9", "-2.5944e-8",
         "3.06e-10", "1.11e-10"],
        4.39e-11,
    ),
    (
        8,
        ["0", "1", "0", Fraction(-1, 6), "0", Fraction(1, 120), "0",
         Fraction(-1, 5040), "0", "2.755731916334e-6", "3.43891e-14",
         "-2.50521948e-8", "1.26122e-13", "1.604729071e-10", "7.21759e-14",
         "-7.936185e-13", "7.0722e-15", "1.956e-15"],
        5.66e-17,
    ),
]


def _rounded_re_bound(coeff_specs, expected):
    # each printed coefficient is exactly the rational number it spells
    digits = digits_for_bound(expected)
    coeffs = [PiRational.from_rational(Fraction(c)) for c in coeff_specs]
    poly = Poly(coeffs, Var.X_ON_0_HALFPI)
    kernel = BoundFn("kernel", 0, "approximation", "sin", poly)
    rep = re_bound_scan(
        kernel, reference_for("sin"), half_pi_grid(SAMPLES, digits)
    )
    return rep.re_bound


def test_criterion_8_rounded_kernels():
    ok = True
    for order, specs, expected in ROUNDED_KERNELS:
        got = _rounded_re_bound(specs, expected)
        # 2 significant figures, relative to the recomputed bound
        ok = ok and abs(mp.mpf(expected) - got) <= mp.mpf("0.1") * got
    assert report(8, "rounded kernel certification", ok)
