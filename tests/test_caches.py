"""Cached and shared values are bit-identical to computing them afresh.

Exact coefficients are converted once per precision, `sine_spline` is built
once per order, a figure's sin column is shared by its curves and
`si_reference` computes each term once.  Each test compares `_mpf_` tuples
(or ==) against a fresh computation or a reference kept here.
"""

from math import factorial

import mpmath as mp
import pytest

from splinebound.analysis import (
    certify_direction,
    figure_data,
    half_pi_grid,
    re_bound_scan,
    reference_for,
)
from splinebound.bounds import si_reference, sine_lower, sine_upper
from splinebound.numerics import ExtReal, PiRational
from splinebound.series import sine_series
from splinebound.spline import sine_endpoint_data, sine_spline, two_point_spline


def fresh_copy(p: PiRational) -> PiRational:
    return PiRational.from_json_dict(p.to_json_dict())


def test_conversion_cached_per_precision():
    p = sine_spline(2).poly.coeff(3)
    assert len(p.terms) > 1
    first = p.to_ext_real(90)
    for digits in (90, 50, 90):
        got = p.to_ext_real(digits)
        want = fresh_copy(p).to_ext_real(digits)
        assert got.digits == want.digits == digits
        assert got.value._mpf_ == want.value._mpf_
    assert p.to_ext_real(90) is first


@pytest.mark.parametrize("n", (0, 1, 4, 7))
def test_sine_spline_built_once(n):
    s = sine_spline(n)
    assert sine_spline(n) is s
    assert isinstance(s.poly.coefficients, tuple)
    assert s.poly == two_point_spline(sine_endpoint_data(n), n).poly


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
    rep = re_bound_scan(sine_lower(8), ref, grid, 50)
    assert (rep.rounds, rep.converged, rep.digits) == (2, True, 56)
    capped = re_bound_scan(sine_lower(8), ref, grid, 50, max_rounds=1)
    assert (capped.rounds, capped.converged) == (1, False)


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
        return ExtReal(total, digits).value


@pytest.mark.parametrize("digits", (50, 68, 90))
def test_si_reference_matches_two_power_loop(digits):
    for xv in half_pi_grid(41, digits).points(digits):
        got = si_reference(ExtReal(xv, digits)).value
        assert got._mpf_ == si_reference_two_powers(xv, digits)._mpf_


def test_figure5_shared_sin_column():
    digits = 50
    grid = half_pi_grid(25, digits)
    cols = figure_data("5", grid)["columns"]
    for n in range(1, 10):
        s = sine_series("order1", n)
        with mp.workdps(digits + 10):
            # the former column: its own mp.sin at every point
            expected = [
                abs(1 - s.eval(xv, digits, n) / mp.sin(xv)) if xv != 0 else mp.mpf(0)
                for xv in grid.points(digits)
            ]
        assert [v._mpf_ for v in cols[f"series1_{n}"]] == [v._mpf_ for v in expected]
