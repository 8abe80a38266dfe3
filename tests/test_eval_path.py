"""Every evaluation site agrees bit for bit with a reference loop.

The reference reads each exact coefficient at the working precision
through to_ext_real and then does nested multiplication, or for the sine
series the term sum, written out here apart from the package.  Each site must return the
identical mpf (==, not a tolerance).
"""

import mpmath as mp
import pytest

from splinebound.analysis import figure_data, half_pi_grid
from splinebound.bounds import reflect_to_cos, si_lower, sine_lower, sine_upper
from splinebound.cli import codegen_kernel
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


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("figure,variant,n", (("5", "order1", 4), ("6", "order2", 3)))
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
