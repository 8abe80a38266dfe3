"""Relative-error scans, certification, scale invariance, tables, figures."""

import mpmath as mp
import pytest

from splinebound.analysis import (
    Grid,
    certify_direction,
    figure_data,
    half_pi_grid,
    matches_sig_figs,
    re_bound_scan,
    reference_for,
    relative_error,
    reproduce_table,
    scale_check,
    TABLE_3_1,
)
from splinebound.bounds import sine_lower, sine_upper


class TestGrid:
    def test_points_inclusive(self):
        g = half_pi_grid(5, 30)
        pts = g.points()
        assert len(pts) == 5
        with mp.workdps(40):
            assert pts[0] == 0
            assert abs(pts[-1] - mp.pi / 2) < mp.mpf(10) ** (-28)
            assert abs(pts[2] - mp.pi / 4) < mp.mpf(10) ** (-28)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid(mp.mpf(0), mp.mpf(1), 1, 30)

    def test_half_pi_to_any_precision(self):
        g = half_pi_grid(5, 80)
        assert g.digits == 80
        with mp.workdps(90):
            assert g.left == 0
            assert abs(g.right - mp.pi / 2) < mp.mpf(10) ** (-78)
            assert g.points()[-1] == g.right


class TestRelativeError:
    def test_zero_limit_for_sin_target(self):
        # the spline has unit slope at 0, so the limit of re is 0
        b = sine_lower(2)
        v = relative_error(b, reference_for("sin"), mp.mpf(0), 30)
        assert v == 0

    def test_zero_limit_zeroth_order(self):
        # the order-0 chord has slope 2/pi: re(0) = 1 - 2/pi
        b = sine_lower(0)
        v = relative_error(b, reference_for("sin"), mp.mpf(0), 30)
        with mp.workdps(40):
            assert abs(v - (1 - 2 / mp.pi)) < mp.mpf(10) ** (-28)

    def test_interior_value(self):
        digits = 30
        b = sine_lower(1)
        with mp.workdps(digits + 10):
            x = mp.pi / 4
            v = relative_error(b, reference_for("sin"), x, digits)
            direct = 1 - b.eval_raw(x, digits) / mp.sin(x)
            assert abs(v - direct) < mp.mpf(10) ** (-digits + 5)


class TestReBoundScan:
    @pytest.mark.parametrize("order", (4, 8))
    def test_matches_published_row(self, order):
        rep = re_bound_scan(
            sine_lower(order), reference_for("sin"), half_pi_grid(1000, 50)
        )
        assert matches_sig_figs(rep.re_bound, TABLE_3_1[order])

    def test_precision_escalates(self):
        # order 8 has re ~ 2e-18; a 50-digit request should have been raised
        # no further, but the bound must still be resolved well above noise
        rep = re_bound_scan(
            sine_lower(8), reference_for("sin"), half_pi_grid(400, 50)
        )
        assert rep.digits >= 50
        assert rep.re_bound > mp.mpf(10) ** (-rep.digits + 10)

    def test_needs_a_round(self):
        with pytest.raises(ValueError, match="max_rounds"):
            re_bound_scan(
                sine_lower(2), reference_for("sin"), half_pi_grid(10, 50), 50, max_rounds=0
            )

    def test_grid_refinement_stable(self):
        # refining 1000 -> 4000 points moves the measured bound by < 1%
        coarse = re_bound_scan(
            sine_lower(2), reference_for("sin"), half_pi_grid(1000, 50)
        )
        fine = re_bound_scan(
            sine_lower(2), reference_for("sin"), half_pi_grid(4000, 50)
        )
        assert abs(coarse.re_bound - fine.re_bound) < 0.01 * fine.re_bound


class TestCertification:
    def test_lower_bound_certifies(self):
        ok, rep = certify_direction(sine_lower(3), half_pi_grid(500, 50))
        assert ok
        floor = mp.mpf(10) ** (-(rep.digits - 10))
        assert all(v >= -floor for v in rep.re_values)

    def test_upper_bound_certifies(self):
        ok, rep = certify_direction(sine_upper(2), half_pi_grid(500, 50))
        assert ok
        floor = mp.mpf(10) ** (-(rep.digits - 10))
        assert all(v <= floor for v in rep.re_values)

    def test_wrong_direction_fails(self):
        from splinebound.bounds import BoundFn

        impostor = BoundFn("spline", 2, "upper", "sin", sine_lower(2).body)
        ok, _ = certify_direction(impostor, half_pi_grid(200, 50))
        assert not ok


class TestScaleCheck:
    def test_passes_for_spline(self):
        out = scale_check(sine_lower(2), half_pi_grid(200, 50))
        assert out["pass"]
        assert out["max_deviation"] < mp.mpf(10) ** (-40)

    def test_rejects_non_polynomial(self):
        from splinebound.bounds import zhu_bound

        with pytest.raises(ValueError):
            scale_check(zhu_bound(0, "lower"), half_pi_grid(10, 30))


class TestMatchesSigFigs:
    def test_three_figures(self):
        assert matches_sig_figs(3.312e-4, 3.31e-4)
        assert not matches_sig_figs(3.36e-4, 3.31e-4)
        assert matches_sig_figs(0, 0)
        assert not matches_sig_figs(1e-9, 0)


class TestTables:
    def test_spot_rows(self):
        rows = reproduce_table("2.1", samples=400)
        by_order = {r["order"]: r for r in rows}
        assert by_order[1]["pass"]
        assert by_order[9]["pass"]
        assert by_order[1]["direction"] == "upper"
        assert by_order[3]["direction"] == "lower"

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            reproduce_table("9.9")

    @pytest.mark.parametrize(
        "table_id,label,rows,keys",
        (
            ("2.1", "order", [1, 3, 5, 7, 9, 13, 17, 33],
             ["table", "order", "direction", "computed", "expected", "pass"]),
            ("3.1", "order", [0, 1, 2, 3, 4, 6, 8, 16, 32],
             ["table", "order", "computed", "expected", "pass"]),
            ("5.1", "terms", [1, 2, 3, 4, 6, 8, 12, 16, 20],
             ["table", "terms", "computed_first", "expected_first",
              "computed_second", "expected_second", "pass"]),
            ("5.2", "order", [0, 1, 2, 3, 4, 8, 12, 16],
             ["table", "order", "computed", "expected", "pass"]),
        ),
    )
    def test_row_keys(self, table_id, label, rows, keys):
        out = reproduce_table(table_id, samples=5)
        assert [r[label] for r in out] == rows
        assert [list(r) for r in out] == [keys] * len(rows)
        assert all(r["table"] == table_id for r in out)

    def test_unstated_cell(self):
        row = reproduce_table("5.1", samples=5)[0]
        assert row["terms"] == 1
        assert row["computed_second"] is None
        assert row["expected_second"] == "not stated in source table"


# every figure's columns after x, in order
FIGURE_COLUMNS = {
    "1": [f"table11_{r}_{d}" for r in (1, 2, 4, 5, 8, 10) for d in ("lower", "upper")],
    "2": ["zhu_0_lower", "zhu_0_upper", "zhu_1_lower", "zhu_1_upper",
          "zhu_2_lower", "zhu_2_upper"],
    "3": ["spline_1", "spline_2", "spline_3", "spline_4",
          "taylor_1", "taylor_3", "taylor_5", "taylor_7", "taylor_9"],
    "4": ["err_spline_1", "err_spline_2", "err_spline_3", "err_spline_4"],
    "5": [f"series1_{n}" for n in range(1, 10)],
    "6": [f"series2_{n}" for n in range(2, 10)],
    "7": ["err_upper_2", "err_upper_3", "err_upper_4"],
    "8": ["si_spline_1", "si_spline_2", "si_spline_3", "si_spline_4", "lv"],
}


class TestFigures:
    @pytest.mark.parametrize(
        "fid,ncols",
        (("1", 13), ("2", 7), ("3", 10), ("4", 5), ("5", 10), ("6", 9), ("7", 4), ("8", 6)),
    )
    def test_shapes(self, fid, ncols):
        grid = half_pi_grid(11, 30)
        data = figure_data(fid, grid)
        assert data["figure"] == fid
        assert data["samples"] == 11
        cols = data["columns"]
        assert len(cols) == ncols
        assert list(cols) == ["x", *FIGURE_COLUMNS[fid]]
        assert all(len(v) == 11 for v in cols.values())

    def test_magnitudes_are_nonnegative(self):
        data = figure_data("3", half_pi_grid(11, 30))
        for name, vals in data["columns"].items():
            if name == "x":
                continue
            assert all(v >= 0 for v in vals)

    def test_abs_re_keeps_working_precision(self):
        # |re| is taken at digits + 10, like the values it comes from: a
        # 50-digit figure carries about 200-bit mantissas, not 53-bit ones
        data = figure_data("3", half_pi_grid(5, 50))
        assert data["digits"] == 50
        for name, vals in data["columns"].items():
            for v in vals[1:-1]:  # re is 0 or rounding noise at 0 and pi/2
                assert v._mpf_[3] > 150, (name, v._mpf_[3])

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_data("0", half_pi_grid(5, 30))
