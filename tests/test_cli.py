"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import splinebound
from splinebound import analysis
from splinebound.cli import (
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_TABLE_MISMATCH,
    EXIT_USAGE,
    LIMITS,
    MAX_ORDER,
    build_parser,
    codegen_kernel,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "sin", "1", "both", "--digits", "10")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["target"] == "sin"
        assert payload["order"] == 1
        assert len(payload["coefficients_exact"]) == 4
        assert len(payload["coefficients_decimal"]) == 4
        # x^1 coefficient of the order-1 approximant is exactly 1
        assert payload["coefficients_decimal"][1].startswith("1")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "gen", "cos", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "power,decimal"
        assert len(lines) == 7  # header + degree-5 polynomial

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "text", "gen", "si", "1")
        assert code == EXIT_OK
        assert "si spline approximant, order 1" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "gen.json"
        code, out, _ = run_cli(capsys, "--out", str(dest), "gen", "sin", "0")
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(dest.read_text())
        assert payload["order"] == 0

    @pytest.mark.parametrize("where", ("missing/gen.json", "."))
    def test_out_unwritable_is_usage_error(self, tmp_path, capsys, where):
        # a missing directory, or a directory itself
        code, out, err = run_cli(capsys, "--out", str(tmp_path / where), "gen", "sin", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBounds:
    def test_certified_lower(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "200", "bounds", "sin", "2", "lower"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["direction"] == "lower"
        assert float(payload["re_bound"]) == pytest.approx(3.31e-4, rel=2e-2)

    def test_certified_upper_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "200", "--format", "text", "bounds", "sin", "2", "upper"
        )
        assert code == EXIT_OK
        assert "pass" in out

    def test_si_upper_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "si", "1", "upper")
        assert code == EXIT_USAGE
        assert "error" in err


class TestTable:
    def test_reproduces(self, capsys):
        code, out, _ = run_cli(capsys, "--samples", "400", "table", "2.1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload) == 8
        assert all(r["pass"] == "True" for r in payload)

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "400", "--format", "csv", "table", "2.1"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("table,order")

    @pytest.mark.parametrize("fmt", ("json", "csv", "text"))
    def test_unstated_published_value(self, capsys, fmt):
        # row 1's second-order cell is the one value the source does not
        # state: it prints empty, and the row still passes
        code, out, _ = run_cli(capsys, "--samples", "100", "--format", fmt, "table", "5.1")
        assert code == EXIT_OK
        if fmt == "text":
            first = out.splitlines()[0]
            assert first.startswith("table 5.1 row 1: ") and first.endswith("  pass")
            assert "  computed_second=  expected_second=not stated in source table  " in first
            return
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9 and rows[0]["terms"] == "1" and rows[0]["pass"] == "True"
        assert rows[0]["computed_second"] == ""
        assert rows[0]["expected_second"] == "not stated in source table"
        assert all(r["computed_second"] != "" for r in rows[1:])


class TestFigure:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "11", "--format", "csv", "figure", "4"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "x"
        assert len(lines) == 12

    def test_cube_root_of_rounded_cos_is_real(self, capsys):
        # cos at pi/2 rounded to 34 digits is negative: table 1.1 row 2's
        # cube root used to turn complex and raise TypeError
        code, out, _ = run_cli(capsys, "--precision", "24", "--samples", "2", "figure", "1")
        assert code == EXIT_OK
        assert json.loads(out)["columns"]["table11_2_lower"][1].startswith("1.0")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "--samples", "11", "figure", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["samples"] == 11
        assert "zhu_0_lower" in payload["columns"]


class TestCodegen:
    def test_rounded_kernel(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "300", "codegen", "sin", "2", "--digits", "17"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["horner_coefficients"]) == 6
        assert payload["horner_coefficients"][1] == "1.0"
        # rounding at 17 digits leaves the certified bound at the exact level
        assert float(payload["certified_re_bound"]) == pytest.approx(3.31e-4, rel=2e-2)

    @pytest.mark.parametrize("order, remainder", ((2, -2.06e-18), (8, 1.88e-18)))
    def test_cos_kernel_does_not_vanish_at_half_pi(self, order, remainder):
        # rounding the coefficients moves the kernel off cos's root at pi/2
        _, kernel = codegen_kernel("cos", order, 17)
        with mp.workdps(60):
            value = kernel.eval_raw(mp.pi / 2, 50)
        assert float(value) == pytest.approx(remainder, rel=1e-2)

    @pytest.mark.xfail(
        strict=True,
        reason="relative_error takes the l'Hopital limit within 10^(-digits/2) "
        "of pi/2, which assumes a root there that the rounded kernel lacks",
    )
    def test_cos_kernel_re_at_half_pi(self):
        # the re that `codegen cos 8` scans at its last grid point, x = pi/2
        _, kernel = codegen_kernel("cos", 8, 17)
        digits = analysis.digits_for_bound(analysis.TABLE_3_1[8])
        x = analysis.half_pi_grid(1000, digits).points(digits)[-1]
        with mp.workdps(digits + 10):
            reported = analysis.relative_error(
                kernel, analysis.reference_for("cos"), x, digits
            )
            direct = 1 - kernel.eval_raw(x, digits) / mp.cos(x)
            assert mp.almosteq(abs(reported), abs(direct), rel_eps=1e-6)


class TestUsage:
    def test_low_precision_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--precision", "5", "gen", "sin", "1")
        assert code == EXIT_USAGE
        assert "precision" in err

    def test_low_samples_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--samples", "1", "gen", "sin", "1")
        assert code == EXIT_USAGE

    def test_negative_order_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "sin", "-2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ("gen", "bounds", "codegen"))
    def test_order_above_budget_rejected(self, capsys, command):
        extra = ("lower",) if command == "bounds" else ()
        code, out, err = run_cli(capsys, command, "sin", str(MAX_ORDER + 1), *extra)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip() == "error: order must be <= 64"

    def test_budgets(self):
        assert {name: (least, largest) for name, least, largest in LIMITS} == {
            "--precision": (10, 1000),
            "--samples": (2, 100000),
            "order": (0, MAX_ORDER),
            "--digits": (1, 1000),
        }

    # one past each budget, on requests that stay cheap even if a check
    # were missing
    @pytest.mark.parametrize(
        "argv,message",
        (
            (("--samples", "100001", "gen", "sin", "1"), "error: --samples must be <= 100000"),
            (("--precision", "1001", "gen", "sin", "1"), "error: --precision must be <= 1000"),
            (("gen", "sin", "1", "--digits", "1001"), "error: --digits must be <= 1000"),
            (("--samples", "2", "codegen", "sin", "1", "--digits", "1001"),
             "error: --digits must be <= 1000"),
        ),
    )
    def test_above_budget_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("--format", "csv", "codegen", "sin", "2"),
             "error: codegen writes --format json, not csv"),
            (("--format", "text", "codegen", "sin", "2"),
             "error: codegen writes --format json, not text"),
            (("--format", "csv", "bounds", "sin", "2", "lower"),
             "error: bounds writes --format json or text, not csv"),
            (("--format", "text", "figure", "4"),
             "error: figure writes --format json or csv, not text"),
        ),
    )
    def test_unwritten_format_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == message + "\n"

    def test_unknown_target(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "tan", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("digits", ("-3", "0"))
    def test_codegen_digits_below_one_rejected(self, capsys, digits):
        code, out, err = run_cli(capsys, "codegen", "sin", "3", "--digits", digits)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip() == "error: --digits must be >= 1"

    def test_env_precision_default(self, monkeypatch):
        monkeypatch.setenv("SPLINEBOUND_PRECISION", "77")
        args = build_parser().parse_args(["gen", "sin", "1"])
        assert args.precision == 77

    def test_malformed_env_precision_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("SPLINEBOUND_PRECISION", "abc")
        code, _, err = run_cli(capsys, "gen", "sin", "1")
        assert code == EXIT_USAGE
        assert "error:" in err and "precision" in err


# Small ranges keep each request cheap: at most 20 points at order <= 4.
_ORDERS = st.integers(min_value=0, max_value=4).map(str)
_DIGITS = st.integers(min_value=-3, max_value=60).map(str)
_TARGETS = st.sampled_from(("sin", "cos", "si", "tan"))
_COMMANDS = st.one_of(
    st.tuples(
        st.just("gen"), _TARGETS, _ORDERS,
        st.sampled_from(("exact", "decimal", "both", "rational")),
        st.just("--digits"), _DIGITS,
    ),
    st.tuples(
        st.just("bounds"), _TARGETS, _ORDERS, st.sampled_from(("lower", "upper", "inner"))
    ),
    st.tuples(st.just("codegen"), _TARGETS, _ORDERS, st.just("--digits"), _DIGITS),
    st.tuples(st.just("figure"), st.integers(min_value=0, max_value=9).map(str)),
    st.tuples(st.just("table"), st.sampled_from(("2.1", "4.4"))),
)


@st.composite
def cli_argv(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--precision", draw(_DIGITS)]
    argv += ["--samples", str(draw(st.integers(min_value=-1, max_value=20)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "csv", "text", "yaml")))]
    return argv + list(draw(_COMMANDS))


class TestFuzz:
    @given(argv=cli_argv())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_is_documented(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_CERTIFICATION, EXIT_TABLE_MISMATCH)
        if code == EXIT_USAGE:
            assert "error" in err.getvalue()


# stdout and exit code of each request of the benchmark's `cli` workload, as
# recorded by the benchmark (read only here); a drift in printed digits fails
# this before the benchmark run does
GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli.json"
_GOLDEN = json.loads(GOLDEN_CLI.read_text())["results"] if GOLDEN_CLI.is_file() else {}


class TestGolden:
    def test_population_recorded(self):
        # without the file the parametrized test below would have no cases
        assert len(_GOLDEN) == 38

    @pytest.mark.parametrize("request_key", sorted(_GOLDEN))
    def test_stdout_bytes(self, request_key, monkeypatch, capsysbinary):
        monkeypatch.delenv("SPLINEBOUND_PRECISION", raising=False)
        code = main(request_key.split(" "))
        out = capsysbinary.readouterr().out
        assert {
            "rc": code,
            "stdout_bytes": len(out),
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
        } == _GOLDEN[request_key]


def run_child(*argv):
    """A fresh interpreter run with `argv`, importing the same package as
    this test, installed or not."""
    src = os.path.dirname(os.path.dirname(splinebound.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env
    )


class TestEntryPoint:
    def test_installed_script(self):
        proc = run_child("-m", "splinebound.cli", "gen", "sin", "1", "exact")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["target"] == "sin"

    def test_import_loads_no_dataclasses(self):
        # each CLI request is a fresh process and pays for every module the
        # package imports; it needs neither `dataclasses` nor the `inspect`
        # that `dataclasses` imports
        proc = run_child(
            "-c",
            "import sys; before = set(sys.modules); import splinebound.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
