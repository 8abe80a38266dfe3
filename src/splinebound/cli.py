"""Command-line frontend.

Commands: gen, bounds, table, figure, codegen.  All numeric output is
decimal strings so downstream consumers choose their own precision.

Exit codes: 0 success, 1 usage error, 2 certification failure,
3 table mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import mpmath as mp

from . import analysis
from .bounds import (
    BoundFn,
    reflect_to_cos,
    si_lower,
    sine_lower,
    sine_upper,
)
from .numerics import DEFAULT_DIGITS, PiRational, Poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_TABLE_MISMATCH = 3

# A cold exact build still grows faster than order^2 (a cold `gen cos 64`
# takes about 1.2 s on one Xeon core, `gen cos 32` 0.35 s), so an unchecked
# order can run for hours; the published tables go up to order 32.
MAX_ORDER = 64

# (argument, least, largest value): anything outside is a usage error found
# before any work starts, so no request runs without bound
LIMITS = (
    ("--precision", 10, 1000),
    ("--samples", 2, 100000),
    ("order", 0, MAX_ORDER),
    ("--digits", 1, 1000),
)


def _nstr(value, digits: int) -> str:
    with mp.workdps(digits + 5):
        return mp.nstr(mp.mpf(value), digits)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bound_for(target: str, order: int, direction: str) -> BoundFn:
    if target == "sin":
        return sine_lower(order) if direction == "lower" else sine_upper(order)
    if target == "cos":
        base = sine_lower(order) if direction == "lower" else sine_upper(order)
        return reflect_to_cos(base)
    if target == "si":
        if direction != "lower":
            raise ValueError("only lower bounds are defined for the sine integral")
        return si_lower(order)
    raise ValueError(f"unknown target {target!r}")


def cmd_gen(args) -> int:
    poly = _bound_for(args.target, args.order, "lower").body
    payload = {
        "target": args.target,
        "order": args.order,
        "variable": poly.variable.value,
        "domain": ["0", "pi/2"],
    }
    if args.form in ("exact", "both"):
        payload["coefficients_exact"] = [c.to_json_dict() for c in poly.coefficients]
    if args.form in ("decimal", "both"):
        payload["coefficients_decimal"] = [
            c.to_decimal_string(args.digits) for c in poly.coefficients
        ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["power", "decimal"])
        for k, c in enumerate(poly.coefficients):
            writer.writerow([k, c.to_decimal_string(args.digits)])
        _emit(buf.getvalue(), args.out)
    elif args.format == "text":
        lines = [f"{args.target} spline approximant, order {args.order}"]
        for k, c in enumerate(poly.coefficients):
            lines.append(f"  x^{k}: {c.to_decimal_string(args.digits)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    bound = _bound_for(args.target, args.order, args.direction)
    grid = analysis.half_pi_grid(args.samples, args.precision)
    ok, report = analysis.certify_direction(bound, grid)
    payload = {
        "target": args.target,
        "order": args.order,
        "direction": args.direction,
        "samples": args.samples,
        "grid": "equally spaced, endpoints included",
        "re_bound": _nstr(report.re_bound, 6),
        "argmax": _nstr(report.argmax, 10),
        "digits": report.digits,
        "certified": ok,
    }
    if args.format == "text":
        status = "pass" if ok else "FAIL"
        _emit(
            f"{args.target} order {args.order} {args.direction}: {status}  "
            f"re_bound={payload['re_bound']} at x={payload['argmax']}\n",
            args.out,
        )
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_table(args) -> int:
    rows = analysis.reproduce_table(args.id, samples=args.samples)
    ok = all(r["pass"] for r in rows)

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, (str, int, bool)):
            return str(v)
        return _nstr(v, 3)

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(rows[0].keys())
        writer.writerow(keys)
        for r in rows:
            writer.writerow([fmt(r[k]) for k in keys])
        _emit(buf.getvalue(), args.out)
    elif args.format == "json":
        _emit(
            json.dumps(
                [{k: fmt(v) for k, v in r.items()} for r in rows], indent=2
            )
            + "\n",
            args.out,
        )
    else:
        lines = []
        for r in rows:
            label = r.get("order", r.get("terms"))
            cells = [
                f"{k}={fmt(v)}"
                for k, v in r.items()
                if k not in ("table", "order", "terms", "pass")
            ]
            lines.append(
                f"table {r['table']} row {label}: "
                + "  ".join(cells)
                + ("  pass" if r["pass"] else "  FAIL")
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_TABLE_MISMATCH


def cmd_figure(args) -> int:
    grid = analysis.half_pi_grid(args.samples, args.precision)
    data = analysis.figure_data(args.id, grid)
    cols = data["columns"]
    names = list(cols.keys())
    if args.format == "json":
        payload = {
            "figure": data["figure"],
            "samples": data["samples"],
            "grid": "equally spaced, endpoints included",
            "columns": {k: [_nstr(v, 12) for v in vs] for k, vs in cols.items()},
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for i in range(data["samples"]):
            writer.writerow([_nstr(cols[k][i], 12) for k in names])
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _round_coefficient(c: PiRational, digits: int) -> str:
    # round-half-even at `digits` significant decimal digits
    v = c.to_ext_real(digits + 15)
    if v == 0:
        return "0"
    with mp.workdps(digits + 20):
        return mp.nstr(v, digits, strip_zeros=False)


def codegen_kernel(target: str, order: int, digits: int) -> tuple[list[str], BoundFn]:
    """The order-n lower bound's coefficients rounded to `digits` significant
    digits, and the kernel: exactly the rational numbers they spell."""
    poly = _bound_for(target, order, "lower").body
    rounded = [_round_coefficient(c, digits) for c in poly.coefficients]
    kernel_poly = Poly(
        [PiRational.from_rational(Fraction(s)) for s in rounded], poly.variable
    )
    return rounded, BoundFn("kernel", order, "approximation", target, kernel_poly)


def cmd_codegen(args) -> int:
    digits = args.digits
    rounded, kernel = codegen_kernel(args.target, args.order, digits)
    expected = analysis.TABLE_3_1 if args.target in ("sin", "cos") else analysis.TABLE_5_2
    hint = expected.get(args.order, 1e-20)
    grid = analysis.half_pi_grid(args.samples, analysis.digits_for_bound(hint))
    report = analysis.re_bound_scan(kernel, analysis.reference_for(kernel.target), grid)
    payload = {
        "target": args.target,
        "order": args.order,
        "domain": ["0", "pi/2"],
        "rounding": f"round-half-even, {digits} significant digits per coefficient",
        "horner_coefficients": [_nstr(s, digits) if s != "0" else "0" for s in rounded],
        "certified_re_bound": _nstr(report.re_bound, 6),
        "samples": args.samples,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinebound",
        description="Two-point spline approximants and certified bounds for "
        "sin, sin(x)/x, cos and Si on [0, pi/2].",
    )
    # argparse converts a string default with `type`, so a malformed
    # SPLINEBOUND_PRECISION is a usage error like a malformed --precision
    parser.add_argument(
        "--precision", type=int,
        default=os.environ.get("SPLINEBOUND_PRECISION", DEFAULT_DIGITS),
        help="working precision in significant decimal digits (min 10; "
        "default $SPLINEBOUND_PRECISION, else 50)",
    )
    parser.add_argument("--samples", type=int, default=analysis.DEFAULT_SAMPLES)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit approximant coefficients")
    p.add_argument("target", choices=("sin", "cos", "si"))
    p.add_argument("order", type=int)
    p.add_argument("form", choices=("exact", "decimal", "both"), nargs="?", default="both")
    p.add_argument("--digits", type=int, default=20)
    p.set_defaults(fn=cmd_gen, formats=("json", "csv", "text"))

    p = sub.add_parser("bounds", help="certify a bound direction on the grid")
    p.add_argument("target", choices=("sin", "cos", "si"))
    p.add_argument("order", type=int)
    p.add_argument("direction", choices=("lower", "upper"))
    p.set_defaults(fn=cmd_bounds, formats=("json", "text"))

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("id", choices=("2.1", "3.1", "5.1", "5.2"))
    p.set_defaults(fn=cmd_table, formats=("json", "csv", "text"))

    p = sub.add_parser("figure", help="emit the data behind a published figure")
    p.add_argument("id", choices=tuple(str(i) for i in range(1, 9)))
    p.set_defaults(fn=cmd_figure, formats=("json", "csv"))

    p = sub.add_parser("codegen", help="emit a rounded kernel coefficient artifact")
    p.add_argument("target", choices=("sin", "cos", "si"))
    p.add_argument("order", type=int)
    p.add_argument("--digits", type=int, default=17)
    p.set_defaults(fn=cmd_codegen, formats=("json",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    for name, least, largest in LIMITS:
        value = getattr(args, name.lstrip("-"), None)
        if value is not None and not least <= value <= largest:
            rule = f">= {least}" if value < least else f"<= {largest}"
            print(f"error: {name} must be {rule}", file=sys.stderr)
            return EXIT_USAGE
    if args.format not in args.formats:
        written = " or ".join(args.formats)
        print(f"error: {args.command} writes --format {written}, not {args.format}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
