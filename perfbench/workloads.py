"""The three workloads: seeded request decks, request execution and the
canonical result of each request that is checked against the golden file.

A workload runs in cycles.  The requests of a cycle are fixed; the seed
draws their order, choices that cost the same (the CLI output format) and
a few exact repeats of cheap requests.  A 35 s run holds only a few dozen
requests whose costs span two orders of magnitude, so if the seed chose
orders or directions, the median and tail would move with the seed by
more than any bound this benchmark can keep.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

import mpmath as mp

# -- certify ---------------------------------------------------------------

# Both directions of one target per order: sine at odd orders, the cosine
# reflection at even ones (upper bounds start at order 2).  Either direction
# of an order may need a second, higher-precision scan round, so keeping
# both fixes the escalation share.
CERTIFY_PAIRS = [
    ("sin" if n % 2 else "cos", d, n, 200)
    for n in range(1, 13)
    for d in (("lower", "upper") if n >= 2 else ("lower",))
]
CERTIFY_SI = [("si", "lower", n, 200) for n in range(1, 11)]
# The same low orders scanned on the paper's 1000-point grid.
CERTIFY_FINE = [
    (t, d, n, 1000)
    for n in (1, 2)
    for t in ("sin", "cos")
    for d in (("lower", "upper") if n >= 2 else ("lower",))
]
# Requests re-drawn with replacement each cycle, as the property suites
# revisit low orders.  They are the cheapest requests, so the draw never
# moves the median or the tail.
CERTIFY_REPEAT_POOL = [r for r in CERTIFY_PAIRS if r[2] <= 3]
CERTIFY_REPEATS = 4
CERTIFY_DIGITS = 50


def certify_cycle(rng) -> list[tuple]:
    reqs = CERTIFY_PAIRS + CERTIFY_SI + CERTIFY_FINE
    reqs += [rng.choice(CERTIFY_REPEAT_POOL) for _ in range(CERTIFY_REPEATS)]
    rng.shuffle(reqs)
    return reqs


def certify_population() -> list[tuple]:
    return CERTIFY_PAIRS + CERTIFY_SI + CERTIFY_FINE


def certify_call(sb, req):
    target, direction, n, samples = req
    if target == "si":
        bound = sb.si_lower(n)
    else:
        bound = (sb.sine_lower if direction == "lower" else sb.sine_upper)(n)
        if target == "cos":
            bound = sb.reflect_to_cos(bound)
    return sb.certify_direction(bound, sb.half_pi_grid(samples, CERTIFY_DIGITS))


def certify_result(req, out) -> dict:
    ok, report = out
    return {"ok": bool(ok), "re_bound": mp.nstr(report.re_bound, 3)}


# -- reproduce -------------------------------------------------------------

REPRODUCE_DECK = ["table:2.1"] + [f"figure:{i}" for i in range(1, 9)]


def reproduce_cycle(rng) -> list[str]:
    reqs = list(REPRODUCE_DECK)
    rng.shuffle(reqs)
    return reqs


def reproduce_call(sb, req):
    kind, ident = req.split(":")
    return sb.reproduce_table(ident) if kind == "table" else sb.figure_data(ident)


def _printed(value) -> str:
    # the CLI prints figure values with 12 significant digits
    with mp.workdps(17):
        return mp.nstr(mp.mpf(value), 12)


def reproduce_result(req, out):
    if req.startswith("table:"):
        return [bool(row["pass"]) for row in out]
    return {
        name: hashlib.sha256("\n".join(_printed(v) for v in col).encode()).hexdigest()
        for name, col in out["columns"].items()
    }


# -- cli -------------------------------------------------------------------

FORMATS = ("json", "csv", "text")
# Cold exact builds from order 4 to 32; the build grows about as n^3, so
# one order-32 request costs as much as the three order-20 ones.
GEN = [(t, n) for n in (4, 12, 20) for t in ("sin", "cos", "si")] + [("sin", 32)]
CODEGEN = [("codegen", t, str(n)) for t in ("sin", "cos") for n in (2, 8)]
BOUNDS = [
    ("--samples", "200", "bounds", t, str(n), d)
    for t, n, d in (("sin", 3, "lower"), ("cos", 5, "upper"), ("si", 4, "lower"), ("sin", 6, "upper"))
]


def cli_cycle(rng) -> list[tuple]:
    reqs = [("--format", rng.choice(FORMATS), "gen", t, str(n)) for t, n in GEN]
    reqs += CODEGEN + BOUNDS
    rng.shuffle(reqs)
    return reqs


def cli_population() -> list[tuple]:
    gen = [("--format", fmt, "gen", t, str(n)) for t, n in GEN for fmt in FORMATS]
    return gen + CODEGEN + BOUNDS


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("SPLINEBOUND_PRECISION", None)
    return env


def spawn_cli(argv, env, child_script: str | None = None):
    """Run one CLI request in a fresh interpreter.

    Returns (latency_s, returncode, stdout bytes, stderr bytes).  With
    `child_script` the request runs under the tracing bootstrap instead of
    ``python -m splinebound.cli``.
    """
    head = [sys.executable, child_script] if child_script else [sys.executable, "-m", "splinebound.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run([*head, *argv], capture_output=True, env=env, timeout=170)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def cli_result(returncode: int, stdout: bytes) -> dict:
    return {"rc": returncode, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout)}


def request_key(req) -> str:
    return " ".join(str(part) for part in req) if isinstance(req, tuple) else req


WORKLOADS = {
    "certify": {"cycle": certify_cycle, "population": certify_population,
                "call": certify_call, "result": certify_result, "tail_pct": 75},
    "reproduce": {"cycle": reproduce_cycle, "population": lambda: list(REPRODUCE_DECK),
                  "call": reproduce_call, "result": reproduce_result, "tail_pct": 100},
    "cli": {"cycle": cli_cycle, "population": cli_population, "tail_pct": 70},
}
