"""splinebound benchmark: closed-loop runs of one workload.

Single process, single client, closed loop: each request is sent when the
previous one has finished.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and README.md): certify, reproduce, cli.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics, every time in them scaled to reference host speed
(hostspeed.py); with --trace 1 the same requests are run once untraced
and once with every layer wrapped (tracer.py), and the metrics are the
per-layer metrics plus trace.overhead_ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import workloads
from hostspeed import HostSpeed
from tracer import TRACE_MARK, Tracer, install, layer_metrics, merge_stats, stats_dict

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():  # source checkouts without git history have no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "splinebound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time for a fresh interpreter to import the package and CLI:
    scaled to reference host speed (hostspeed.py), and unscaled."""
    cmd = [sys.executable, "-c", "import splinebound, splinebound.cli"]
    speed = HostSpeed()
    speed.start()
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            fail("importing splinebound failed:\n" + proc.stderr.decode(errors="replace"))
        s = speed.scale(dt, (0, 0.0))
        if i:  # the first import compiles bytecode; users pay that once
            scaled.append(s)
            raw.append(dt)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Executes requests of one workload and checks them against the golden file."""

    def __init__(self, name: str, golden: dict, src: str):
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.golden = golden
        self.env = workloads.child_env(src)
        self.failures: list[str] = []
        self.attempted = 0
        self.tracer = Tracer()
        self.child_stats: dict = {}
        self.missing: set[str] = set()
        self.cli_spawn_s = 0.0
        self.speed = HostSpeed()

    def check(self, key: str, result) -> bool:
        if key not in self.golden:
            self.failures.append(f"{key}: no golden value")
            return False
        if result != self.golden[key]:
            self.failures.append(f"{key}: got {result!r}, golden {self.golden[key]!r}")
            return False
        return True

    def execute(self, req, traced: bool = False) -> tuple[float, bool]:
        """Run one request; return (latency_s, passed).

        With `traced`, every layer is wrapped for the duration of the call
        (in the child process for `cli`).
        """
        self.attempted += 1
        key = workloads.request_key(req)
        if self.name == "cli":
            return self._execute_cli(req, key, traced)
        import splinebound as sb

        call = self.spec["call"]
        restore = None
        if traced:
            call = self.tracer.wrap("request", call, record=True)
            restore = install(self.tracer)
        # calibration loops that a timer runs inside the call are not its time
        cal0 = self.speed.seconds
        t0 = time.perf_counter()
        try:
            out = call(sb, req)
            latency = time.perf_counter() - t0 - (self.speed.seconds - cal0)
        except Exception as exc:  # a failing request is counted, never fatal
            self.failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0 - (self.speed.seconds - cal0), False
        finally:
            if restore:
                restore()
        return latency, self.check(key, self.spec["result"](req, out))

    def _execute_cli(self, req, key, traced) -> tuple[float, bool]:
        script = str(HERE / "cli_child.py") if traced else None
        try:
            latency, rc, out, err = workloads.spawn_cli(list(req), self.env, script)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{key}: timed out")
            return 170.0, False
        if traced:
            marks = [ln for ln in err.decode(errors="replace").splitlines()
                     if ln.startswith(TRACE_MARK)]
            if not marks:
                self.failures.append(f"{key}: traced child wrote no trace")
                return latency, False
            child = json.loads(marks[-1][len(TRACE_MARK):])
            merge_stats(self.child_stats, child["stats"])
            self.missing.update(child["missing"])
            main_s = child["stats"].get("cli.main", {}).get("s", 0.0)
            self.cli_spawn_s += latency - main_s - child["install_s"]
        return latency, self.check(key, workloads.cli_result(rc, out))


def run_cycles(runner: Runner, rng: random.Random, seconds: float, run_request):
    """Whole cycles until the next one would end more than half a cycle late.

    `run_request(index, request)` runs one request and returns its latency.
    """
    latencies = []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for req in runner.spec["cycle"](rng):
            latencies.append(run_request(len(latencies), req))
        now = time.perf_counter()
        if now - start + (now - c0) / 2 >= seconds:
            return latencies, now - start


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1).

    A weighted mean of the order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights.  It moves less than a single order statistic when one request
    near the quantile is slowed by noise on a shared machine.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "splinebound" / "__init__.py").is_file():
        fail(f"no splinebound sources under {src}; run from the root of a checkout")
    golden_path = HERE / "golden" / f"{args.workload}.json"
    if not golden_path.is_file():
        fail(f"missing golden file {golden_path}")
    sys.path.insert(0, str(src))
    import splinebound

    if not Path(splinebound.__file__).resolve().is_relative_to(src):
        fail(f"imported splinebound from {splinebound.__file__}, not from {src}")

    fp = fingerprint(root, args.seed)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    golden = json.loads(golden_path.read_text())["results"]
    runner = Runner(args.workload, golden, str(src))
    rng = random.Random(args.seed)

    if args.trace:
        metrics = traced_run(runner, rng, args)
    else:
        metrics = end_to_end_run(runner, rng, args)

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(f"{args.workload}: attempted {runner.attempted}, failed {failed}, "
          f"failed_ratio {failed / runner.attempted:.4f} ratio")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timing_metrics(lat: list[float], passed: int, pct: int) -> dict:
    tail = max(lat) if pct == 100 else harrell_davis(lat, pct / 100)
    return {
        "throughput_rps": (passed / sum(lat), "1/s"),
        "latency_p50_s": (harrell_davis(lat, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
    }


def end_to_end_run(runner: Runner, rng, args) -> dict:
    setup_s, setup_raw_s = measure_setup(runner.env)
    passed = 0
    speed = runner.speed
    raw_lat = []

    def run_request(i, req):
        nonlocal passed
        l0, s0 = speed.loops, speed.seconds
        latency, ok = runner.execute(req)
        passed += ok
        raw_lat.append(latency)
        return speed.scale(latency, (speed.loops - l0, speed.seconds - s0))

    speed.start()
    # a CLI request runs in a child; a timer loop in this process would
    # compete with it for the CPUs
    sampling = speed.sampling() if runner.name != "cli" else contextlib.nullcontext()
    with sampling:
        lat, wall = run_cycles(runner, rng, args.seconds, run_request)
    pct = runner.spec["tail_pct"]
    if runner.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        **timing_metrics(lat, passed, pct),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {"setup_s": (setup_raw_s, "s"), **timing_metrics(raw_lat, passed, pct)}
    print(f"{runner.name}: {len(lat)} requests, {wall:.1f} s wall, "
          f"latency_tail_s is p{pct} of {len(lat)} samples, "
          f"p50 and tail by the Harrell-Davis estimator")
    print(f"  host speed: {speed.loops} calibration loops, {speed.loop_s() * 1e3:.3f} ms "
          f"each on average; times scaled to reference speed (unscaled in brackets)")
    for k, (v, u) in metrics.items():
        extra = f"  [{raw[k][0]:.6g} {u}]" if k in raw else ""
        print(f"  {k} = {v:.6g} {u}{extra}")
    return metrics


def traced_run(runner: Runner, rng, args) -> dict:
    """Each request runs twice, untraced and traced, in alternating order,
    so that drift in machine speed cancels out of trace.overhead_ratio."""
    plain, traced = [], []

    def run_request(i, req):
        for use_trace in (False, True) if i % 2 == 0 else (True, False):
            runner.tracer.request = i
            latency, _ = runner.execute(req, traced=use_trace)
            (traced if use_trace else plain).append(latency)
        return latency

    run_cycles(runner, rng, args.seconds, run_request)
    if runner.name == "cli":
        stats = runner.child_stats
        stats["cli.spawn"] = {"calls": len(traced), "s": runner.cli_spawn_s,
                              "self_s": runner.cli_spawn_s, "repeats": 0}
    else:
        stats = stats_dict(runner.tracer)
        runner.missing.update(runner.tracer.missing)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{runner.name}-seed{args.seed}-spans.jsonl", "w") as fh:
            for span in runner.tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    if runner.missing:
        print("not traced (missing): " + ", ".join(sorted(runner.missing)), file=sys.stderr)
    metrics = layer_metrics(stats)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    print(f"{runner.name}: {len(traced)} requests traced; untraced {sum(plain):.2f} s, "
          f"traced {sum(traced):.2f} s")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
