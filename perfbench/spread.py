"""Run the benchmark on several seeds and summarise each metric.

From the checkout root:

    python3 perfbench/spread.py --workload certify --seeds 1-10 --seconds 35 [--trace 1] [--out FILE]

Runs one seed after another (never in parallel, so runs do not compete for
cores) and prints, per metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and their distance as a share
of the median.  With --out, appends one JSON line with every run's result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = str(Path(__file__).resolve().parent / "run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        fp = json.loads(lines[0].split(" ", 1)[1])
        runs.append({"seed": seed, "fingerprint": fp, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:36s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                 "trace": args.trace, "summary": summary, "runs": runs}) + "\n")


if __name__ == "__main__":
    main()
