"""Recompute the golden result of every request a workload can draw.

Run from the checkout root at a commit whose outputs are trusted:

    python3 perfbench/capture_golden.py certify reproduce cli

Writes perfbench/golden/<workload>.json.  The benchmark compares every
request it runs against these files; a request whose result differs counts
as failed.
"""

import json
import sys
from pathlib import Path

import workloads
from run import fingerprint

HERE = Path(__file__).resolve().parent


def capture(name: str, root: Path) -> dict:
    spec = workloads.WORKLOADS[name]
    results = {}
    for req in spec["population"]():
        key = workloads.request_key(req)
        if name == "cli":
            _, rc, out, err = workloads.spawn_cli(list(req), workloads.child_env(str(root / "src")))
            results[key] = workloads.cli_result(rc, out)
        else:
            import splinebound as sb

            results[key] = spec["result"](req, spec["call"](sb, req))
        print(name, key, results[key] if name != "reproduce" else "", flush=True)
    return results


def main(names):
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    fp = fingerprint(root, None)
    for name in names:
        out = {"fingerprint": fp, "results": capture(name, root)}
        path = HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(workloads.WORKLOADS))
