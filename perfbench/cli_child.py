"""Run one splinebound CLI request with every layer traced.

Usage (from the checkout root, with PYTHONPATH pointing at src):

    python3 perfbench/cli_child.py gen sin 8

Behaves like ``python -m splinebound.cli`` (same stdout, same exit code) and
writes one extra stderr line, ``PERFBENCH_TRACE {json}``, with the per-layer
aggregates of this process and the time spent installing the tracer.
"""

import json
import sys
import time

from tracer import TRACE_MARK, Tracer, install, stats_dict

if __name__ == "__main__":
    import splinebound.cli

    t0 = time.perf_counter()
    tracer = Tracer()
    install(tracer, with_cli=True)
    install_s = time.perf_counter() - t0
    rc = splinebound.cli.main(sys.argv[1:])
    sys.stdout.flush()
    payload = {"stats": stats_dict(tracer), "install_s": install_s, "missing": sorted(tracer.missing)}
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(payload) + "\n")
    sys.exit(rc)
