"""In-memory span tracer that wraps splinebound functions at run time.

Nothing under ``src/`` knows about tracing: ``install`` replaces the public
functions and methods named in ``LAYERS`` with timing wrappers.  Every
wrapped call updates per-layer aggregates (calls, inclusive seconds, self
seconds).  Calls at coarse boundaries (bound constructors, spline builds, scans,
tables, figures, requests) are also kept as span records with a parent
link and a request id; hot per-point calls are only aggregated, because a
single scan makes hundreds of thousands of them.

Self time is a span's duration minus the time covered by its child spans.
Inclusive time of a layer counts only its outermost calls, so a layer that
calls itself (``PiRational.__sub__`` calls ``__add__``) is not counted twice.
"""

from __future__ import annotations

import sys
import time

# Prefix of the stderr line on which a traced CLI child reports its stats.
TRACE_MARK = "PERFBENCH_TRACE "

# (layer, owner, attribute, record span?).  owner is a class name inside
# splinebound, or None for a module-level function (patched in every
# splinebound module that binds it).
LAYERS = [
    ("numerics.to_ext_real", "PiRational", "to_ext_real", False),
    *[
        ("numerics.pirational", "PiRational", op, False)
        for op in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__", "inverse",
        )
    ],
    *[
        ("numerics.poly_arith", "Poly", op, False)
        for op in ("__add__", "__sub__", "__mul__", "__pow__", "scale", "derivative")
    ],
    ("numerics.substitute_affine", "Poly", "substitute_affine", True),
    ("spline.build", None, "sine_spline", True),
    ("series.recurrence", None, "order1_coefficients", False),
    ("series.recurrence", None, "order2_coefficients", False),
    ("series.eval", None, "sine_series_eval", False),
    ("bounds.eval_raw", "BoundFn", "eval_raw", False),
    ("bounds.si_reference", None, "si_reference", False),
    *[
        ("bounds.build", None, fn, True)
        for fn in (
            "sine_lower", "sine_upper", "reflect_to_cos", "si_lower",
            "taylor_sine", "zhu_bound", "lv_si_lower", "baseline_catalog",
        )
    ],
    ("analysis.scan", None, "re_bound_scan", True),
    ("analysis.certify", None, "certify_direction", True),
    ("analysis.table", None, "reproduce_table", True),
    ("analysis.figure", None, "figure_data", True),
    ("analysis.relative_error", None, "relative_error", False),
]

# Layers whose repeated arguments are counted: a call is a repeat when the
# same key was seen before in this process.
REPEAT_KEYS = {"spline.build": lambda args: args[0]}


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "repeats", "seen")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.repeats = 0
        self.seen = set()

    def as_dict(self) -> dict:
        return {"calls": self.calls, "s": self.s, "self_s": self.self_s, "repeats": self.repeats}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self.request = None
        self._stack: list[list[float]] = []
        self._recorded: list[int] = []

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def count(self, name: str):
        self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, name: str, fn, record: bool = False, key=None):
        """Return `fn` wrapped in a span named `name`."""
        stat = self.stat(name)
        stack = self._stack
        recorded = self._recorded
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(args)
                if k in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(k)
            child = [0.0]
            stack.append(child)
            stat.depth += 1
            if record:
                span_id = len(self.spans)
                self.spans.append(None)
                parent = recorded[-1] if recorded else None
                recorded.append(span_id)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dur - child[0]
                if not stat.depth:
                    stat.s += dur
                if stack:
                    stack[-1][0] += dur
                if record:
                    recorded.pop()
                    self.spans[span_id] = (span_id, parent, self.request, name, t0, t0 + dur)

        return wrapper

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "request", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "splinebound" or name.startswith("splinebound."))
    ]


def _patch_everywhere(modules, original, replacement, patch) -> bool:
    hit = False
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patch(mod, attr, replacement)
                hit = True
    return hit


def install(tracer: Tracer, with_cli: bool = False):
    """Wrap every layer in LAYERS (and cli.main if asked) for `tracer`.

    Returns a function that puts the original functions back.
    """
    import splinebound
    import splinebound.analysis as analysis

    if with_cli:
        import splinebound.cli  # noqa: F401  (bind it so main gets patched)
    undo = []

    def patch(obj, attr, value):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    modules = _package_modules()
    for name, owner, attr, record in LAYERS:
        if owner is not None:
            cls = getattr(splinebound, owner, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                tracer.missing.add(f"{owner}.{attr}")
                continue
            patch(cls, attr, tracer.wrap(name, fn, record))
            continue
        fn = getattr(splinebound, attr, None) or getattr(analysis, attr, None)
        if fn is None or not _patch_everywhere(
            modules, fn, tracer.wrap(name, fn, record, REPEAT_KEYS.get(name)), patch
        ):
            tracer.missing.add(attr)

    # Reference evaluators are closures built per call of reference_for;
    # wrap each one so calls, time and repeated (target, x, digits) points
    # are counted where the scan asks for them.
    reference_for = analysis.reference_for

    def traced_reference_for(target):
        ref = reference_for(target)
        return tracer.wrap("analysis.reference", ref, key=lambda a: (target, a[0], a[1]))

    _patch_everywhere(modules, reference_for, traced_reference_for, patch)

    # A scan round is one pass over the grid: count Grid.points calls made
    # inside re_bound_scan.
    scan = tracer.stat("analysis.scan")
    grid_points = analysis.Grid.points

    def traced_points(self, digits=None):
        if scan.depth:
            tracer.count("analysis.scan.rounds")
        return grid_points(self, digits)

    patch(analysis.Grid, "points", traced_points)

    if with_cli:
        import splinebound.cli as cli

        patch(cli, "main", tracer.wrap("cli.main", cli.main, record=True))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore


def merge_stats(into: dict, stats: dict):
    """Add one process's stats (as from `stats_dict`) into `into`."""
    for name, st in stats.items():
        acc = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "repeats": 0})
        for k in acc:
            acc[k] += st.get(k, 0)


def stats_dict(tracer: Tracer) -> dict:
    out = {name: st.as_dict() for name, st in tracer.stats.items()}
    for name, n in tracer.counters.items():
        out[name] = {"calls": n, "s": 0.0, "self_s": 0.0, "repeats": 0}
    return out


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics named as in BENCHMARK.json, from merged stats."""

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    points = get("analysis.relative_error", "calls")
    scans = get("analysis.scan", "calls")
    rounds = get("analysis.scan.rounds", "calls")
    return {
        "numerics.to_ext_real.calls": (get("numerics.to_ext_real", "calls"), "count"),
        "numerics.to_ext_real.s": (get("numerics.to_ext_real", "s"), "s"),
        "numerics.to_ext_real.per_point": (
            ratio(get("numerics.to_ext_real", "calls"), points), "count"),
        "numerics.pirational.ops": (get("numerics.pirational", "calls"), "count"),
        "numerics.pirational.s": (get("numerics.pirational", "s"), "s"),
        "numerics.poly_arith.s": (get("numerics.poly_arith", "s"), "s"),
        "numerics.substitute_affine.s": (get("numerics.substitute_affine", "s"), "s"),
        "spline.build.calls": (get("spline.build", "calls"), "count"),
        "spline.build.s": (get("spline.build", "s"), "s"),
        "spline.build.repeat_ratio": (
            ratio(get("spline.build", "repeats"), get("spline.build", "calls")), "ratio"),
        "series.recurrence.calls": (get("series.recurrence", "calls"), "count"),
        "series.recurrence.s": (get("series.recurrence", "s"), "s"),
        "series.eval.calls": (get("series.eval", "calls"), "count"),
        "series.eval.s": (get("series.eval", "s"), "s"),
        "series.recurrence_per_eval": (
            ratio(get("series.recurrence", "calls"), get("series.eval", "calls")), "ratio"),
        "bounds.eval_raw.calls": (get("bounds.eval_raw", "calls"), "count"),
        "bounds.eval_raw.self_s": (get("bounds.eval_raw", "self_s"), "s"),
        "bounds.si_reference.calls": (get("bounds.si_reference", "calls"), "count"),
        "bounds.si_reference.s": (get("bounds.si_reference", "s"), "s"),
        "bounds.build.self_s": (get("bounds.build", "self_s"), "s"),
        "analysis.scan.calls": (scans, "count"),
        "analysis.scan.rounds": (rounds, "count"),
        "analysis.scan.wasted_round_ratio": (ratio(rounds - scans, rounds), "ratio"),
        "analysis.points": (points, "count"),
        "analysis.reference.calls": (get("analysis.reference", "calls"), "count"),
        "analysis.reference.s": (get("analysis.reference", "s"), "s"),
        "analysis.reference.repeat_ratio": (
            ratio(get("analysis.reference", "repeats"), get("analysis.reference", "calls")),
            "ratio"),
        "analysis.relative_error.self_s": (get("analysis.relative_error", "self_s"), "s"),
        "cli.main.s": (get("cli.main", "s"), "s"),
        "cli.spawn_s": (get("cli.spawn", "s"), "s"),
    }
