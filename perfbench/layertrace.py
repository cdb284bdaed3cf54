"""Outside-in tracing of steinsim's public functions.

The traced child wraps each function under the module attribute its
callers look it up by, runs one workload in-process and writes the spans
as JSON. ``summarize`` turns the spans into the benchmark's per-layer
metrics. Nothing inside steinsim is changed; names that no longer exist
are skipped and reported.

    python perfbench/layertrace.py --spans spans.json cli all --workers 2 ...
    python perfbench/layertrace.py --spans spans.json meanfn --seed 1 ...
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

CHUNK = 65536

# Spans that only carry structure (pool sections and the chunks submitted
# to them); they never count as a child when computing a layer's self time.
STRUCTURAL = ("mc._map_ordered", "mc.chunk")

# The span attribute holding the sample count of a chunk-sized call.
_ROWS = {"mc.draw_block": "count", "mc.StreamingMoments.from_batch": "rows"}


def _kind(kind) -> str:
    return getattr(kind, "value", "fn")


def _draw_attrs(a):
    cfg, start, count = a["config"], a["start"], a["count"]
    return {"key": [cfg.seed, a.get("stream", 0), start, count, cfg.k],
            "count": count, "normals": count * cfg.k}


def _cell_attrs(a):
    cfg = a["config"]
    return {"key": [_kind(a["kind"]), cfg.theta, a.get("stream", 0), cfg.seed,
                    cfg.n_samples, cfg.k]}


def _estimate_attrs(a):
    return {"kind": _kind(a["kind"])}


def _calibration_attrs(a):
    return {"key": [_kind(a["kind"]), a["mu0"], a["seed"], len(a["values"])]}


# (module, attribute path, span name, attribute extractor). Besides the
# measured layers, the list holds the callers whose own work must not be
# counted in a parent's self time (paired_semitail, mse_with_stderr).
TARGETS = (
    ("steinsim.mc", "draw_block", "mc.draw_block", _draw_attrs),
    ("steinsim.mc", "StreamingMoments.from_batch", "mc.StreamingMoments.from_batch",
     lambda a: {"rows": len(a["a"])}),
    ("steinsim.mc", "StreamingMoments.merge", "mc.StreamingMoments.merge", None),
    ("steinsim.mc", "collect_cell_moments", "mc.collect_cell_moments", _cell_attrs),
    ("steinsim.mc", "map_samples", "mc.map_samples", None),
    ("steinsim.mc", "estimate_batch", "estimators.estimate_batch",
     _estimate_attrs),
    ("steinsim.hyptest", "estimate_batch", "estimators.estimate_batch",
     _estimate_attrs),
    ("steinsim.estimators", "estimate_batch", "estimators.estimate_batch",
     _estimate_attrs),
    ("steinsim.hyptest", "statistics_batch", "hyptest.statistics_batch", None),
    ("steinsim.hyptest", "calibration_from_statistics",
     "hyptest.calibration_from_statistics", _calibration_attrs),
    ("steinsim.hyptest", "power", "hyptest.power", None),
    ("steinsim.hyptest", "semitail", "hyptest.semitail", None),
    ("steinsim.hyptest", "paired_semitail", "hyptest.paired_semitail", None),
    ("steinsim.cli", "assess_cell", "assess.assess", None),
    ("steinsim.assess", "assess", "assess.assess", None),
    ("steinsim.cli", "mse_with_stderr", "assess.mse_with_stderr", None),
    ("steinsim.assess", "mse_with_stderr", "assess.mse_with_stderr", None),
    ("steinsim.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory spans with one span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, on_main, t0, t1, attrs]
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span_id)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            on_main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self.spans.append([span_id, parent, name, on_main, t0, t1, attrs or {}])

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name, fn, extract):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            attrs = None
            if extract is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = extract(bound.arguments)
                except (TypeError, KeyError, AttributeError):
                    attrs = None
            return tracer.call(name, fn, args, kwargs, attrs)

        return traced

    def install(self) -> None:
        for module_name, path, name, extract in TARGETS:
            label = f"{module_name.removeprefix('steinsim.')}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, extract)))
            elif callable(raw):
                setattr(owner, attr, self.wrap(name, raw, extract))
            else:
                self.missing.append(label)
                continue
            self.installed.append(label)
        self._install_pool()

    def _install_pool(self) -> None:
        """Parent each chunk, on whichever thread runs it, to the section span."""
        mc = importlib.import_module("steinsim.mc")
        original = getattr(mc, "_map_ordered", None)
        if original is None:
            self.missing.append("mc._map_ordered")
            return
        tracer = self

        def map_ordered(fn, ranges, n_workers):
            def body():
                section = tracer.current()

                def chunk(start, count):
                    return tracer.call("mc.chunk", fn, (start, count), {}, parent=section)

                return original(chunk, ranges, n_workers)

            pooled = n_workers > 1 and len(ranges) > 1
            return tracer.call("mc._map_ordered", body, (), {},
                               {"workers": n_workers if pooled else 1})

        mc._map_ordered = map_ordered
        self.installed.append("mc._map_ordered")


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[list]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from raw spans, and the names that did not run."""
    by_id = {s[0]: s for s in spans}

    def layer_parent(span):
        parent = by_id.get(span[1])
        while parent is not None and parent[2] in STRUCTURAL:
            parent = by_id.get(parent[1])
        return parent[0] if parent is not None else 0

    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[2] not in STRUCTURAL:
            children.setdefault(layer_parent(s), []).append((s[4], s[5]))

    def named(name):
        return [s for s in spans if s[2] == name]

    def busy(group):
        return sum(s[5] - s[4] for s in group)

    def self_time(group):
        return sum(s[5] - s[4] - _union_length(children.get(s[0], ()), s[4], s[5])
                   for s in group)

    def ms_quantiles(group):
        full = [(s[5] - s[4]) * 1e3 for s in group if s[6].get(_ROWS[s[2]]) == CHUNK]
        if len(full) < 2:
            return None
        cuts = statistics.quantiles(full, n=10, method="inclusive")
        return statistics.median(full), cuts[8]

    def redundancy(group):
        keys = {json.dumps(s[6].get("key")) for s in group}
        return len(group) / len(keys) if group else None

    draws = named("mc.draw_block")
    moments = named("mc.StreamingMoments.from_batch")
    estimates = named("estimators.estimate_batch")
    calibrations = named("hyptest.calibration_from_statistics")
    sections = [s for s in named("mc._map_ordered") if s[6].get("workers", 1) > 1]
    pooled_chunks = [s for s in named("mc.chunk") if not s[3]]

    draw_q = ms_quantiles(draws) or (None, None)
    moment_q = ms_quantiles(moments) or (None, None)
    capacity = sum(s[6]["workers"] * (s[5] - s[4]) for s in sections)
    draw_busy = busy(draws)
    normals = sum(s[6].get("normals", 0) for s in draws)
    # metric: (value, span name that must have run for it to apply)
    values = {
        "mc.draw_block.calls": (len(draws), "mc.draw_block"),
        "mc.draw_block.busy_s": (draw_busy, "mc.draw_block"),
        "mc.draw_block.p50_ms": (draw_q[0], "mc.draw_block"),
        "mc.draw_block.p90_ms": (draw_q[1], "mc.draw_block"),
        "mc.redraw_ratio": (redundancy(draws), "mc.draw_block"),
        "mc.normals_per_s": (normals / draw_busy if draw_busy > 0 else None,
                             "mc.draw_block"),
        "mc.StreamingMoments.from_batch.calls": (len(moments), "mc.StreamingMoments.from_batch"),
        "mc.StreamingMoments.from_batch.busy_s": (busy(moments), "mc.StreamingMoments.from_batch"),
        "mc.StreamingMoments.from_batch.p50_ms": (moment_q[0], "mc.StreamingMoments.from_batch"),
        "mc.StreamingMoments.merge.busy_s":
            (busy(named("mc.StreamingMoments.merge")), "mc.StreamingMoments.merge"),
        "mc.collect_cell_moments.self_s":
            (self_time(named("mc.collect_cell_moments")), "mc.collect_cell_moments"),
        "mc.map_samples.self_s": (self_time(named("mc.map_samples")), "mc.map_samples"),
        "mc.worker_utilization":
            (busy(pooled_chunks) / capacity if capacity > 0 else None, "mc._map_ordered"),
        "estimators.estimate_batch.js.busy_s":
            (busy([s for s in estimates if s[6].get("kind") == "js"]), "estimators.estimate_batch"),
        "estimators.estimate_batch.ml.busy_s":
            (busy([s for s in estimates if s[6].get("kind") == "ml"]), "estimators.estimate_batch"),
        "estimators.estimate_batch.calls": (len(estimates), "estimators.estimate_batch"),
        "hyptest.statistics_batch.self_s":
            (self_time(named("hyptest.statistics_batch")), "hyptest.statistics_batch"),
        "hyptest.calibration_from_statistics.calls":
            (len(calibrations), "hyptest.calibration_from_statistics"),
        "hyptest.calibration_from_statistics.busy_s":
            (busy(calibrations), "hyptest.calibration_from_statistics"),
        "hyptest.calibration_redundancy":
            (redundancy(calibrations), "hyptest.calibration_from_statistics"),
        "hyptest.power.self_s": (self_time(named("hyptest.power")), "hyptest.power"),
        "hyptest.semitail.busy_s": (busy(named("hyptest.semitail")), "hyptest.semitail"),
        "assess.assess.self_s": (self_time(named("assess.assess")), "assess.assess"),
        "assess.cell_redundancy":
            (redundancy(named("mc.collect_cell_moments")), "mc.collect_cell_moments"),
        "cli.main.self_s": (self_time(named("cli.main")), "cli.main"),
    }
    ran = {s[2] for s in spans}
    not_run = sorted(name for name, (value, source) in values.items()
                     if value is None or source not in ran)
    return {name: float(value or 0.0) for name, (value, _) in values.items()}, not_run


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ("cli", "meanfn"):
        print("usage: layertrace.py --spans FILE (cli|meanfn) ARGS...", file=sys.stderr)
        return 1
    spans_path, mode, rest = argv[1], argv[2], argv[3:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    if mode == "cli":
        from steinsim import cli

        code = cli.main(rest)
    else:
        import meanfn  # beside this script, so on sys.path

        meanfn.main(rest)
        code = 0
    wall = time.perf_counter() - t0
    Path(spans_path).write_text(json.dumps({
        "installed": tracer.installed, "missing": tracer.missing,
        "wall_s": wall, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
