"""In-memory spans around the library's public functions.

Each wrapper is installed at the name its caller looks up: ``cli`` reaches
``cloud.*``, ``metrics.*`` and ``pipeline.*`` through module attributes,
``metrics.symmetric_distortion`` calls the module-level ``build_index``
and ``NnIndex.query``, ``solve_interior_point`` calls ``round_to_grid`` and
``polish_rounding`` in ``allocator``, and ``pipeline`` imported the
solver, the grid search, ``encode``, the ``fit_*`` functions and the
evaluation metrics by name. Spans are kept in a list and written out only
when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_FITS = ("fit_distortion_model", "fit_distortion_model_lstsq",
         "fit_rate_model", "fit_rate_model_lstsq")
_EVALUATE = ("compute_be", "compute_qpe", "compute_cq", "bd_psnr")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` adds to self.counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[i] = (name, start, end, parent, self.op)
            if count is not None:
                count(args, result)
            return result

        return traced

    def totals(self, ops: set[int]):
        """Per span name: (calls, total seconds, self seconds) over the given ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op in ops:
                agg = out[name]
                agg[0] += 1
                agg[1] += end - start
                agg[2] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _add(tracer, key, amount):
    tracer.counts[key] += amount


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    from pcbitalloc import allocator, cloud, metrics, pipeline, simcodec

    def file_bytes(key, which):
        return lambda args, _: _add(tracer, key, os.path.getsize(args[which]))

    def polish_changed(args, result):
        _add(tracer, "polish_changed", result != args[1])

    patches = [
        (cloud, "load_ply", "cloud.load_ply", file_bytes("load_ply_bytes", 0)),
        (cloud, "save_ply", "cloud.save_ply", file_bytes("save_ply_bytes", 1)),
        (metrics, "symmetric_distortion", "metrics.symmetric_distortion", None),
        (metrics, "build_index", "metrics.build_index", None),
        (metrics.NnIndex, "query", "metrics.nn_query",
         lambda args, _: _add(tracer, "nn_query_points", len(args[1]))),
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
        (pipeline, "write_report", "pipeline.write_report", None),
        (pipeline, "report_allocations_csv", "pipeline.report_allocations_csv", None),
        (pipeline, "solve_interior_point", "allocator.solve", None),
        (allocator, "round_to_grid", "allocator.round_to_grid", None),
        (allocator, "polish_rounding", "allocator.polish_rounding", polish_changed),
        (pipeline, "exhaustive_search", "allocator.exhaustive_search", None),
        (pipeline, "encode", "simcodec.encode", None),
        (simcodec, "encode", "simcodec.encode", None),
    ]
    patches += [(pipeline, fn, "models.fit", None) for fn in _FITS]
    patches += [(pipeline, fn, "evaluate", None) for fn in _EVALUATE]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for (owner, attr, name, count), (_, _, fn) in zip(patches, saved):
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def unit(name: str) -> str:
    for suffix, unit_name in ((".calls", "count"), (".mb_per_s", "MB/s"),
                              (".points_per_s", "1/s"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit_name
    return "s"


def layer_metrics(tracer: Tracer, ops: set[int]) -> dict[str, float]:
    """The per-layer metrics, per traced op; 0 for a layer the workload never calls."""
    agg = tracer.totals(ops)
    n = max(len(ops), 1)
    calls = lambda name: agg[name][0] / n
    busy = lambda name: agg[name][1] / n
    own = lambda name: agg[name][2] / n
    rate = lambda amount, name: amount / agg[name][1] if agg[name][1] else 0.0
    polish_calls = agg["allocator.polish_rounding"][0]
    return {
        "cloud.load_ply.s": busy("cloud.load_ply"),
        "cloud.load_ply.mb_per_s":
            rate(tracer.counts["load_ply_bytes"] / 1e6, "cloud.load_ply"),
        "cloud.save_ply.s": busy("cloud.save_ply"),
        "cloud.save_ply.mb_per_s":
            rate(tracer.counts["save_ply_bytes"] / 1e6, "cloud.save_ply"),
        "metrics.build_index.s": busy("metrics.build_index"),
        "metrics.nn_query.s": busy("metrics.nn_query"),
        "metrics.nn_query.points_per_s":
            rate(tracer.counts["nn_query_points"], "metrics.nn_query"),
        "metrics.symmetric_distortion.self_s": own("metrics.symmetric_distortion"),
        "allocator.exhaustive_search.s": busy("allocator.exhaustive_search"),
        "allocator.exhaustive_search.calls": calls("allocator.exhaustive_search"),
        "allocator.solve.self_s": own("allocator.solve"),
        "allocator.solve.calls": calls("allocator.solve"),
        "allocator.round_to_grid.s": busy("allocator.round_to_grid"),
        "allocator.polish_rounding.s": busy("allocator.polish_rounding"),
        "allocator.polish_changed_frac":
            tracer.counts["polish_changed"] / polish_calls if polish_calls else 0.0,
        "simcodec.encode.s": busy("simcodec.encode"),
        "simcodec.encode.calls": calls("simcodec.encode"),
        "models.fit.s": busy("models.fit"),
        "models.fit.calls": calls("models.fit"),
        "evaluate.s": busy("evaluate"),
        "pipeline.run_pipeline.self_s": own("pipeline.run_pipeline"),
        "pipeline.write_report.s": busy("pipeline.write_report"),
        "pipeline.report_allocations_csv.s": busy("pipeline.report_allocations_csv"),
        "cli.main.self_s": own("cli.main"),
    }
