"""Span tracing of graspkit's public functions, applied from outside the package.

The planner imports its stage functions by name, and ``stability`` and
``robustness`` do the same for ``mechanics``, so wrappers are installed on
the names in those modules' namespaces and on ``SpatialIndex`` methods at
class level. Every wrapped call becomes one span (name, start, end, parent
span, op id, plus a few counts read from its arguments and result). Spans
stay in memory until the run ends; ``Tracer.restore`` removes every wrapper.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from graspkit import cloud, io, planner, robustness, shapes, stability


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int | str | None
    attrs: dict | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _residue(args, kwargs, seg):
    return {"regions": len(seg.regions), "residue": len(seg.residue_indices), "points": seg.cloud_size}


def _rank(args, kwargs, ranked):
    return {"reports": len(ranked.reports), "closure": sum(r.closure for r in ranked.reports)}


def _in_out(args, kwargs, out):
    return {"in": len(args[0]), "out": len(out)}


def _load(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0]), "points": len(out)}


def _contacts(args, kwargs, out):
    return {"made": len(out), "asked": kwargs.get("n_per_pair", 5)}


# (module or class, attribute, span name, attribute reader)
TARGETS = [
    (planner, "plan", "planner.plan", None),
    (planner, "remove_statistical_outliers", "cloud.outlier", _in_out),
    (planner, "voxel_downsample", "cloud.voxel", _in_out),
    (planner, "estimate_normals_curvatures", "cloud.normals", None),
    (planner, "segment", "regions.segment", _residue),
    (planner, "find_antiparallel_pairs", "candidates.pair", lambda a, k, out: {"pairs": len(out)}),
    (planner, "make_candidates", "candidates.contacts", _contacts),
    (planner, "rank_candidates", "stability.rank", _rank),
    (stability, "solve_stability", "stability.solve", lambda a, k, out: {"converged": out.converged}),
    (stability, "build_grasp_map", "mechanics.grasp_map", None),
    (stability, "force_closure", "mechanics.closure", None),
    (robustness, "build_grasp_map", "mechanics.grasp_map", None),
    (robustness, "force_closure", "mechanics.closure", None),
    (robustness, "robust_force_closure", "robustness.eval", lambda a, k, out: {"trials": out.trials}),
    (cloud.SpatialIndex, "__init__", "cloud.index_build", None),
    (cloud.SpatialIndex, "knn_all", "cloud.knn_all", None),
    (cloud.SpatialIndex, "nearest", "cloud.nearest", None),
    (io, "load_cloud", "io.load", _load),
    (shapes, "generate", "shapes.generate", None),
]


class Tracer:
    """Installs span-recording wrappers on TARGETS until ``restore``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, reader in TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, reader))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, reader):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                attrs = reader(args, kwargs, out) if reader is not None and out is not None else None
                spans[sid] = Span(name, start, end, parent, self.op, attrs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                         "parent": s.parent, "op": s.op, "attrs": s.attrs}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span | None], ops: list[int], setups: list[str]) -> dict[str, float]:
    """Per-layer metrics over the spans of ``ops`` and of the set-up runs ``setups``.

    Times are per-op medians of the summed span durations (ms), counts are
    means per op, and fractions are ratios of totals over all ops.
    """
    ms = {op: defaultdict(float) for op in ops + setups}  # op -> name -> summed ms
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[tuple[str, str], float] = defaultdict(float)  # (name, key) -> total
    plan_ids = set()
    unattributed = {op: 0.0 for op in ops}
    for sid, s in enumerate(spans):
        if s is None or s.op not in ms:
            continue
        ms[s.op][s.name] += s.ms
        if s.op in unattributed:
            calls[s.name] += 1
            for key, value in (s.attrs or {}).items():
                attrs[s.name, key] += value
            if s.name == "planner.plan":
                plan_ids.add(sid)
                unattributed[s.op] += s.ms
            elif s.parent in plan_ids:
                unattributed[s.op] -= s.ms

    def per_op_ms(name):
        return statistics.median(ms[op][name] for op in ops)

    def per_op(name, key=None):
        return (attrs[name, key] if key else calls[name]) / len(ops)

    outlier_in = attrs["cloud.outlier", "in"]
    return {
        "planner.plan_ms": per_op_ms("planner.plan"),
        "planner.unattributed_ms": statistics.median(unattributed.values()),
        "io.load_ms": per_op_ms("io.load"),
        "io.bytes_read": per_op("io.load", "bytes"),
        "io.points_loaded": per_op("io.load", "points"),
        "cloud.outlier_ms": per_op_ms("cloud.outlier"),
        "cloud.outlier_removed_frac": _ratio(outlier_in - attrs["cloud.outlier", "out"], outlier_in),
        "cloud.knn_all_calls": per_op("cloud.knn_all"),
        "cloud.knn_all_ms": per_op_ms("cloud.knn_all"),
        "cloud.index_builds": per_op("cloud.index_build"),
        "cloud.index_build_ms": per_op_ms("cloud.index_build"),
        "cloud.voxel_ms": per_op_ms("cloud.voxel"),
        "cloud.voxel_keep_frac": _ratio(attrs["cloud.voxel", "out"], attrs["cloud.voxel", "in"]),
        "cloud.normals_ms": per_op_ms("cloud.normals"),
        "cloud.normals_estimated": sum(ms[op]["cloud.normals"] > 0 for op in ops) / len(ops),
        "cloud.nearest_calls": per_op("cloud.nearest"),
        "cloud.nearest_ms": per_op_ms("cloud.nearest"),
        "regions.segment_ms": per_op_ms("regions.segment"),
        "regions.count": per_op("regions.segment", "regions"),
        "regions.residue_frac": _ratio(attrs["regions.segment", "residue"], attrs["regions.segment", "points"]),
        "candidates.pair_ms": per_op_ms("candidates.pair"),
        "candidates.pairs": per_op("candidates.pair", "pairs"),
        "candidates.contacts_ms": per_op_ms("candidates.contacts"),
        "candidates.count": per_op("candidates.contacts", "made"),
        "candidates.yield": _ratio(attrs["candidates.contacts", "made"], attrs["candidates.contacts", "asked"]),
        "stability.rank_ms": per_op_ms("stability.rank"),
        "stability.solve_ms": per_op_ms("stability.solve"),
        "stability.solves": per_op("stability.solve"),
        "stability.nonconverged_frac": _ratio(
            calls["stability.solve"] - attrs["stability.solve", "converged"], calls["stability.solve"]),
        "stability.closure_frac": _ratio(attrs["stability.rank", "closure"], attrs["stability.rank", "reports"]),
        "mechanics.grasp_map_calls": per_op("mechanics.grasp_map"),
        "mechanics.grasp_map_ms": per_op_ms("mechanics.grasp_map"),
        "mechanics.closure_calls": per_op("mechanics.closure"),
        "mechanics.closure_ms": per_op_ms("mechanics.closure"),
        "robustness.eval_ms": per_op_ms("robustness.eval"),
        "robustness.ms_per_trial": _ratio(
            sum(ms[op]["robustness.eval"] for op in ops), attrs["robustness.eval", "trials"]),
        "shapes.generate_ms": statistics.median(ms[k]["shapes.generate"] for k in setups),
    }
