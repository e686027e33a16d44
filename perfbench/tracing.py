"""Span tracing of the stdlens layers, installed from outside the package.

The tracer wraps public functions of each stdlens module at run time and
records one span per call: name, start, end, parent span and the op it
belongs to. Nothing under ``src/`` is edited. ``from .x import f`` copies
a function into the importing module, so a wrapper replaces every module
attribute that is the original function object, not just the defining
one. Spans stay in memory until the run ends and are then aggregated into
the per-layer metrics and written out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np


def _count_samples(args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return {"samples": len(batch)}


def _count_projection(args, kwargs, result):
    n, dim = np.shape(args[0] if args else kwargs["blocks"])
    return {"rows": n, "dim": dim, "flops_computed": n * dim * dim + dim ** 3}


def _count_points(args, kwargs, result):
    return {"points": len(args[0] if args else kwargs["points"])}


def _count_contributions(args, kwargs, result):
    contribs = args[2] if len(args) > 2 else kwargs["contributions"]
    return {"contributions": len(contribs)}


def _count_stream_bytes(args, kwargs, result):
    return {"stream_bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Layer metric name -> (module, attribute path, counter). The metric name is
# <layer>.<function>; methods of StdLensDefense are named in the forensics
# layer, the `run` click command in the cli layer.
TRACED = {
    "engine.local_update": ("stdlens.engine", "local_update", None),
    "detection.detector_loss_and_grad": ("stdlens.detection", "detector_loss_and_grad",
                                         _count_samples),
    "detection.evaluate_per_class_ap": ("stdlens.detection", "evaluate_per_class_ap", None),
    "detection.generate_client_dataset": ("stdlens.detection", "generate_client_dataset",
                                          None),
    "attacks.effective_poison_for_round": ("stdlens.attacks", "effective_poison_for_round",
                                           None),
    "engine.fedavg_aggregate": ("stdlens.engine", "fedavg_aggregate", None),
    "engine.select_participants": ("stdlens.engine", "select_participants", None),
    "seeding.make_rng": ("stdlens.seeding", "make_rng", None),
    "forensics.spatial_project": ("stdlens.forensics", "spatial_project", _count_projection),
    "forensics.kmeans": ("stdlens.forensics", "kmeans", _count_points),
    "forensics.flag_suspect_classes": ("stdlens.forensics", "flag_suspect_classes", None),
    "forensics.cluster_2d": ("stdlens.forensics", "cluster_2d", None),
    "forensics.temporal_signature": ("stdlens.forensics", "temporal_signature", None),
    "forensics.sigma_zone_partition": ("stdlens.forensics", "sigma_zone_partition", None),
    "forensics.observe_round": ("stdlens.forensics", "StdLensDefense.observe_round", None),
    "forensics.observe_contributions": ("stdlens.forensics",
                                        "StdLensDefense.observe_contributions",
                                        _count_contributions),
    "forensics.window_step": ("stdlens.forensics", "StdLensDefense.window_step", None),
    "forensics.extract_class_gradient_block": ("stdlens.forensics",
                                               "extract_class_gradient_block", None),
    "baselines.defense_spatial_smaller_cluster": ("stdlens.baselines",
                                                  "defense_spatial_smaller_cluster", None),
    "baselines.defense_spectral_signature": ("stdlens.baselines",
                                             "defense_spectral_signature", None),
    "replay.write_contributions": ("stdlens.replay", "write_contributions",
                                   _count_stream_bytes),
    "replay.read_stream": ("stdlens.replay", "read_stream", None),
    "replay.replay_stream": ("stdlens.replay", "replay_stream", None),
    "robust.synth_two_population_stream": ("stdlens.robust", "synth_two_population_stream",
                                           None),
    "robust.random_premise_mixture": ("stdlens.robust", "random_premise_mixture", None),
    "metrics.run_experiment": ("stdlens.metrics", "run_experiment", None),
    "cli.run": ("stdlens.cli", "run.callback", None),
}

# Counts-only layers: their self time would mostly be the tracer's own cost.
CALLS_ONLY = {"seeding.make_rng"}

# Extra per-layer counts, summed over spans: metric -> (span name, attr, unit).
EXTRA_COUNTS = {
    "detection.detector_loss_and_grad.samples": ("detection.detector_loss_and_grad",
                                                 "samples", "count"),
    "forensics.spatial_project.rows": ("forensics.spatial_project", "rows", "count"),
    "forensics.spatial_project.flops_computed": ("forensics.spatial_project",
                                                 "flops_computed", "flop"),
    "forensics.kmeans.points": ("forensics.kmeans", "points", "count"),
    "replay.stream_bytes": ("replay.write_contributions", "stream_bytes", "B"),
}


def metric_units() -> dict:
    """Every per-layer metric this module reports, with its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        if name not in CALLS_ONLY:
            units[f"{name}.self_s"] = "s"
    for name, (_, _, unit) in EXTRA_COUNTS.items():
        units[name] = unit
    units["forensics.spatial_project.dim"] = "count"
    units["forensics.rows_per_contribution"] = "ratio"
    units["trace_overhead_ratio"] = "ratio"
    units["trace_coverage"] = "ratio"
    return units


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, id, parent, name, op, start=0.0, end=0.0, attrs=None):
        self.id, self.parent, self.name, self.op = id, parent, name, op
        self.start, self.end, self.attrs = start, end, attrs

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name, "op": self.op,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """In-memory span recorder; `install` patches the stdlens layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None              # id shared by every span of the current op
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, self.op)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.attrs = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "stdlens" or n.startswith("stdlens."))]
        for name, (module_name, path, counter) in TRACED.items():
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            if owner_path:
                # a method or a command callback: one owner object to patch
                self._patch(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans, op_seconds: float) -> dict:
    """Aggregate spans into the per-layer metrics (all but the overhead ratio).

    op_seconds is the summed wall time of the traced ops, the base of
    trace_coverage.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list] = {name: [] for name in TRACED}
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name, mine in by_name.items():
        out[f"{name}.calls"] = len(mine)
        if name not in CALLS_ONLY:
            out[f"{name}.self_s"] = float(sum(selfs[s.id] for s in mine))
    # a call that raised has no counts (attrs is None)
    for metric, (name, attr, _) in EXTRA_COUNTS.items():
        out[metric] = sum(s.attrs[attr] for s in by_name[name] if s.attrs)
    proj = [s for s in by_name["forensics.spatial_project"] if s.attrs]
    out["forensics.spatial_project.dim"] = (
        float(np.mean([s.attrs["dim"] for s in proj])) if proj else 0.0)

    def under_window_step(s) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == "forensics.window_step":
                return True
            p = by_id[p].parent
        return False

    rows = sum(s.attrs["rows"] for s in proj if under_window_step(s))
    offered = sum(s.attrs["contributions"]
                  for s in by_name["forensics.observe_contributions"] if s.attrs)
    out["forensics.rows_per_contribution"] = rows / offered if offered else 0.0
    top = sum(s.end - s.start for s in spans if s.parent is None)
    out["trace_coverage"] = top / op_seconds if op_seconds > 0 else 0.0
    return out
