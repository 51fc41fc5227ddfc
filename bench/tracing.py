"""Spans around the calls into each isoslice layer, recorded from outside.

``Recorder.installed()`` swaps the module attributes named in ``TARGETS`` for
timing wrappers and puts the originals back on exit, so untraced jobs run
the unmodified program.  Spans stay in memory (name, start, end, parent,
job id and a few counts) until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np


def _samples(args, result):
    return {"samples": int(np.broadcast(args[1], args[2]).size)}


# (module, attribute, span name, counts taken from (args, result) after the call)
TARGETS = [
    ("isoslice.cli", "main", "cli.main", None),
    ("isoslice.cli", "load_volume", "volume.load", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("isoslice.cli", "save_volume", "volume.save", lambda a, r: {"bytes": os.path.getsize(a[1])}),
    ("isoslice.impute", "estimate_flow", "flow.estimate", lambda a, r: {"pixels": a[0].data.size}),
    ("isoslice.flow", "sample_bilinear", "flow.resample", _samples),
    ("isoslice.impute", "compose_intermediate_flow", "flow.compose", None),
    ("isoslice.cli", "impute_volume", "impute.volume", lambda a, r: {"voxels": r[0].data.size}),
    ("isoslice.impute", "sample_bilinear", "impute.warp", _samples),
    ("isoslice.impute", "one_hot_stack", "impute.onehot", lambda a, r: {"bytes": a[1] * a[0].size * 8}),
    ("isoslice.cli", "evaluate", "metrics.evaluate", None),
    ("isoslice.metrics", "surface_voxels", "metrics.surface", lambda a, r: {"points": len(r)}),
    ("isoslice.cli", "tp_smooth_loss", "losses.tp_smooth", None),
    ("isoslice.cli", "rec_loss", "losses.rec", None),
]

LAYERS = ("cli", "volume", "flow", "impute", "metrics", "losses")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict = field(default_factory=dict)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._open: list[int] = []

    def wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.job)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if measure is not None:
                span.counts = measure(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, job: int):
        """Trace the calls made inside the block as job ``job``."""
        self.job = job
        originals = []
        try:
            for module_name, attr, name, measure in TARGETS:
                module = importlib.import_module(module_name)
                originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, originals[-1][2], measure))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def as_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [
        (s.end - s.start)
        - covered(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i]
            if c.start < s.end and c.end > s.start
        )
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans: list[Span], job_seconds: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced job (shares are of job time)."""
    jobs = len(job_seconds)
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    counts = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        for key, value in s.counts.items():
            counts[s.name, key] += value
    job_total = sum(job_seconds.values())
    uncovered = job_total - sum(
        covered((s.start, s.end) for s in spans if s.job == j and s.parent is None) for j in job_seconds
    )

    def per_job(table, key, scale=1.0):
        return table[key] * scale / jobs

    m = {
        "cli.self_s": per_job(own, "cli.main"),
        "volume.load_calls": per_job(calls, "volume.load"),
        "volume.load_s": per_job(total, "volume.load"),
        "volume.mb_read": per_job(counts, ("volume.load", "bytes"), 1e-6),
        "volume.save_s": per_job(total, "volume.save"),
        "volume.mb_written": per_job(counts, ("volume.save", "bytes"), 1e-6),
        "flow.estimate_calls": per_job(calls, "flow.estimate"),
        "flow.estimate_self_s": per_job(own, "flow.estimate"),
        "flow.estimate_mpix": per_job(counts, ("flow.estimate", "pixels"), 1e-6),
        "flow.resample_calls": per_job(calls, "flow.resample"),
        "flow.resample_s": per_job(total, "flow.resample"),
        "flow.resample_msamples": per_job(counts, ("flow.resample", "samples"), 1e-6),
        "flow.compose_calls": per_job(calls, "flow.compose"),
        "flow.compose_s": per_job(total, "flow.compose"),
        "impute.self_s": per_job(own, "impute.volume"),
        "impute.warp_calls": per_job(calls, "impute.warp"),
        "impute.warp_s": per_job(total, "impute.warp"),
        "impute.warp_msamples": per_job(counts, ("impute.warp", "samples"), 1e-6),
        "impute.onehot_calls": per_job(calls, "impute.onehot"),
        "impute.onehot_s": per_job(total, "impute.onehot"),
        "impute.onehot_mb": per_job(counts, ("impute.onehot", "bytes"), 1e-6),
        "impute.out_mvox": per_job(counts, ("impute.volume", "voxels"), 1e-6),
        "metrics.evaluate_s": per_job(total, "metrics.evaluate"),
        "metrics.self_s": per_job(own, "metrics.evaluate"),
        "metrics.surface_calls": per_job(calls, "metrics.surface"),
        "metrics.surface_s": per_job(total, "metrics.surface"),
        "metrics.surface_points": per_job(counts, ("metrics.surface", "points")),
        "losses.tp_smooth_s": per_job(total, "losses.tp_smooth"),
        "losses.rec_s": per_job(total, "losses.rec"),
        "trace.job_s": job_total / jobs,
        "trace.uncovered_frac": uncovered / job_total,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = sum(v for k, v in own.items() if k.split(".")[0] == layer) / job_total
    return m
