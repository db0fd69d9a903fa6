"""Spans around the stage functions that ``guas_cert.analyze`` calls.

The tracer replaces names in the ``guas_cert.analyzer`` namespace, where
``analyze`` looks them up at call time, with wrappers that record a span
(name, start, end, parent span, call id).  Two hot helpers are counted
rather than timed.  ``in_G`` and ``in_F`` are left alone: a scan calls them
about 164k times, and a wrapper there would distort the scan time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

ROOT = "analyze"
ROOT_LAYER = "analyzer"

#: Names looked up by guas_cert.analyzer, and the layer each is charged to.
STAGES = (
    ("is_hurwitz", "matrix_core"),
    ("check_weak_lyapunov", "matrix_core"),
    ("normalize", "matrix_core"),
    ("common_kernel", "decomposition"),
    ("block_form", "decomposition"),
    ("sweep_lambda", "observability.sweep_lambda"),
    ("kpetit_classify", "bad_locus.other"),
    ("locus_geometry", "bad_locus.other"),
    ("scan_G", "bad_locus.scan_G"),
    ("empirical_evidence", "analyzer.empirical_evidence"),
    ("worst_case_switching", "simulator.worst_case_switching"),
    ("estimate_omega_limit", "simulator.estimate_omega_limit"),
)
LAYERS = (ROOT_LAYER,) + tuple(dict.fromkeys(layer for _, layer in STAGES))

#: (module, attribute, counter): calls counted, not timed.
COUNTED = (
    ("numpy.linalg", "svd", "linalg.svd_calls"),
    ("guas_cert.observability", "kalman_matrix", "observability.kalman_evals"),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span
    call_id: int


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - union_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Spans and counts of the traced ``analyze`` calls, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.calls = 0
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), float("nan"), parent, self.calls)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._count_result(name, result)
            return result
        return wrapper

    def _counted(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_result(self, name: str, result) -> None:
        """Work counts read off the reports the scan and the evidence return."""
        if name == "scan_G":
            self.counts["bad_locus.scan_samples"] += result.n_samples
            self.counts["bad_locus.scan_hits"] += result.n_hits
        elif name == "empirical_evidence":
            steps = max(1, int(round(result.T / result.dt)))
            self.counts["simulator.adversary_steps"] += result.n_runs * steps

    @contextmanager
    def installed(self):
        """Wrap the stage names and counted helpers; restore them on exit."""
        analyzer = importlib.import_module("guas_cert.analyzer")
        targets = [(analyzer, name, self._timed(name, layer, getattr(analyzer, name)))
                   for name, layer in STAGES if hasattr(analyzer, name)]
        for module_name, attr, counter in COUNTED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                targets.append((module, attr, self._counted(counter, getattr(module, attr))))
        wrapped = {attr for _, attr, _ in targets}
        self.absent = [name for name, _ in STAGES if name not in wrapped] + [
            attr for _, attr, _ in COUNTED if attr not in wrapped
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, wrapper in targets:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def call(self, fn, *args):
        """One traced call of ``fn`` (analyze) as the root span of a new call id."""
        self.calls += 1
        span = self._open(ROOT, ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of all traced calls, as {name: (value, unit)}.

        ``wall_s`` is the analyze wall time of the traced calls, measured
        by the caller around each call.
        """
        selfs = self_times(self.spans)
        by_layer = Counter()
        calls = Counter()
        stage_s = 0.0
        for s, t in zip(self.spans, selfs):
            by_layer[s.layer] += t
            calls[s.name] += 1
            if s.parent is not None and self.spans[s.parent].name == ROOT:
                stage_s += s.end - s.start
        evidence_incl = sum(s.end - s.start for s in self.spans
                            if s.name == "empirical_evidence")
        n = max(self.calls, 1)
        share = 100.0 / wall_s if wall_s > 0 else 0.0
        out = {
            "trace.coverage_pct": (share * sum(by_layer.values()), "%"),
            "trace.stage_coverage_pct": (share * stage_s, "%"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (1e3 * by_layer[layer], "ms")
            out[f"{layer}.share_pct"] = (share * by_layer[layer], "%")
        out["analyzer.empirical_evidence.incl_share_pct"] = (share * evidence_incl, "%")
        out["bad_locus.scan_G.calls"] = (calls["scan_G"], "count")
        out["analyzer.empirical_evidence.calls"] = (calls["empirical_evidence"], "count")
        for name in ("linalg.svd_calls", "observability.kalman_evals",
                     "bad_locus.scan_samples", "bad_locus.scan_hits",
                     "simulator.adversary_steps"):
            out[name] = (self.counts[name] / n, "count/call")
        samples = self.counts["bad_locus.scan_samples"]
        out["bad_locus.hit_ratio"] = (
            self.counts["bad_locus.scan_hits"] / samples if samples else 0.0, "ratio")
        adversary_s = by_layer["simulator.worst_case_switching"]
        out["simulator.steps_per_s"] = (
            self.counts["simulator.adversary_steps"] / adversary_s if adversary_s else 0.0,
            "1/s")
        return out
