"""In-process tracing of ``pefcoh`` by wrapping module attributes.

The tracer keeps spans (run id, name, start, end, parent) and counts in
memory. :func:`instrument` replaces the functions that ``pefcoh.cli`` and
``pefcoh.metrics.evaluate`` call through module attributes with wrappers
that open a span and record counts at the same boundary, and restores them
on exit. Nothing inside ``pefcoh`` changes. A function that a later version
no longer has is skipped, and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    run_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, Counter] = field(default_factory=lambda: defaultdict(Counter))
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(self.run_id, name, time.perf_counter(), parent=parent)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.run_id][name] += value

    def times(self, run_id: int) -> dict[str, tuple[float, float]]:
        """Per span name in one run: (total time, self time)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i, span in enumerate(self.spans):
            if span.run_id == run_id:
                duration = span.end - span.start
                out[span.name][0] += duration
                out[span.name][1] += duration - child_time[i]
        return {name: (total, self_time) for name, (total, self_time) in out.items()}

    def write(self, path: Path) -> None:
        spans = [vars(s) for s in self.spans]
        counts = {str(run): dict(c) for run, c in self.counts.items()}
        path.write_text(json.dumps({"spans": spans, "counts": counts}) + "\n", encoding="utf-8")


def _wrap(tracer: Tracer, fn: Callable, span: str | None, count: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(span):
                result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_parse(t: Tracer, args, kwargs, dump) -> None:
    t.count("dumpio.parse_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    t.count("dumpio.entries_parsed", sum(len(img.entries) for img in dump.images))


def _count_topk(t: Tracer, args, kwargs, evidence) -> None:
    dump = _arg(args, kwargs, 0, "dump")
    annotations = _arg(args, kwargs, 1, "annotations")
    eps = _arg(args, kwargs, 3, "config").eps
    global_ids = {p.prototype_id for p in dump.prototypes if any(abs(w) > eps for w in p.class_weights)}
    annotated = {img.image_id for img in annotations.images}
    t.count(
        "metrics.topk_pool_entries",
        sum(
            1
            for img in dump.images
            if img.split == "train" and img.image_id in annotated
            for e in img.entries
            if e.prototype_id in global_ids
        ),
    )
    t.count("metrics.topk_items", sum(len(ev.items) for ev in evidence))


def _count_localization(t: Tracer, args, kwargs, result) -> None:
    rows = result[0]
    t.count("metrics.localized_images", len(rows))
    t.count("metrics.loc_candidates", sum(row.n_candidates for row in rows))


def _count_iou(t: Tracer, args, kwargs, result) -> None:
    t.count("geometry.iou_dsc_exact_calls")
    t.count("geometry.boxes_unioned", len(_arg(args, kwargs, 0, "a")) + len(_arg(args, kwargs, 1, "b")))


def _count_calls(name: str) -> Callable:
    return lambda t, args, kwargs, result: t.count(name)


def _count_written(name: str) -> Callable:
    def count(t: Tracer, args, kwargs, result) -> None:
        t.count(name, os.path.getsize(_arg(args, kwargs, 0, "path")))

    return count


def _count_warnings(t: Tracer, args, kwargs, warnings) -> None:
    t.count("dumpio.warnings", len(warnings))


# (module, attribute, span name or None for count-only, count function)
HOOKS = (
    ("pefcoh.dumpio", "parse_dump", "dumpio.parse_dump", _count_parse),
    ("pefcoh.dumpio", "load_annotations", "dumpio.load_annotations",
     _count_calls("dumpio.load_annotations_calls")),
    ("pefcoh.dumpio", "write_json", "dumpio.write_json", _count_written("dumpio.bytes_written")),
    ("pefcoh.cli", "evaluate", "metrics.evaluate", None),
    ("pefcoh.cli", "aggregate", "metrics.aggregate", None),
    ("pefcoh.metrics", "require_consistent", "dumpio.require_consistent", _count_warnings),
    ("pefcoh.metrics", "global_prototypes", "metrics.global_prototypes", None),
    ("pefcoh.metrics", "local_prototypes", "metrics.local_prototypes", None),
    ("pefcoh.metrics", "top_k_evidence", "metrics.top_k_evidence", _count_topk),
    ("pefcoh.metrics", "build_verdicts", "metrics.build_verdicts", None),
    ("pefcoh.metrics", "_localization_detail", "metrics.localization", _count_localization),
    ("pefcoh.metrics", "iou_dsc_exact", "geometry.iou_dsc_exact", _count_iou),
    ("pefcoh.metrics", "resolve_patch_box", None, _count_calls("geometry.resolve_patch_box_calls")),
    ("pefcoh.report", "write_report", "report.write_report", _count_written("report.report_bytes")),
    ("pefcoh.report", "load_report", "report.load_report", None),
    ("pefcoh.report", "build_comparison", "report.build_comparison", None),
)


@contextmanager
def instrument(tracer: Tracer, modules: dict) -> Iterator[list[str]]:
    """Install every hook whose target exists; yields the names skipped."""
    installed = []
    skipped = []
    try:
        for module_name, attr, span, count in HOOKS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                skipped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, _wrap(tracer, original, span, count))
            installed.append((module, attr, original))
        yield skipped
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)


# per-layer metric -> the spans whose self times it sums
SELF_TIMES = {
    "dumpio.parse_dump_s": ("dumpio.parse_dump",),
    "dumpio.load_annotations_s": ("dumpio.load_annotations",),
    "dumpio.require_consistent_s": ("dumpio.require_consistent",),
    "dumpio.write_json_s": ("dumpio.write_json",),
    "metrics.compactness_s": ("metrics.global_prototypes", "metrics.local_prototypes"),
    "metrics.top_k_evidence_s": ("metrics.top_k_evidence",),
    "metrics.build_verdicts_s": ("metrics.build_verdicts",),
    "metrics.localization_s": ("metrics.localization",),
    "metrics.aggregate_s": ("metrics.aggregate",),
    "geometry.iou_dsc_exact_s": ("geometry.iou_dsc_exact",),
    "report.write_report_s": ("report.write_report",),
    "report.load_report_s": ("report.load_report",),
    "report.build_comparison_s": ("report.build_comparison",),
}
COUNTS = (
    "dumpio.entries_parsed",
    "dumpio.load_annotations_calls",
    "dumpio.warnings",
    "dumpio.bytes_written",
    "metrics.topk_pool_entries",
    "metrics.topk_items",
    "metrics.localized_images",
    "metrics.loc_candidates",
    "geometry.iou_dsc_exact_calls",
    "geometry.boxes_unioned",
    "geometry.resolve_patch_box_calls",
    "report.report_bytes",
)


def fastest_times(tracer: Tracer) -> dict[str, tuple[float, float]]:
    """Per span name: the smallest (total, self) time over all runs."""
    times: dict[str, tuple[float, float]] = {}
    for run_id in sorted({span.run_id for span in tracer.spans}):
        for name, (total, self_time) in tracer.times(run_id).items():
            best = times.get(name, (total, self_time))
            times[name] = (min(best[0], total), min(best[1], self_time))
    return times


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer values over every traced run; None marks an absent span.

    Each time is the fastest run's, like the end-to-end times; counts come
    from the first run, since every run does the same work.
    """
    times = fastest_times(tracer)
    counts = tracer.counts[min(span.run_id for span in tracer.spans)]
    out: dict[str, float | None] = {}
    for metric, spans in SELF_TIMES.items():
        present = [times[s][1] for s in spans if s in times]
        out[metric] = sum(present) if present else None
    for name in COUNTS:
        out[name] = counts[name] if name in counts else None
    for metric, span in (("cli.evaluate_s", "cli.evaluate"), ("cli.compare_s", "cli.compare")):
        out[metric] = times[span][0] if span in times else None
    parse_s = out["dumpio.parse_dump_s"]
    out["dumpio.parse_mb_per_s"] = (
        counts["dumpio.parse_bytes"] / 1e6 / parse_s if parse_s else None
    )
    pool = out["metrics.topk_pool_entries"]
    out["metrics.topk_kept_ratio"] = (
        out["metrics.topk_items"] / pool if pool and out["metrics.topk_items"] is not None else None
    )
    return out
