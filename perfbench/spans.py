"""Span tracer that wraps the program's public functions from outside.

A wrapped call records a span (name, start, end, parent span, session id)
in memory; nothing is written until the caller asks for it after the run.
Functions are wrapped at the module attribute their caller resolves them
through: `cdgcn.pipeline` and `cdgcn.cli` import names into their own
namespaces, so wrapping the defining module alone would miss those calls.
Modules are looked up with importlib, because the attribute
`cdgcn.leiden` is the re-exported `leiden` function, not the module.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name). "Class.method" attributes wrap the
# method on the class; classmethods stay classmethods.
TARGETS = [
    ("cdgcn.cli", "main", "cli.main"),
    ("cdgcn.cli", "read_embeddings", "graphs.read_embeddings"),
    ("cdgcn.cli", "load_weights", "gcn.load_weights"),
    ("cdgcn.cli", "read_overlap_mask", "osd.read_mask"),
    ("cdgcn.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("cdgcn.cli", "write_rttm", "timeline.write_rttm"),
    ("cdgcn.cli", "read_rttm", "timeline.read_rttm"),
    ("cdgcn.cli", "der", "scoring.der"),
    ("cdgcn.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("cdgcn.pipeline", "refine_graph", "pipeline.refine_graph"),
    ("cdgcn.pipeline", "cosine_affinity", "graphs.cosine_affinity"),
    ("cdgcn.pipeline", "knn_graph", "graphs.knn_graph"),
    ("cdgcn.pipeline", "build_subgraph", "graphs.build_subgraph"),
    ("cdgcn.pipeline", "merge_subgraphs", "graphs.merge_subgraphs"),
    ("cdgcn.pipeline", "gcn_forward", "gcn.forward"),
    ("cdgcn.pipeline", "leiden", "leiden.leiden"),
    ("cdgcn.pipeline", "belonging_coefficients", "osd.belonging"),
    ("cdgcn.pipeline", "second_community", "osd.second_community"),
    ("cdgcn.pipeline", "apply_overlap", "osd.apply_overlap"),
    ("cdgcn.leiden", "local_move", "leiden.local_move"),
    ("cdgcn.leiden", "refine_partition", "leiden.refine_partition"),
    ("cdgcn.leiden", "aggregate_graph", "leiden.aggregate_graph"),
    ("cdgcn.leiden", "quality", "leiden.quality"),
    ("cdgcn.leiden", "Partition.from_labels", "leiden.from_labels"),
    ("cdgcn.timeline", "DiarizationTimeline.to_records", "timeline.to_records"),
    ("cdgcn.timeline", "read_rttm", "timeline.read_rttm"),
    ("cdgcn.timeline", "write_rttm", "timeline.write_rttm"),
    ("cdgcn.graphs", "read_embeddings", "graphs.read_embeddings"),
    ("cdgcn.osd", "read_overlap_mask", "osd.read_mask"),
    ("cdgcn.gcn", "train", "gcn.train"),
    ("cdgcn.gcn", "load_weights", "gcn.load_weights"),
    ("cdgcn.scoring", "der", "scoring.der"),
    ("cdgcn.synthetic", "cosine_affinity", "graphs.cosine_affinity"),
    ("cdgcn.synthetic", "build_subgraph", "graphs.build_subgraph"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 for a root span
    session: str | None


class Tracer:
    """Installs wrappers on enter, restores the original attributes on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        # (counter name, session id) -> value
        self.counts: dict[tuple[str, str | None], float] = defaultdict(float)
        self.session: str | None = None
        self._stack: list[int] = []
        self._restore = []

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            # The one count taken at a boundary: edges of each graph Leiden gets.
            if name == "leiden.leiden" and args:
                self.count("graphs.edges", args[0].edge_count)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.session))
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(raw.__func__, name))
                else:
                    replacement = self.wrap(raw, name)
            else:
                raw = getattr(owner, attr)
                replacement = self.wrap(raw, name)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        return False

    def count(self, name: str, value: float) -> None:
        self.counts[(name, self.session)] += value

    def dump(self, path) -> None:
        """Write the spans as JSON lines, in start order."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.session]) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            lo = max(spans[child].start, cursor)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans, sessions) -> dict[str, dict[str, float]]:
    """Per-name totals over the spans of the given sessions.

    Returns {name: {"total": inclusive seconds of outermost calls,
    "self": self seconds of every call, "calls": call count}}. A call
    nested inside another call of the same name (recursion) adds to
    calls and self but not again to total.
    """
    sessions = set(sessions)
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0,
                                                             "calls": 0})
    for index, span in enumerate(spans):
        if span.session not in sessions:
            continue
        entry = out[span.name]
        entry["calls"] += 1
        entry["self"] += selfs[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry["total"] += span.end - span.start
    return out
