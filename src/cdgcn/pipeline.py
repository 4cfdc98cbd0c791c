"""End-to-end diarization over precomputed segment embeddings.

Modes mirror the component ladder: Leiden on the raw cosine graph, on the
KNN-sparsified graph, on the GCN-refined merged graph, and finally with
second-speaker labels gated by an overlap mask.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gcn import GcnWeights, gcn_forward
from .graphs import (BLOCK, EmbeddingSet, build_subgraph, cosine_affinity, knn_graph,
                     merge_subgraphs)
from .leiden import LeidenConfig, leiden
from .osd import OverlapMask, apply_overlap, belonging_coefficients, second_community
from .timeline import FRAME_DURATION, DiarizationTimeline, check_rttm_field

MODES = ("raw_leiden", "knn_leiden", "cdgcn_no_osd", "cdgcn")

_EPS = 1e-9
#: Segment windows: WINDOW seconds long, one starting every SHIFT seconds.
WINDOW = 1.5
SHIFT = 0.75


@dataclass
class PipelineConfig:
    knn_k: int = 300
    gamma: float = 0.6
    seed: int = 0


def segment_speech(vad_regions):
    """Slide fixed windows over each speech region.

    Full WINDOW-long windows start every SHIFT until the next one would
    pass the region end, so less than SHIFT at the end stays uncovered.
    Regions too short for a full window yield a single segment spanning
    the whole region. Returns a list of (start, duration) pairs.
    """
    segments = []
    prev_end = -math.inf
    for start, end in vad_regions:
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"region ({start}, {end}) is not finite")
        if end <= start:
            raise ValueError(f"inverted region ({start}, {end})")
        if start < prev_end - _EPS:
            raise ValueError(f"region ({start}, {end}) overlaps the previous one")
        prev_end = end
        t = start
        while t + WINDOW <= end + _EPS:
            segments.append((t, WINDOW))
            t += SHIFT
        if t == start:
            # Region shorter than a window: one segment spanning it.
            segments.append((start, end - start))
    return segments


def read_vad_regions(path):
    """Read '<start> <end>' lines (seconds), finite and with end >= start;
    blank lines are skipped."""
    regions = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path} line {lineno}: expected '<start> <end>'")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path} line {lineno}: values are not numbers") from None
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"{path} line {lineno}: bounds must be finite")
        if end < start:
            raise ValueError(f"{path} line {lineno}: end {end:g} is before start {start:g}")
        regions.append((start, end))
    return regions


def write_vad_regions(path, regions) -> None:
    Path(path).write_text("".join(f"{s:.3f} {e:.3f}\n" for s, e in regions))


def _frame_count(end: float, frame_duration: float, name: str) -> int:
    """Frames in a timeline ending at `end` seconds (at least one); `name` names `end`."""
    frames = float(end) / frame_duration - _EPS
    if not frames < np.iinfo(np.intp).max:
        raise ValueError(f"{name} ends at {end:g} s, past the last frame a timeline can hold")
    return max(1, math.ceil(frames))


def _covered_frames(start, end, frame_duration: float, total: int):
    """Index range [f0, f1) of frames whose centers fall in [start, end);
    given arrays of starts and ends, one range per pair."""
    with np.errstate(over="ignore"):   # a bound past the float range gives +-inf, clipped
        f0 = np.clip(np.ceil(start / frame_duration - 0.5 - _EPS), 0, total).astype(np.int64)
        f1 = np.clip(np.ceil(end / frame_duration - 0.5 - _EPS), 0, total).astype(np.int64)
    return f0, f1


def _region_frames(regions, total: int, frame_duration: float) -> np.ndarray:
    """For each of `total` frames, whether its center falls in a (start, end) region."""
    f0, f1 = _covered_frames(*np.asarray(regions, float).reshape(-1, 2).T, frame_duration, total)
    # +1 where a region's frames start, -1 where they stop: covered while the sum is > 0.
    edges = (np.bincount(f0[f0 < f1], minlength=total + 1)
             - np.bincount(f1[f0 < f1], minlength=total + 1))
    return np.cumsum(edges[:total]) > 0


def _frame_attribution(segments: np.ndarray, labels: np.ndarray, vad_regions=None):
    """Assign each frame the label of the covering segment with the nearest
    center (the lowest index among ties); frames outside every segment (or
    outside the VAD) stay -1. Frames are FRAME_DURATION long.

    Returns (per-frame label, per-frame segment index).
    """
    starts, durations = segments[:, 0], segments[:, 1]
    ends = starts + durations
    total = _frame_count(ends.max(), FRAME_DURATION, f"segment {np.argmax(ends)}")
    f0, f1 = _covered_frames(starts, ends, FRAME_DURATION, total)
    counts = np.maximum(f1 - f0, 0)
    # One entry per (segment, covered frame), segment by segment.
    segment = np.repeat(np.arange(len(segments)), counts)
    frame = np.arange(counts.sum()) + np.repeat(f0 - (np.cumsum(counts) - counts), counts)
    dist = np.abs((frame + 0.5) * FRAME_DURATION - (starts + durations / 2.0)[segment])
    best = np.full(total, np.inf)
    np.minimum.at(best, frame, dist)
    nearest = dist == best[frame]
    frame_segment = np.full(total, len(segments), dtype=np.int64)
    np.minimum.at(frame_segment, frame[nearest], segment[nearest])
    frame_segment[frame_segment == len(segments)] = -1
    if vad_regions is not None:
        frame_segment[~_region_frames(vad_regions, total, FRAME_DURATION)] = -1
    primary = np.full(total, -1, dtype=np.int64)
    covered = frame_segment >= 0
    primary[covered] = labels[frame_segment[covered]]
    return primary, frame_segment


def refine_graph(emb: EmbeddingSet, aff: np.ndarray, weights: GcnWeights, k: int):
    """Predict linkage probabilities on every pivot sub-graph, BLOCK stacked
    pivots at a time, and merge them."""
    n = emb.count
    members, probs = [], []
    for start in range(0, n, BLOCK):
        sub = build_subgraph(aff, emb, np.arange(start, min(n, start + BLOCK)), k)
        members.append(sub.members)
        probs.append(gcn_forward(sub, weights))
    return merge_subgraphs(np.concatenate(members), np.concatenate(probs), n)


def run_pipeline(emb: EmbeddingSet, mode: str, weights: GcnWeights | None = None,
                 mask: OverlapMask | None = None, config: PipelineConfig | None = None,
                 vad_regions=None, file_id: str = "session"):
    """Cluster segment embeddings and emit a timeline plus RTTM records.

    mode selects the graph fed to community detection (raw cosine graph,
    KNN graph, or GCN-refined graph) and whether overlap labels are added;
    the GCN modes need weights and the overlap mode also needs a mask.
    vad_regions, if given, are (start, end) pairs of finite seconds with
    end >= start; frames outside them get no speaker. Community labels
    become speakers "spk<index>".
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {', '.join(MODES)}")
    cfg = config or PipelineConfig()
    n = emb.count
    if n == 0:
        raise ValueError("embedding set is empty")
    if mode in ("cdgcn_no_osd", "cdgcn") and weights is None:
        raise ValueError(f"mode {mode} requires GCN weights")
    if mode == "cdgcn" and mask is None:
        raise ValueError("mode cdgcn requires an overlap mask")
    leiden_config = LeidenConfig(gamma=cfg.gamma, seed=cfg.seed)   # checked before the graph work
    if mode != "raw_leiden" and not isinstance(cfg.knn_k, numbers.Integral):
        raise ValueError(f"knn_k must be an integer, got {cfg.knn_k!r}")
    if mode != "raw_leiden" and cfg.knn_k < 1:
        raise ValueError("k must be >= 1")
    check_rttm_field("file id", file_id)
    for i, (start, end) in enumerate(() if vad_regions is None else vad_regions):
        if not (math.isfinite(start) and math.isfinite(end) and start <= end):
            raise ValueError(f"VAD region {i} ({start:g}, {end:g}) needs finite bounds "
                             f"with end >= start")

    aff = cosine_affinity(emb)
    if mode == "raw_leiden":
        graph = knn_graph(aff, n)
    elif mode == "knn_leiden":
        graph = knn_graph(aff, cfg.knn_k)
    else:
        graph = refine_graph(emb, aff, weights, cfg.knn_k)

    partition = leiden(graph, leiden_config)
    primary, frame_segment = _frame_attribution(emb.segments, partition.labels, vad_regions)
    if mode == "cdgcn":
        belonging = belonging_coefficients(graph, partition)
        second = second_community(belonging, partition.labels)
        timeline = apply_overlap(primary, frame_segment, second, mask)
    else:
        timeline = DiarizationTimeline(primary)
    return timeline, timeline.to_records(file_id)
