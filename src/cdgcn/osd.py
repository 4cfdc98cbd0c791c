"""Second-speaker assignment from community belonging strengths.

A node's belonging coefficient toward a community is the summed weight of
its refined edges into that community; the runner-up community (when it
has positive strength) becomes the node's overlap candidate, applied only
on frames a detector has flagged as overlapped speech.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import SpeakerGraph
from .leiden import Partition
from .timeline import FRAME_DURATION, DiarizationTimeline


@dataclass
class OverlapMask:
    """Frame-level overlapped-speech flags from an external detector."""

    frames: np.ndarray
    frame_duration: float = FRAME_DURATION

    def __post_init__(self):
        if not 0 < self.frame_duration < np.inf:
            raise ValueError(f"frame_duration {self.frame_duration} must be finite and positive")
        self.frames = np.asarray(self.frames).astype(bool)

    def __len__(self) -> int:
        return len(self.frames)


def write_overlap_mask(path, mask: OverlapMask) -> None:
    chars = "".join("1" if f else "0" for f in mask.frames)
    Path(path).write_text(f"frame_duration={mask.frame_duration!r}\n{chars}\n")


def read_overlap_mask(path) -> OverlapMask:
    """Parse a mask file: a frame_duration header line, then '0'/'1' per frame
    (newlines between frame characters are tolerated)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("frame_duration="):
        raise ValueError(f"{path}: missing frame_duration header")
    try:
        frame_duration = float(lines[0].split("=", 1)[1])
    except ValueError:
        raise ValueError(f"{path}: bad frame_duration value") from None
    chars = "".join(lines[1:]).replace(" ", "")
    if set(chars) - {"0", "1"}:
        raise ValueError(f"{path}: mask frames must be '0' or '1'")
    frames = np.frombuffer(chars.encode(), dtype=np.uint8) == ord("1")
    try:
        return OverlapMask(frames=frames, frame_duration=frame_duration)
    except ValueError as exc:   # a frame_duration that is not finite and positive
        raise ValueError(f"{path}: {exc}") from None


def belonging_coefficients(graph: SpeakerGraph, partition: Partition) -> np.ndarray:
    """Strength of membership of every node in every community.

    Returns a (C, N) matrix whose (c, i) entry sums the weights of i's
    edges into community c; column sums therefore equal weighted degrees
    on loop-free graphs.
    """
    labels = partition.labels
    if labels.shape != (graph.node_count,):
        raise ValueError("partition does not cover the graph")
    heads, tails, weights = graph.edges
    n = graph.node_count
    b = np.zeros((partition.community_count, n))
    # Cells b[labels[tail], head] and b[labels[head], tail], interleaved so
    # that every cell sums its weights in edge-stream order.
    cells = np.stack([labels[tails] * n + heads, labels[heads] * n + tails], axis=1)
    np.add.at(b.reshape(-1), cells.reshape(-1), np.repeat(weights, 2))
    return b


def second_community(belonging: np.ndarray, primary) -> np.ndarray:
    """Runner-up community per node.

    Picks the non-primary community with the largest belonging strength;
    ties go to the smaller label. Nodes with no positive strength outside
    their own community (including the single-community case) get -1.
    """
    primary = np.asarray(primary, dtype=np.int64)
    c, n = belonging.shape
    if primary.shape != (n,):
        raise ValueError("primary labels do not match the belonging matrix")
    if primary.size and (primary.min() < 0 or primary.max() >= c):
        raise ValueError("primary label outside the belonging matrix communities")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    nodes = np.arange(n)
    masked = np.array(belonging, dtype=np.float64)
    masked[primary, nodes] = -np.inf
    best = np.argmax(masked, axis=0)   # first maximum: ties go to the smaller label
    strength = masked[best, nodes]
    return np.where(strength > 0.0, best, -1).astype(np.int64)


def apply_overlap(primary: np.ndarray, frame_segment: np.ndarray, second,
                  mask: OverlapMask) -> DiarizationTimeline:
    """Attach second-speaker labels on frames flagged as overlapped.

    primary: per-frame community label (-1 = non-speech).
    frame_segment: per-frame covering segment index (-1 where none).
    second: per-segment runner-up community (int array), -1 where absent.
    The mask must cover the timeline at FRAME_DURATION; excess mask frames
    are ignored. A frame gets a second label only when it is flagged, is
    speech, and its covering segment has a runner-up, so no frame ever
    exceeds 2 speakers.
    """
    primary = np.asarray(primary, dtype=np.int64)
    frame_segment = np.asarray(frame_segment, dtype=np.int64)
    if not abs(mask.frame_duration - FRAME_DURATION) <= 1e-9:   # NaN fails too
        raise ValueError(
            f"mask frame duration {mask.frame_duration} does not match {FRAME_DURATION}"
        )
    if len(mask) < len(primary):
        raise ValueError(f"overlap mask has {len(mask)} frames, timeline has {len(primary)}")
    secondary = np.full(primary.shape, -1, dtype=np.int64)
    flagged = mask.frames[: len(primary)] & (frame_segment >= 0) & (primary >= 0)
    idx = np.flatnonzero(flagged)
    cand = second[frame_segment[idx]]
    keep = cand >= 0
    secondary[idx[keep]] = cand[keep]
    return DiarizationTimeline(primary.copy(), secondary)
