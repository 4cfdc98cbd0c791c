"""Diarization scoring: overlap-aware error rate and speaker-count MSE.

Time is discretized at 1 ms so collar handling stays exact; reference and
hypothesis speakers are matched one-to-one by maximizing co-occurring
speech time before counting misses, false alarms and confusions.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

RESOLUTION = 0.001


@dataclass
class DerBreakdown:
    missed_seconds: float
    false_alarm_seconds: float
    speaker_error_seconds: float
    total_reference_seconds: float

    @property
    def der_percent(self) -> float:
        errors = self.missed_seconds + self.false_alarm_seconds + self.speaker_error_seconds
        if self.total_reference_seconds == 0.0:
            return 0.0 if errors == 0.0 else math.inf
        return 100.0 * errors / self.total_reference_seconds

    def __str__(self) -> str:
        return (f"DER={self.der_percent:.2f}% MISS={self.missed_seconds:.3f} "
                f"FA={self.false_alarm_seconds:.3f} SPKERR={self.speaker_error_seconds:.3f}")


def _frame_index(seconds: float) -> int:
    return int(round(seconds / RESOLUTION))


def _speaker_masks(records, total_frames: int) -> dict[str, np.ndarray]:
    masks: dict[str, np.ndarray] = {}
    for r in records:
        mask = masks.setdefault(r.speaker, np.zeros(total_frames, dtype=bool))
        mask[_frame_index(r.onset):_frame_index(r.end)] = True
    return masks


def _score_file(file_id: str, ref, hyp, collar: float):
    """Frame counts (miss, fa, confusion, scored reference) for one file."""
    last = max((r.end for r in ref + hyp), default=0.0)
    if not last / RESOLUTION < np.iinfo(np.intp).max:
        raise ValueError(f"file {file_id}: a turn ends at {last:g} s, past the last frame to score")
    total_frames = _frame_index(last)
    if total_frames == 0:
        return 0, 0, 0, 0
    scored = np.ones(total_frames, dtype=bool)
    if collar > 0.0:
        for r in ref:
            for boundary in (r.onset, r.end):
                lo = max(0, _frame_index(boundary - collar))
                hi = min(total_frames, _frame_index(boundary + collar))
                scored[lo:hi] = False

    ref_masks = [m & scored for m in _speaker_masks(ref, total_frames).values()]
    hyp_masks = [m & scored for m in _speaker_masks(hyp, total_frames).values()]
    n_ref = np.sum(ref_masks, axis=0) if ref_masks else np.zeros(total_frames, dtype=np.int64)
    n_hyp = np.sum(hyp_masks, axis=0) if hyp_masks else np.zeros(total_frames, dtype=np.int64)

    n_correct = np.zeros(total_frames, dtype=np.int64)
    if ref_masks and hyp_masks:
        # Imported here so that clustering through cdgcn.cli does not load scipy.
        from scipy.optimize import linear_sum_assignment
        overlap = np.array([[int((rm & hm).sum()) for hm in hyp_masks] for rm in ref_masks])
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        for r_idx, h_idx in zip(rows, cols):
            n_correct += ref_masks[r_idx] & hyp_masks[h_idx]

    miss = int(np.maximum(n_ref - n_hyp, 0).sum())
    fa = int(np.maximum(n_hyp - n_ref, 0).sum())
    confusion = int((np.minimum(n_ref, n_hyp) - n_correct).sum())
    return miss, fa, confusion, int(n_ref.sum())


def der(ref, hyp, collar: float = 0.0) -> DerBreakdown:
    """Overlap-aware diarization error rate with optimal speaker mapping.

    Records are grouped by file id and scored independently (the speaker
    mapping is per file); components accumulate across files. ±collar
    seconds around every reference turn boundary are excluded from scoring.
    """
    if not 0.0 <= collar < math.inf:
        raise ValueError(f"collar must be finite and non-negative, got {collar}")
    by_file = defaultdict(lambda: ([], []))   # file id -> (reference, hypothesis) records
    for side, records in enumerate((ref, hyp)):
        for r in records:
            by_file[r.file_id][side].append(r)
    counts = [0, 0, 0, 0]   # frames missed, falsely alarmed, confused, scored
    for file_id in sorted(by_file):
        score = _score_file(file_id, *by_file[file_id], collar)
        counts = [total + count for total, count in zip(counts, score)]
    return DerBreakdown(*(count * RESOLUTION for count in counts))


def rttm_speaker_counts(records) -> dict[str, int]:
    """Distinct speakers per file id."""
    speakers = defaultdict(set)
    for r in records:
        speakers[r.file_id].add(r.speaker)
    return {file_id: len(s) for file_id, s in speakers.items()}


def speaker_count_mse(ref_counts, hyp_counts) -> float:
    """Mean squared error between per-file speaker counts."""
    ref_counts = np.asarray(ref_counts, dtype=np.float64)
    hyp_counts = np.asarray(hyp_counts, dtype=np.float64)
    if ref_counts.shape != hyp_counts.shape:
        raise ValueError(
            f"{ref_counts.size} reference counts vs {hyp_counts.size} hypothesis counts"
        )
    if ref_counts.size == 0:
        raise ValueError("no counts to compare")
    return float(np.mean((ref_counts - hyp_counts) ** 2))
