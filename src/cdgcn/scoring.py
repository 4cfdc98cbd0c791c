"""Diarization scoring: overlap-aware error rate and speaker-count MSE.

Every turn and collar boundary is rounded to the 1 ms grid, so collar
handling stays exact, but nothing is allocated per millisecond. No speaker
starts or stops between two neighbouring boundaries, so every count is a
sum of interval lengths, and time and memory grow with the records, not
with the seconds. Reference and hypothesis speakers are matched one-to-one
by maximizing co-occurring speech time before counting misses, false
alarms and confusions.
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


def _frame_index(seconds: np.ndarray, last: float) -> np.ndarray:
    """The nearest 1 ms frame of each time clipped to 0..last, halves to even
    as round() takes them. The rounding is monotone, so clipping the times
    clips the frames to the first and last, and no division overflows."""
    return np.rint(np.clip(seconds, 0.0, last) / RESOLUTION).astype(np.int64)


def _best_matching_total(overlap: np.ndarray) -> int:
    """The largest sum of an integer matrix's entries over one-to-one pairs
    of its rows and columns: the Hungarian method (Kuhn 1955; Munkres 1957)
    in its potentials form, minimizing -overlap with the smaller side as the
    rows, in O(min² · max) steps of exact integer arithmetic."""
    w = overlap if overlap.shape[0] <= overlap.shape[1] else overlap.T
    n, m = w.shape
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)   # row and column 0: the root
    cost[1:, 1:] = -w
    u, v = np.zeros(n + 1, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)   # potentials
    row_of = np.zeros(m + 1, dtype=np.intp)   # the row on each column, 0 for none
    for i in range(1, n + 1):
        # Grow a tree of tight edges from row i to a free column, then flip its path.
        row_of[0], j = i, 0
        slack = np.full(m + 1, np.iinfo(np.int64).max)
        came_from = np.zeros(m + 1, dtype=np.intp)
        in_tree = np.zeros(m + 1, dtype=bool)
        while row_of[j]:
            in_tree[j] = True
            reduced = cost[row_of[j]] - u[row_of[j]] - v
            closer = ~in_tree & (reduced < slack)
            slack[closer], came_from[closer] = reduced[closer], j
            out = np.flatnonzero(~in_tree)
            j = out[np.argmin(slack[out])]
            delta = slack[j]
            u[row_of[in_tree]] += delta
            v[in_tree] -= delta
            slack[out] -= delta
        while j:
            row_of[j] = row_of[came_from[j]]
            j = came_from[j]
    return int(v[0])   # the least cost of -overlap is -v[0]


def _score_file(file_id: str, ref, hyp, collar: float):
    """Frame counts (miss, fa, confusion, scored reference) for one file."""
    records = ref + hyp
    onsets, ends = np.array([[r.onset for r in records], [r.end for r in records]])
    last = float(ends.max(initial=0.0))
    if not last / RESOLUTION < np.iinfo(np.intp).max:
        raise ValueError(f"file {file_id}: a turn ends at {last:g} s, past the last frame to score")
    ref_rows, hyp_rows = {}, {}   # speaker -> row of its side
    rows = [ref_rows.setdefault(r.speaker, len(ref_rows)) for r in ref]
    rows += [len(ref_rows) + hyp_rows.setdefault(r.speaker, len(hyp_rows)) for r in hyp]
    speakers = len(ref_rows) + len(hyp_rows)
    # (speakers + 1) * total frames bounds every sum below, the matching's too.
    if (speakers + 1) * round(last / RESOLUTION) > np.iinfo(np.int64).max:
        raise ValueError(f"file {file_id}: {speakers} speakers over {last:g} s overflow "
                         f"the 64-bit frame counts")

    # Runs of frames [start, stop): each record's, then the collars' around
    # every reference boundary, which a last row marks unscored. A collar
    # wider than the file excludes all of it, as one of the file's length does.
    starts, stops = _frame_index(onsets, last), _frame_index(ends, last)
    if collar > 0.0:
        edges, collar = np.concatenate([onsets[:len(ref)], ends[:len(ref)]]), min(collar, last)
        starts = np.concatenate([starts, _frame_index(edges - collar, last)])
        stops = np.concatenate([stops, _frame_index(edges + collar, last)])
        rows += [speakers] * edges.size
    # Between two neighbouring bounds no run starts or stops, so coverage is
    # constant on each of these intervals: a row covers one where it has more
    # runs open than closed.
    bounds = np.sort(np.concatenate([starts, stops]))
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]   # np.unique would load numpy.ma
    cells, size = np.asarray(rows) * bounds.size, (speakers + 1) * bounds.size
    opened = (np.bincount(cells + np.searchsorted(bounds, starts), minlength=size)
              - np.bincount(cells + np.searchsorted(bounds, stops), minlength=size))
    covered = np.cumsum(opened.reshape(speakers + 1, bounds.size)[:, :-1], axis=1) > 0
    scored = np.diff(bounds) * ~covered[speakers]   # each interval's scored frames
    on_ref, on_hyp = covered[:len(ref_rows)], covered[len(ref_rows):speakers]

    # An interval's correct speakers are the matched pairs both active on it,
    # so the matched frames sum to the best matching's total.
    matched = _best_matching_total((on_ref * scored) @ on_hyp.T)
    # Per interval, missed speakers are n_ref - min(n_ref, n_hyp) and false
    # alarms n_hyp - min(n_ref, n_hyp), so three sums give all three.
    n_ref, n_hyp = on_ref.sum(axis=0), on_hyp.sum(axis=0)
    ref_total, hyp_total = int(n_ref @ scored), int(n_hyp @ scored)
    both = int(np.minimum(n_ref, n_hyp) @ scored)
    return ref_total - both, hyp_total - both, both - matched, ref_total


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
