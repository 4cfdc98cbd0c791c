"""Synthetic diarization sessions with known ground truth.

Sessions place one speaker per speech region (plus an optional region
where two speakers talk at once), draw cluster embeddings around fixed
mean directions on the unit sphere, and carry the matching reference
records, VAD regions and oracle overlap mask. Used by the test suite and
the demo scripts; no audio is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import EmbeddingSet, SubGraph, build_subgraph, cosine_affinity, seeded_rng
from .osd import OverlapMask
from .pipeline import SHIFT, WINDOW, _frame_count, _region_frames, segment_speech
from .timeline import FRAME_DURATION, RttmRecord

#: Silence between consecutive speech regions, in seconds.
GAP_SECONDS = 1.0
#: Weights of speaker 0's and speaker 1's means in an overlap segment's mean.
MIX = (0.85, 0.4)


@dataclass
class SyntheticSession:
    embeddings: EmbeddingSet
    speakers: np.ndarray   # (N, 2) ids per segment, as in .spk files: a solo one repeats its id
    vad_regions: list
    reference: list
    overlap_mask: OverlapMask
    file_id: str

    @property
    def speaker_count(self) -> int:
        return len(set(self.speakers.ravel().tolist()))


def _check_spread(noise: float, mean_cosine: float | None) -> None:
    """Refuses a noise scale or a cosine between means that cannot be drawn."""
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    if mean_cosine is not None and not -1.0 <= mean_cosine <= 1.0:
        raise ValueError(f"mean_cosine must lie in [-1, 1], got {mean_cosine}")


def _orthonormal_directions(count: int, dim: int, rng) -> np.ndarray:
    if count > dim:
        raise ValueError(f"cannot fit {count} orthonormal directions in {dim} dimensions")
    q, _ = np.linalg.qr(rng.normal(size=(dim, count)))
    return q.T


def _draw_cluster(mean: np.ndarray, count: int, noise: float, rng) -> np.ndarray:
    jitter = rng.normal(scale=noise / math.sqrt(mean.size), size=(count, mean.size))
    vectors = mean + jitter
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _mask_from_regions(regions, end: float, frame_duration: float) -> OverlapMask:
    frames = _region_frames(regions, _frame_count(end, frame_duration, "session"), frame_duration)
    return OverlapMask(frames=frames, frame_duration=frame_duration)


def _session(vad_regions, means, speakers, noise, rng, file_id) -> SyntheticSession:
    """Tile each region with windows and draw its embeddings around means[i],
    region by region; speakers[i] is its (primary, second) speaker pair, the
    same id twice for a solo region. Each region gets one reference turn per
    distinct speaker, and the oracle mask flags the regions with two."""
    vectors = []
    segments = []
    counts = []
    reference = []
    for (start, end), mean, pair in zip(vad_regions, means, speakers):
        spans = segment_speech([(start, end)])
        segments.extend(spans)
        counts.append(len(spans))
        vectors.append(_draw_cluster(mean, len(spans), noise, rng))
        reference += [RttmRecord(file_id, round(start, 3), round(end - start, 3), f"ref{spk}")
                      for spk in dict.fromkeys(pair)]
    overlapped = [region for region, (a, b) in zip(vad_regions, speakers) if a != b]
    return SyntheticSession(
        embeddings=EmbeddingSet(np.vstack(vectors), np.array(segments)),
        speakers=np.repeat(np.array(speakers, dtype=np.int64), counts, axis=0),
        vad_regions=vad_regions,
        reference=reference,
        overlap_mask=_mask_from_regions(overlapped, vad_regions[-1][1], FRAME_DURATION),
        file_id=file_id,
    )


def make_session(num_speakers: int = 4, segments_per_speaker: int = 50, dim: int = 16,
                 noise: float = 0.12, seed: int = 0, mean_cosine: float | None = None,
                 file_id: str = "synthetic") -> SyntheticSession:
    """One solo speech region per speaker, speakers on orthogonal directions,
    GAP_SECONDS apart.

    Every region is tiled by the fixed WINDOW / SHIFT windows, so each
    speaker contributes exactly segments_per_speaker segments. For two
    speakers, mean_cosine places their mean directions at that cosine
    instead of orthogonally (useful to teach the linkage predictor that
    adjacent clusters are still different speakers).
    """
    if num_speakers < 1:
        raise ValueError(f"num_speakers must be at least 1, got {num_speakers}")
    if segments_per_speaker < 1:
        raise ValueError(f"segments_per_speaker must be at least 1, got {segments_per_speaker}")
    _check_spread(noise, mean_cosine)
    rng = seeded_rng(seed)
    means = _orthonormal_directions(num_speakers, dim, rng)
    if mean_cosine is not None:
        if num_speakers != 2:
            raise ValueError("mean_cosine only applies to two-speaker sessions")
        means = np.stack([
            means[0],
            mean_cosine * means[0] + math.sqrt(1.0 - mean_cosine**2) * means[1],
        ])
    region_len = (segments_per_speaker - 1) * SHIFT + WINDOW

    vad_regions = []
    t = 0.0
    for _ in range(num_speakers):
        vad_regions.append((t, t + region_len))
        t = vad_regions[-1][1] + GAP_SECONDS
    return _session(vad_regions, means, [(spk, spk) for spk in range(num_speakers)], noise, rng,
                    file_id)


def make_overlap_session(solo_seconds: float = 24.0, overlap_seconds: float = 12.0,
                         dim: int = 16, noise: float = 0.12, mean_cosine: float = 0.25,
                         seed: int = 0, file_id: str = "overlap") -> SyntheticSession:
    """Two adjacent speakers with a both-at-once region in the middle, the
    three regions GAP_SECONDS apart.

    Speaker means sit at the given cosine of each other; segments in the
    overlap region get mixture embeddings weighted MIX toward speaker 0, with
    speaker 1 as ground-truth second speaker, and the oracle mask flags
    exactly those frames.
    """
    _check_spread(noise, mean_cosine)
    rng = seeded_rng(seed)
    base = _orthonormal_directions(2, dim, rng)
    mean_a = base[0]
    mean_b = mean_cosine * base[0] + math.sqrt(1.0 - mean_cosine**2) * base[1]
    mixture = MIX[0] * mean_a + MIX[1] * mean_b

    starts = [0.0, solo_seconds + GAP_SECONDS,
              solo_seconds + 2 * GAP_SECONDS + overlap_seconds]
    lengths = [solo_seconds, overlap_seconds, solo_seconds]
    vad_regions = [(s, s + l) for s, l in zip(starts, lengths)]
    return _session(vad_regions, [mean_a, mixture / np.linalg.norm(mixture), mean_b],
                    [(0, 0), (0, 1), (1, 1)], noise, rng, file_id)


def shared_speaker_labels(speakers: np.ndarray, members: np.ndarray) -> np.ndarray:
    """1 where a member shares at least one speaker with the pivot, first on
    the last axis of members; speakers holds two ids per segment, the same
    id twice for a segment with one speaker."""
    ids = speakers[members]
    shared = ids[..., :1, :, None] == ids[..., 1:, None, :]
    return shared.any(axis=(-2, -1)).astype(np.float64)


def labelled_subgraphs(emb: EmbeddingSet, speakers: np.ndarray, k: int):
    """(SubGraph, labels): the stacked k-neighbor sub-graphs of every segment
    as pivot, labelled by shared_speaker_labels from (N, 2) speaker ids."""
    sub = build_subgraph(cosine_affinity(emb), emb, np.arange(emb.count), k)
    return sub, shared_speaker_labels(speakers, sub.members)


def rotate_batches(batches, rotations: int, seed: int = 0):
    """Append copies of (SubGraph, labels) batches with features mapped
    through random orthogonal matrices.

    Labels and adjacency are rotation invariant (features are
    pivot-relative differences), so augmenting this way teaches the
    linkage predictor to ignore the embedding basis, which transfers
    better to sessions with unseen speaker directions.
    """
    if rotations < 0:
        raise ValueError(f"rotations must be non-negative, got {rotations}")
    rng = seeded_rng(seed)
    if rotations == 0 or not batches:
        return list(batches)
    dim = batches[0][0].features.shape[-1]
    for index, (sub, _) in enumerate(batches):
        if sub.features.shape[-1] != dim:
            raise ValueError(f"batch {index}: feature dim {sub.features.shape[-1]} does not "
                             f"match batch 0's feature dim {dim}")
    out = list(batches)
    for _ in range(rotations):
        # Haar-distributed: QR of a Gaussian matrix, with q's columns signed
        # so that r's diagonal is positive (Mezzadri, math-ph/0609050).
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
        d = r.diagonal()
        q *= d / np.abs(d)
        out += [
            (SubGraph(sub.members, sub.features @ q, sub.adjacency), labels)
            for sub, labels in batches
        ]
    return out


def linkage_training_batches(session: SyntheticSession, k: int):
    """One (SubGraph, labels) batch: the session's labelled sub-graphs."""
    return [labelled_subgraphs(session.embeddings, session.speakers, k)]
