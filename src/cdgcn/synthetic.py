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
    speaker: np.ndarray          # primary speaker id per segment
    second_speaker: np.ndarray   # second speaker id per segment, -1 where none
    vad_regions: list
    reference: list
    overlap_mask: OverlapMask
    file_id: str

    @property
    def speaker_count(self) -> int:
        labels = set(self.speaker.tolist()) | set(self.second_speaker[self.second_speaker >= 0].tolist())
        return len(labels)


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
    frames = _region_frames(regions, _frame_count(end, frame_duration), frame_duration)
    return OverlapMask(frames=frames, frame_duration=frame_duration)


def _session(vad_regions, means, speakers, seconds, noise, rng, reference, overlapped,
             file_id) -> SyntheticSession:
    """Tile each region with windows and draw its embeddings around means[i],
    region by region; speakers[i] and seconds[i] are its primary and second
    speaker (-1 = none). The oracle mask flags the overlapped regions."""
    vectors = []
    segments = []
    speaker = []
    second = []
    for region, mean, spk, snd in zip(vad_regions, means, speakers, seconds):
        spans = segment_speech([region])
        segments.extend(spans)
        vectors.append(_draw_cluster(mean, len(spans), noise, rng))
        speaker.extend([spk] * len(spans))
        second.extend([snd] * len(spans))
    return SyntheticSession(
        embeddings=EmbeddingSet(np.vstack(vectors), np.array(segments)),
        speaker=np.array(speaker, dtype=np.int64),
        second_speaker=np.array(second, dtype=np.int64),
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
    reference = []
    t = 0.0
    for spk in range(num_speakers):
        region = (t, t + region_len)
        vad_regions.append(region)
        reference.append(RttmRecord(file_id, round(region[0], 3), round(region_len, 3), f"ref{spk}"))
        t = region[1] + GAP_SECONDS
    return _session(vad_regions, means, range(num_speakers), [-1] * num_speakers, noise, rng,
                    reference, [], file_id)


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
    reference = [
        RttmRecord(file_id, round(starts[0], 3), round(lengths[0], 3), "ref0"),
        RttmRecord(file_id, round(starts[1], 3), round(lengths[1], 3), "ref0"),
        RttmRecord(file_id, round(starts[1], 3), round(lengths[1], 3), "ref1"),
        RttmRecord(file_id, round(starts[2], 3), round(lengths[2], 3), "ref1"),
    ]
    return _session(vad_regions, [mean_a, mixture / np.linalg.norm(mixture), mean_b],
                    [0, 0, 1], [-1, 1, -1], noise, rng, reference, [vad_regions[1]], file_id)


def shared_speaker_labels(speakers: np.ndarray, members: np.ndarray) -> np.ndarray:
    """1 where a member shares at least one speaker with the pivot, first on
    the last axis of members; speakers holds two ids per segment, the same
    id twice for a segment with one speaker."""
    ids = speakers[members]
    shared = ids[..., :1, :, None] == ids[..., 1:, None, :]
    return shared.any(axis=(-2, -1)).astype(np.float64)


def linkage_labels(session: SyntheticSession, members: np.ndarray) -> np.ndarray:
    """1 where the member shares at least one speaker with the pivot."""
    second = np.where(session.second_speaker >= 0, session.second_speaker, session.speaker)
    return shared_speaker_labels(np.column_stack([session.speaker, second]), members)


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
    from scipy.stats import ortho_group

    dim = batches[0][0].features.shape[-1]
    out = list(batches)
    for _ in range(rotations):
        q = ortho_group.rvs(dim, random_state=rng)
        out += [
            (SubGraph(sub.members, sub.features @ q, sub.adjacency), labels)
            for sub, labels in batches
        ]
    return out


def linkage_training_batches(session: SyntheticSession, k: int, rotations: int = 0,
                             seed: int = 0):
    """(SubGraph, labels) batches: the stacked sub-graphs of every pivot
    segment of the session with their labels, then any rotated copies."""
    emb = session.embeddings
    sub = build_subgraph(cosine_affinity(emb), emb, np.arange(emb.count), k)
    return rotate_batches([(sub, linkage_labels(session, sub.members))], rotations, seed=seed)
