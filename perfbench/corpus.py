"""Seeded synthetic sessions for the benchmark workloads.

Every input a workload feeds the program is drawn here from the run's
seed, so the same seed always gives byte-identical input files. Sessions
carry their reference RTTM records, VAD regions and oracle overlap mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cdgcn.graphs import EmbeddingSet, write_embeddings
from cdgcn.osd import OverlapMask, write_overlap_mask
from cdgcn.pipeline import segment_speech, write_vad_regions
from cdgcn.synthetic import _draw_cluster, _mask_from_regions, make_overlap_session
from cdgcn.timeline import RttmRecord

@dataclass
class Session:
    file_id: str
    embeddings: EmbeddingSet
    vad_regions: list
    reference: list
    mask: OverlapMask

    @property
    def speech_seconds(self) -> float:
        return float(sum(end - start for start, end in self.vad_regions))

    @property
    def speaker_count(self) -> int:
        return len({r.speaker for r in self.reference})


@dataclass
class SessionFiles:
    session: Session
    emb: Path
    vad: Path
    mask: Path


def _speaker_means(speakers: int, dim: int, cosine: float, rng) -> np.ndarray:
    """Unit means with pairwise cosine `cosine`: a shared direction plus
    one orthonormal direction per speaker."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, speakers + 1)))
    shared, own = q[:, 0], q[:, 1:].T
    return math.sqrt(cosine) * shared + math.sqrt(1.0 - cosine) * own


def meeting(seed: int, *, speakers: int, segments: int, dim: int, noise: float,
            cosine: float, overlap_prob: float, file_id: str) -> Session:
    """Turn-taking meeting of about `segments` segments.

    Turns of 3-12 s alternate between randomly chosen speakers with short
    pauses. With probability `overlap_prob` a turn is shared by the new and
    the previous speaker; its embeddings are 0.7/0.3 mixtures of the two
    means and the oracle mask flags it.
    """
    rng = np.random.default_rng(seed)
    means = _speaker_means(speakers, dim, cosine, rng)
    vad, reference, overlapped, vectors, spans = [], [], [], [], []
    t, prev = 0.0, None
    while len(spans) < segments:
        spk = int(rng.integers(speakers))
        if spk == prev:
            spk = (spk + 1) % speakers
        start, end = round(t, 2), round(t + rng.uniform(3.0, 12.0), 2)
        region_spans = segment_speech([(start, end)])
        vad.append((start, end))
        reference.append(RttmRecord(file_id, start, round(end - start, 3), f"ref{spk}"))
        if prev is not None and rng.random() < overlap_prob:
            reference.append(RttmRecord(file_id, start, round(end - start, 3), f"ref{prev}"))
            overlapped.append((start, end))
            mix = 0.7 * means[spk] + 0.3 * means[prev]
            vectors.append(_draw_cluster(mix / np.linalg.norm(mix), len(region_spans), noise, rng))
        else:
            vectors.append(_draw_cluster(means[spk], len(region_spans), noise, rng))
        spans.extend(region_spans)
        prev = spk
        t = end + rng.uniform(0.2, 1.0)
    emb = EmbeddingSet(np.vstack(vectors), np.array(spans))
    return Session(file_id, emb, vad, reference, _mask_from_regions(overlapped, vad[-1][1], 0.01))


def two_speaker(seed: int, *, dim: int, file_id: str) -> Session:
    """Short overlapped two-speaker session (about 50-120 segments) with
    seeded solo/overlap lengths, speaker cosine and noise."""
    rng = np.random.default_rng(seed)
    s = make_overlap_session(
        solo_seconds=round(rng.uniform(14.0, 34.0), 2),
        overlap_seconds=round(rng.uniform(6.0, 18.0), 2),
        dim=dim, noise=round(rng.uniform(0.9, 1.3), 3),
        mean_cosine=round(rng.uniform(0.2, 0.45), 3),
        seed=int(rng.integers(2**31)), file_id=file_id)
    return Session(file_id, s.embeddings, s.vad_regions, s.reference, s.overlap_mask)


def write_session(session: Session, directory: Path) -> SessionFiles:
    """Write the program's inputs for one session: .emb, .vad and .mask."""
    base = directory / session.file_id
    files = SessionFiles(session, base.with_suffix(".emb"), base.with_suffix(".vad"),
                         base.with_suffix(".mask"))
    write_embeddings(files.emb, session.embeddings)
    write_vad_regions(files.vad, session.vad_regions)
    write_overlap_mask(files.mask, session.mask)
    return files
