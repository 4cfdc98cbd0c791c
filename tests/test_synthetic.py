import hashlib

import numpy as np
import pytest

from cdgcn.gcn import GcnWeights
from cdgcn.graphs import SubGraph
from cdgcn.leiden import LeidenConfig
from cdgcn.synthetic import (
    linkage_training_batches,
    make_overlap_session,
    make_session,
    rotate_batches,
    shared_speaker_labels,
)
from helpers import modules_after


class TestMakeSession:
    def test_segment_counts_and_labels(self):
        session = make_session(num_speakers=3, segments_per_speaker=8, dim=8, seed=1)
        assert session.embeddings.count == 24
        assert np.bincount(session.speakers[:, 0]).tolist() == [8, 8, 8]
        assert (session.speakers[:, 1] == session.speakers[:, 0]).all()
        assert len(session.vad_regions) == 3
        assert not session.overlap_mask.frames.any()

    def test_reference_covers_regions(self):
        session = make_session(num_speakers=2, segments_per_speaker=5, dim=8, seed=2)
        for record, region in zip(session.reference, session.vad_regions):
            assert record.onset == pytest.approx(region[0])
            assert record.end == pytest.approx(region[1])

    def test_mean_cosine_controls_cluster_distance(self):
        session = make_session(num_speakers=2, segments_per_speaker=10, dim=16,
                               noise=0.0, seed=3, mean_cosine=0.3)
        unit = session.embeddings.vectors
        cross = unit[:10] @ unit[10:].T
        assert cross == pytest.approx(np.full((10, 10), 0.3), abs=1e-9)

    def test_mean_cosine_requires_two_speakers(self):
        with pytest.raises(ValueError, match="two-speaker"):
            make_session(num_speakers=3, mean_cosine=0.2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_segment_per_speaker_rejected(self, count):
        message = f"^segments_per_speaker must be at least 1, got {count}$"
        with pytest.raises(ValueError, match=message):
            make_session(num_speakers=2, segments_per_speaker=count)

    def test_too_many_speakers_for_dim(self):
        with pytest.raises(ValueError, match="orthonormal"):
            make_session(num_speakers=5, dim=3)


class TestMakeOverlapSession:
    def test_overlap_structure(self):
        session = make_overlap_session(solo_seconds=6.0, overlap_seconds=3.0,
                                       dim=8, seed=4)
        assert session.speaker_count == 2
        overlap_segments = session.speakers[:, 1] != session.speakers[:, 0]
        assert overlap_segments.any()
        assert (session.speakers[overlap_segments] == [0, 1]).all()
        # mask flags exactly the middle region
        start, end = session.vad_regions[1]
        frames = session.overlap_mask.frames
        flagged = np.flatnonzero(frames)
        assert flagged[0] * 0.01 == pytest.approx(start, abs=0.02)
        assert (flagged[-1] + 1) * 0.01 == pytest.approx(end, abs=0.02)

    def test_reference_has_both_speakers_in_overlap(self):
        session = make_overlap_session(solo_seconds=6.0, overlap_seconds=3.0,
                                       dim=8, seed=5)
        start, end = session.vad_regions[1]
        spanning = {r.speaker for r in session.reference
                    if r.onset == pytest.approx(start)}
        assert spanning == {"ref0", "ref1"}


class TestLinkageLabels:
    def test_share_a_speaker_rule(self):
        session = make_overlap_session(solo_seconds=6.0, overlap_seconds=3.0,
                                       dim=8, seed=6)
        solo_a = int(np.flatnonzero((session.speakers == [0, 0]).all(axis=1))[0])
        mixed = int(np.flatnonzero((session.speakers == [0, 1]).all(axis=1))[0])
        solo_b = int(np.flatnonzero(session.speakers[:, 0] == 1)[0])
        members = np.array([mixed, solo_a, solo_b])
        assert shared_speaker_labels(session.speakers, members).tolist() == [1.0, 1.0]
        members = np.array([solo_a, solo_b, mixed])
        assert shared_speaker_labels(session.speakers, members).tolist() == [0.0, 1.0]


class TestRotateBatches:
    def test_no_rotation_leaves_scipy_stats_unloaded(self):
        loaded = modules_after(
            "from cdgcn.synthetic import linkage_training_batches, make_session, rotate_batches\n"
            "session = make_session(num_speakers=2, segments_per_speaker=5, dim=8, seed=7)\n"
            "assert len(rotate_batches(linkage_training_batches(session, k=4), 0)) == 1")
        assert "cdgcn.synthetic" in loaded and "scipy.stats" not in loaded

    @pytest.mark.parametrize("seed, dim, rotations, sha256", [
        (0, 2, 1, "f57f88319e9cf15a4b72e704153bf7aad765f92d7157c6f5499f984d0b141c50"),
        (7, 16, 2, "de5d0fb9f6b009ba4bcc071ec76b727dc0c5f3c8e945dcc7431fe541186c43cf"),
        (101, 32, 1, "4e5435cc0a696bb69b1b246f1f54374920d760047d47819fcc2c052a136a19dc"),
        (3, 5, 3, "d6ee88a7e7c7cbfac7bfa6d68c1db0f739202437a912c3fa082282dae9151b30"),
    ], ids=["dim2", "dim16-twice", "dim32", "dim5-thrice"])
    def test_rotations_are_pinned(self, seed, dim, rotations, sha256):
        """Identity features make each rotated copy's features the rotation
        itself. The hashes are those of scipy 1.17.1's ortho_group.rvs at
        the same seeds, so training data with --rotations stays the same."""
        identity = SubGraph(np.zeros((1, dim), dtype=np.int64), np.eye(dim)[None],
                            np.zeros((1, dim, dim)))
        out = rotate_batches([(identity, np.zeros((1, dim - 1)))], rotations, seed=seed)
        digest = hashlib.sha256(b"".join(sub.features.tobytes() for sub, _ in out[1:]))
        assert digest.hexdigest() == sha256

    def test_counts_and_invariants(self):
        session = make_session(num_speakers=2, segments_per_speaker=5, dim=8, seed=7)
        base = linkage_training_batches(session, k=4)
        augmented = rotate_batches(base, rotations=2, seed=1)
        assert len(augmented) == 3 * len(base)
        sub0, labels0 = base[0]
        rot0, rot_labels0 = augmented[len(base)]
        assert (rot_labels0 == labels0).all()
        assert (rot0.adjacency == sub0.adjacency).all()
        # orthogonal maps preserve pairwise feature inner products
        assert rot0.features @ rot0.features.swapaxes(-1, -2) == pytest.approx(
            sub0.features @ sub0.features.swapaxes(-1, -2), abs=1e-9)
        assert not np.allclose(rot0.features, sub0.features)

    def test_mixed_feature_dims_refused_by_batch(self):
        batches = [(SubGraph(np.zeros((1, 2), dtype=np.int64), np.ones((1, 2, dim)),
                             np.zeros((1, 2, 2))), np.zeros((1, 1))) for dim in (8, 16)]
        message = r"^batch 1: feature dim 16 does not match batch 0's feature dim 8$"
        with pytest.raises(ValueError, match=message):
            rotate_batches(batches, 1)

    def test_zero_rotations_is_copy(self):
        session = make_session(num_speakers=2, segments_per_speaker=5, dim=8, seed=8)
        base = linkage_training_batches(session, k=4)
        assert len(rotate_batches(base, 0)) == len(base)


@pytest.mark.parametrize("call", [
    lambda: make_session(seed=-1),
    lambda: make_overlap_session(seed=-1),
    lambda: rotate_batches([], rotations=0, seed=-1),
    lambda: GcnWeights.glorot(4, seed=-1),
    lambda: LeidenConfig(seed=-1),
], ids=["make_session", "make_overlap_session", "rotate_batches", "glorot", "LeidenConfig"])
def test_negative_seed_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        call()
