import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdgcn.leiden import Partition
from cdgcn.osd import (
    OverlapMask,
    apply_overlap,
    belonging_coefficients,
    read_overlap_mask,
    second_community,
    write_overlap_mask,
)
from helpers import graph_from_edges, graph_from_matrix, random_weight_matrix


class TestBelongingCoefficients:
    def test_isolated_node_zero(self):
        g = graph_from_edges(3, [(0, 1, 0.9)])
        p = Partition.from_labels(g, [0, 0, 1])
        b = belonging_coefficients(g, p)
        assert (b[:, 2] == 0.0).all()

    def test_two_community_example(self):
        # node 0: edges 0.5 and 0.3 into community A, 0.6 into community B
        g = graph_from_edges(4, [(0, 1, 0.5), (0, 2, 0.3), (0, 3, 0.6)])
        p = Partition.from_labels(g, [0, 0, 0, 1])
        b = belonging_coefficients(g, p)
        assert b[0, 0] == pytest.approx(0.8)
        assert b[1, 0] == pytest.approx(0.6)

    @given(seed=st.integers(0, 3000))
    def test_column_sums_equal_degrees(self, seed):
        rng = np.random.default_rng(seed)
        g = graph_from_matrix(random_weight_matrix(rng, planted=False))
        labels = rng.integers(0, 3, g.node_count)
        p = Partition.from_labels(g, labels)
        b = belonging_coefficients(g, p)
        assert b.sum(axis=0) == pytest.approx(g.weighted_degrees, abs=1e-9)


class TestSecondCommunity:
    def test_single_community_gives_none(self):
        b = np.array([[0.5, 0.2, 0.9]])
        assert second_community(b, [0, 0, 0]).tolist() == [-1, -1, -1]

    def test_runner_up_selected(self):
        b = np.array([[0.8], [0.6]])
        assert second_community(b, [0]).tolist() == [1]

    def test_zero_outside_own_community_gives_none(self):
        b = np.array([[0.9, 0.0], [0.0, 0.7]])
        assert second_community(b, [0, 1]).tolist() == [-1, -1]

    def test_tie_breaks_to_smaller_label(self):
        b = np.array([[0.4], [0.25], [0.25]])
        assert second_community(b, [0]).tolist() == [1]

    def test_primary_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            second_community(np.ones((2, 2)), [0, 2])

    @given(seed=st.integers(0, 3000))
    def test_never_equals_primary(self, seed):
        rng = np.random.default_rng(seed)
        g = graph_from_matrix(random_weight_matrix(rng, planted=True))
        labels = rng.integers(0, 3, g.node_count)
        p = Partition.from_labels(g, labels)
        b = belonging_coefficients(g, p)
        second = second_community(b, p.labels)
        assert second.dtype == np.int64 and (second >= -1).all()
        for node, runner_up in enumerate(second.tolist()):
            if runner_up >= 0:
                assert runner_up != p.labels[node]
                assert b[runner_up, node] > 0.0


class TestApplyOverlap:
    def setup_method(self):
        self.primary = np.array([0, 0, 1, 1, -1, 1])
        self.frame_segment = np.array([0, 0, 1, 1, -1, 2])
        self.second = np.array([1, 0, -1])

    def test_zero_mask_is_identity(self):
        mask = OverlapMask(np.zeros(6, dtype=bool))
        timeline = apply_overlap(self.primary, self.frame_segment, self.second, mask)
        assert (timeline.secondary == -1).all()
        assert timeline.primary.tolist() == self.primary.tolist()

    def test_saturated_mask_labels_speech_frames(self):
        mask = OverlapMask(np.ones(6, dtype=bool))
        timeline = apply_overlap(self.primary, self.frame_segment, self.second, mask)
        assert timeline.secondary.tolist() == [1, 1, 0, 0, -1, -1]
        assert (timeline.secondary != timeline.primary)[timeline.secondary >= 0].all()

    def test_mask_longer_than_timeline_ok(self):
        mask = OverlapMask(np.ones(10, dtype=bool))
        timeline = apply_overlap(self.primary, self.frame_segment, self.second, mask)
        assert timeline.primary.shape == timeline.secondary.shape == (6,)

    def test_mask_shorter_than_timeline_rejected(self):
        mask = OverlapMask(np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="mask"):
            apply_overlap(self.primary, self.frame_segment, self.second, mask)

    def test_frame_duration_mismatch_rejected(self):
        mask = OverlapMask(np.ones(6, dtype=bool), frame_duration=0.02)
        with pytest.raises(ValueError, match="frame duration"):
            apply_overlap(self.primary, self.frame_segment, self.second, mask)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.01])
    def test_frame_duration_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="must be finite and positive"):
            OverlapMask(np.ones(6, dtype=bool), frame_duration=bad)

    def test_speakers_per_frame_bounded(self):
        mask = OverlapMask(np.ones(6, dtype=bool))
        timeline = apply_overlap(self.primary, self.frame_segment, self.second, mask)
        counts = (timeline.primary >= 0).astype(int) + (timeline.secondary >= 0)
        assert counts.tolist() == [2, 2, 2, 2, 0, 1]


class TestMaskFile:
    def test_round_trip(self, tmp_path, rng):
        mask = OverlapMask(rng.random(50) < 0.3, frame_duration=0.01)
        path = tmp_path / "m.mask"
        write_overlap_mask(path, mask)
        back = read_overlap_mask(path)
        assert back.frame_duration == mask.frame_duration
        assert (back.frames == mask.frames).all()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_text("0101\n")
        with pytest.raises(ValueError, match="frame_duration"):
            read_overlap_mask(path)

    def test_bad_characters(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_text("frame_duration=0.01\n01x1\n")
        with pytest.raises(ValueError, match="'0' or '1'"):
            read_overlap_mask(path)

    def test_frames_split_across_lines(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_text("frame_duration=0.01\n0011\n1100\n")
        back = read_overlap_mask(path)
        assert back.frames.tolist() == [False, False, True, True, True, True, False, False]
