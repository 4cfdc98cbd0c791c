import numpy as np
import pytest
from helpers import reference_frame_attribution, reference_records, reference_region_frames
from hypothesis import given
from hypothesis import strategies as st

from cdgcn import pipeline
from cdgcn.gcn import GcnWeights
from cdgcn.graphs import EmbeddingSet
from cdgcn.osd import OverlapMask
from cdgcn.pipeline import (
    _EPS,
    MODES,
    SHIFT,
    WINDOW,
    PipelineConfig,
    _frame_attribution,
    _region_frames,
    read_vad_regions,
    run_pipeline,
    segment_speech,
    write_vad_regions,
)
from cdgcn.scoring import der
from cdgcn.synthetic import make_overlap_session, make_session
from cdgcn.timeline import FRAME_DURATION, DiarizationTimeline, RttmRecord, read_rttm, write_rttm


class TestSegmentSpeech:
    def test_three_second_region(self):
        segments = segment_speech([(0.0, 3.0)])
        assert segments == [(0.0, 1.5), (0.75, 1.5), (1.5, 1.5)]

    def test_exact_window_region(self):
        assert segment_speech([(0.0, 1.5)]) == [(0.0, 1.5)]

    def test_short_region_single_segment(self):
        assert segment_speech([(0.0, 0.4)]) == [(0.0, 0.4)]

    def test_small_tail_dropped(self):
        assert segment_speech([(0.0, 2.9)]) == [(0.0, 1.5), (0.75, 1.5)]

    @given(start=st.floats(0.0, 1e4), length=st.floats(0.001, 60.0))
    def test_windows_tile_each_region(self, start, length):
        end = start + length
        segments = segment_speech([(start, end)])
        if end - start < WINDOW - _EPS:
            assert segments == [(start, end - start)]
        if end - start < WINDOW:   # within _EPS of a window, either answer is right
            return
        starts = np.array([s for s, _ in segments])
        assert all(duration == WINDOW for _, duration in segments)
        assert starts[0] == start
        assert np.diff(starts) == pytest.approx(SHIFT)
        assert -_EPS <= end - (starts[-1] + WINDOW) < SHIFT + _EPS

    def test_inverted_region_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            segment_speech([(2.0, 1.0)])

    @pytest.mark.parametrize("region", [(0.0, np.nan), (np.nan, 3.0), (0.0, np.inf)])
    def test_non_finite_region_rejected(self, region):
        with pytest.raises(ValueError, match="not finite"):
            segment_speech([region])

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            segment_speech([(0.0, 2.0), (1.5, 3.0)])

    def test_multiple_regions(self):
        segments = segment_speech([(0.0, 1.5), (10.0, 11.5)])
        assert segments == [(0.0, 1.5), (10.0, 1.5)]


class TestRttm:
    def test_format_instantiation(self):
        line = write_rttm([RttmRecord("f", 0.0, 1.5, "spk0")])
        assert line == "SPEAKER f 1 0.000 1.500 <NA> <NA> spk0 <NA> <NA>\n"

    def test_round_trip(self):
        records = [RttmRecord("f", 0.0, 1.5, "spk0"),
                   RttmRecord("f", 2.25, 0.75, "spk1"),
                   RttmRecord("g", 0.01, 10.5, "spk0")]
        assert read_rttm(write_rttm(records)) == records

    def test_eight_fields_rejected_with_line_number(self):
        good = write_rttm([RttmRecord("f", 0.0, 1.5, "spk0")])
        bad = good + "SPEAKER f 1 0.000 1.500 <NA> spk1 <NA>\n"
        with pytest.raises(ValueError, match="line 2"):
            read_rttm(bad)

    def test_non_numeric_fields_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_rttm("SPEAKER f 1 x 1.5 <NA> <NA> spk0 <NA> <NA>\n")

    def test_wrong_record_type_rejected(self):
        with pytest.raises(ValueError, match="SPEAKER"):
            read_rttm("LEXEME f 1 0.0 1.5 <NA> <NA> spk0 <NA> <NA>\n")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_rttm("SPEAKER f 1 0.000 -1.0 <NA> <NA> spk0 <NA> <NA>\n")

    @pytest.mark.parametrize("onset, duration", [
        ("inf", "1.5"), ("nan", "1.5"), ("0.0", "inf"), ("0.0", "nan")])
    def test_non_finite_times_rejected_with_line_number(self, onset, duration):
        good = write_rttm([RttmRecord("f", 0.0, 1.5, "spk0")])
        bad = good + f"SPEAKER f 1 {onset} {duration} <NA> <NA> spk0 <NA> <NA>\n"
        with pytest.raises(ValueError, match="^line 2: .* must be finite"):
            read_rttm(bad)

    @pytest.mark.parametrize("field", ["file_id", "speaker"])
    @pytest.mark.parametrize("value", ["", "a b", " a", "a\n", "a\x1cb", "a\u2028b", 7])
    def test_record_that_would_not_read_back_is_refused(self, field, value):
        """RTTM fields are split at whitespace and lines at line breaks, so
        an empty or spaced file id or speaker would write a line read_rttm
        refuses or misreads."""
        name = field.replace("_", " ")
        with pytest.raises(ValueError, match=f"^{name} must be a non-empty string without"):
            RttmRecord(**{"file_id": "f", "onset": 0.0, "duration": 1.5, "speaker": "s",
                          field: value})

    def test_blank_lines_skipped(self):
        text = "\nSPEAKER f 1 0.000 1.500 <NA> <NA> spk0 <NA> <NA>\n\n"
        assert len(read_rttm(text)) == 1


class TestVadFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "v.vad"
        write_vad_regions(path, [(0.0, 3.0), (4.5, 9.25)])
        assert read_vad_regions(path) == [(0.0, 3.0), (4.5, 9.25)]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "v.vad"
        path.write_text("0.0 1.0\n2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_vad_regions(path)

    @pytest.mark.parametrize("line", ["0 inf", "nan 1.0", "-inf 1.0"])
    def test_non_finite_bound_rejected(self, tmp_path, line):
        path = tmp_path / "v.vad"
        path.write_text(f"0.0 1.0\n{line}\n")
        with pytest.raises(ValueError, match="line 2: bounds must be finite$"):
            read_vad_regions(path)


class TestTimeline:
    def test_records_match_frames(self):
        primary = np.array([0, 0, 1, 1, -1, 1])
        secondary = np.array([1, -1, -1, -1, -1, -1])
        timeline = DiarizationTimeline(primary, secondary)
        records = timeline.to_records("f")
        rebuilt = {s: np.zeros(6, dtype=bool) for s in ("spk0", "spk1")}
        for r in records:
            f0 = round(r.onset / 0.01)
            f1 = round(r.end / 0.01)
            rebuilt[r.speaker][f0:f1] = True
        for frame in range(6):
            expected = {f"spk{s}" for s in (primary[frame], secondary[frame]) if s >= 0}
            actual = {s for s, mask in rebuilt.items() if mask[frame]}
            assert actual == expected

    @given(seed=st.integers(0, 2**16), frames=st.integers(0, 300))
    def test_records_match_per_frame_scan(self, seed, frames):
        rng = np.random.default_rng(seed)
        # Runs of non-speech, a stray negative label or a speaker, some far
        # apart; overlap labels in runs of their own, on speech frames only.
        values = np.array([-2, -1, 0, 1, 3, 2**40])
        runs = lambda p: np.repeat(rng.choice(values, frames, p=p), rng.integers(1, 30, frames))
        primary = runs([0.05, 0.25, 0.25, 0.2, 0.15, 0.1])[:frames]
        secondary = np.where(primary >= 0, runs([0, 0.7, 0.1, 0.1, 0.05, 0.05])[:frames], -1)
        got = DiarizationTimeline(primary, secondary).to_records("f")
        assert got == reference_records(primary, secondary, "f")

    def test_secondary_requires_speech(self):
        with pytest.raises(ValueError, match="non-speech"):
            DiarizationTimeline(np.array([-1]), np.array([2]))


class TestFrameAttribution:
    """The array form against the per-segment loop in helpers.py, bit for bit."""

    @given(n=st.integers(1, 30), grid=st.booleans(), vad=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_matches_per_segment_loop(self, n, grid, vad, seed):
        rng = np.random.default_rng(seed)
        if grid:
            # Starts and durations on a 5 ms grid: repeated and mirrored segment
            # centres put frames at equal distance from several segments.
            starts = np.sort(rng.integers(0, 200, n)) * 0.005
            durations = rng.integers(1, 150, n) * 0.005
        else:
            starts = np.sort(rng.uniform(0.0, 1.0, n))
            durations = rng.uniform(0.001, 0.75, n)
        short = rng.random(n) < 0.3
        durations[short] = 0.005 if grid else rng.uniform(0.0005, FRAME_DURATION, short.sum())
        segments = np.column_stack([starts, durations])
        labels = rng.integers(0, 4, n)
        regions = None
        if vad:
            # Every region ends before the last segment does.
            bounds = np.sort(rng.uniform(0.0, (starts + durations).max(),
                                         2 * int(rng.integers(1, 4))))
            regions = list(zip(bounds[::2].tolist(), bounds[1::2].tolist()))
        got = _frame_attribution(segments, labels, regions)
        expected = reference_frame_attribution(segments, labels, regions)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(seed=st.integers(0, 2**16), count=st.integers(0, 8), grid=st.booleans())
    def test_region_frames_match_per_region_loop(self, seed, count, grid):
        rng = np.random.default_rng(seed)
        total = int(rng.integers(1, 400))
        # Overlapping, empty, inverted and out-of-range regions; on a 5 ms
        # grid their bounds fall on frame centers and edges.
        span = total * FRAME_DURATION
        bounds = (rng.integers(-40, 2 * total + 40, (count, 2)) * 0.005 if grid
                  else rng.uniform(-0.2 * span, 1.2 * span, (count, 2)))
        regions = [tuple(b) for b in bounds.tolist()]
        got = _region_frames(regions, total, FRAME_DURATION)
        assert got.tolist() == reference_region_frames(regions, total).tolist()


class TestRunPipeline:
    def two_cluster_embeddings(self, n_per=12, dim=8, seed=3):
        session = make_session(num_speakers=2, segments_per_speaker=n_per,
                               dim=dim, seed=seed)
        return session

    def test_two_clusters_modes_without_weights(self):
        session = self.two_cluster_embeddings()
        cfg = PipelineConfig(knn_k=8, gamma=0.6, seed=0)
        for mode in ("raw_leiden", "knn_leiden"):
            _, records = run_pipeline(session.embeddings, mode, config=cfg,
                                      vad_regions=session.vad_regions)
            assert len({r.speaker for r in records}) == 2

    def test_gcn_modes_find_two_clusters(self, trained_weights):
        session = self.two_cluster_embeddings(dim=16)
        cfg = PipelineConfig(knn_k=12, gamma=0.6, seed=0)
        _, records = run_pipeline(session.embeddings, "cdgcn_no_osd",
                                  weights=trained_weights, config=cfg,
                                  vad_regions=session.vad_regions)
        assert len({r.speaker for r in records}) == 2

    def test_missing_weights_rejected(self):
        session = self.two_cluster_embeddings()
        with pytest.raises(ValueError, match="weights"):
            run_pipeline(session.embeddings, "cdgcn_no_osd")

    def test_missing_mask_rejected(self, trained_weights):
        session = self.two_cluster_embeddings(dim=16)
        with pytest.raises(ValueError, match="mask"):
            run_pipeline(session.embeddings, "cdgcn", weights=trained_weights)

    def test_unknown_mode_rejected(self):
        session = self.two_cluster_embeddings()
        with pytest.raises(ValueError, match="mode"):
            run_pipeline(session.embeddings, "kmeans")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("setting, message", [
        ({"gamma": float("nan")}, "gamma must be finite and positive, got nan"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"knn_k": 0}, "k must be >= 1"),
        ({"knn_k": 2.5}, "knn_k must be an integer, got 2.5"),
        ({"knn_k": "3"}, "knn_k must be an integer, got '3'"),
        ({"gamma": "0.6"}, "gamma must be a real number, got '0.6'")],
        ids=["gamma", "seed", "knn_k", "float knn_k", "str knn_k", "str gamma"])
    def test_settings_are_refused_before_the_graph_work(self, monkeypatch, mode, setting,
                                                        message):
        """A setting that Leiden or the KNN build would refuse is refused
        before cosine_affinity runs; raw_leiden never reads knn_k."""
        class GraphWork(Exception):
            pass

        def cosine_affinity(emb):
            raise GraphWork

        monkeypatch.setattr(pipeline, "cosine_affinity", cosine_affinity)
        session = self.two_cluster_embeddings()
        mask = OverlapMask(np.zeros(10, bool))
        config = PipelineConfig(**{"knn_k": 8, **setting})
        run = lambda: run_pipeline(session.embeddings, mode, weights=GcnWeights.glorot(8),
                                   mask=mask, config=config)
        if mode == "raw_leiden" and "knn_k" in setting:
            with pytest.raises(GraphWork):
                run()
        else:
            with pytest.raises(ValueError) as caught:
                run()
            assert str(caught.value) == message

    @pytest.mark.parametrize("file_id", ["", "my session", "tab\tid", "new\nline"])
    def test_file_id_rttm_cannot_read_back_is_refused_before_the_graph_work(
            self, monkeypatch, file_id):
        monkeypatch.setattr(pipeline, "cosine_affinity", None)   # called, it would raise
        session = self.two_cluster_embeddings()
        with pytest.raises(ValueError) as caught:
            run_pipeline(session.embeddings, "raw_leiden", file_id=file_id)
        assert str(caught.value) == ("file id must be a non-empty string without whitespace, "
                                     f"got {file_id!r}")

    def test_single_segment(self):
        emb = EmbeddingSet(np.ones((1, 4)), np.array([(0.25, 1.5)]))
        timeline, records = run_pipeline(emb, "raw_leiden", file_id="one")
        assert len(records) == 1
        record = records[0]
        assert record.speaker == "spk0"
        assert record.onset == pytest.approx(0.25, abs=0.01)
        assert record.end == pytest.approx(1.75, abs=0.01)

    def test_zero_mask_matches_no_osd(self, trained_weights):
        session = self.two_cluster_embeddings(dim=16)
        cfg = PipelineConfig(knn_k=12, seed=0)
        mask = OverlapMask(np.zeros(100000, dtype=bool))
        _, base = run_pipeline(session.embeddings, "cdgcn_no_osd",
                               weights=trained_weights, config=cfg,
                               vad_regions=session.vad_regions, file_id="f")
        _, gated = run_pipeline(session.embeddings, "cdgcn", weights=trained_weights,
                                mask=mask, config=cfg,
                                vad_regions=session.vad_regions, file_id="f")
        assert write_rttm(gated) == write_rttm(base)

    def test_records_inside_vad_regions(self):
        session = self.two_cluster_embeddings()
        _, records = run_pipeline(session.embeddings, "raw_leiden",
                                  vad_regions=session.vad_regions)
        for r in records:
            inside = any(s - 1e-6 <= r.onset and r.end <= e + 1e-6
                         for s, e in session.vad_regions)
            assert inside, (r, session.vad_regions)

    @pytest.mark.parametrize("region", [(-5.0, -1.0), (1e307, 1e308)])
    def test_region_outside_the_timeline_marks_no_speech(self, region):
        assert not _region_frames([region], 1000, 0.01).any()
        session = self.two_cluster_embeddings()
        _, records = run_pipeline(session.embeddings, "raw_leiden", vad_regions=[region])
        assert records == []

    def test_deterministic_output(self):
        session = self.two_cluster_embeddings()
        cfg = PipelineConfig(knn_k=8, seed=42)
        outputs = [write_rttm(run_pipeline(session.embeddings, "knn_leiden",
                                           config=cfg, file_id="f")[1])
                   for _ in range(2)]
        assert outputs[0] == outputs[1]

    def test_perfect_recovery_scores_zero_der(self):
        session = self.two_cluster_embeddings()
        _, records = run_pipeline(session.embeddings, "raw_leiden",
                                  vad_regions=session.vad_regions,
                                  file_id=session.file_id)
        assert der(session.reference, records).der_percent == pytest.approx(0.0)


class TestMaskContract:
    """cdgcn mode takes a mask at FRAME_DURATION (within 1e-9) that covers the
    timeline, and refuses any other mask with one line that names it."""

    session = make_overlap_session(solo_seconds=6.0, overlap_seconds=3.0, dim=8, seed=4)
    weights = GcnWeights.glorot(8, seed=0)
    # At gamma 1.0 these weights split the session in two and every segment
    # has a runner-up, so each flagged speech frame gets a second speaker.
    config = PipelineConfig(knn_k=10, gamma=1.0, seed=0)

    @given(extra=st.one_of(st.integers(-3, 3), st.just(-10**6)),
           frame_duration=st.sampled_from([FRAME_DURATION, FRAME_DURATION + 1e-10,
                                           FRAME_DURATION - 1e-10, 0.02, 0.005]),
           seed=st.integers(0, 2**16))
    def test_valid_timeline_or_one_line_error(self, extra, frame_duration, seed):
        emb, vad = self.session.embeddings, self.session.vad_regions
        base, _ = run_pipeline(emb, "cdgcn_no_osd", weights=self.weights,
                               config=self.config, vad_regions=vad)
        frames = len(base.primary)
        flags = np.random.default_rng(seed).random(max(0, frames + extra)) < 0.5
        mask = OverlapMask(flags, frame_duration=frame_duration)
        valid = extra >= 0 and frame_duration not in (0.02, 0.005)
        try:
            timeline, records = run_pipeline(emb, "cdgcn", weights=self.weights, mask=mask,
                                             config=self.config, vad_regions=vad)
        except ValueError as exc:
            assert not valid
            assert "mask" in str(exc) and "\n" not in str(exc)
            return
        assert valid
        assert (timeline.primary == base.primary).all()
        overlapped = timeline.secondary >= 0
        assert (overlapped == (flags[:frames] & (base.primary >= 0))).all()
        assert (timeline.secondary != timeline.primary)[overlapped].all()
        assert records == timeline.to_records("session")
        assert read_rttm(write_rttm(records)) == records
