import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdgcn.scoring import _best_matching_total, der, rttm_speaker_counts, speaker_count_mse
from cdgcn.timeline import RttmRecord
from helpers import (
    brute_force_matching_total,
    modules_after,
    one_line_error_in_small_memory,
    reference_der,
)


def rec(onset, duration, speaker, file_id="f"):
    return RttmRecord(file_id, onset, duration, speaker)


def random_records(rng, speakers, file_id="f", turns=6):
    records = []
    t = 0.0
    for _ in range(turns):
        t += round(float(rng.uniform(0.0, 1.0)), 3)
        duration = round(float(rng.uniform(0.5, 3.0)), 3)
        records.append(rec(t, duration, str(rng.choice(speakers)), file_id))
        t += duration
    return records


class TestDer:
    def test_perfect_hypothesis(self):
        ref = [rec(0.0, 10.0, "a"), rec(4.0, 3.0, "b")]
        assert der(ref, ref).der_percent == pytest.approx(0.0)

    def test_empty_hypothesis_all_miss(self):
        breakdown = der([rec(0.0, 10.0, "a")], [])
        assert breakdown.der_percent == pytest.approx(100.0)
        assert breakdown.missed_seconds == pytest.approx(10.0)
        assert breakdown.false_alarm_seconds == 0.0
        assert breakdown.speaker_error_seconds == 0.0

    def test_half_covered_reference(self):
        breakdown = der([rec(0.0, 10.0, "a")], [rec(0.0, 5.0, "x")])
        assert breakdown.der_percent == pytest.approx(50.0)
        assert breakdown.missed_seconds == pytest.approx(5.0)

    def test_false_alarm(self):
        breakdown = der([rec(0.0, 10.0, "a")], [rec(0.0, 12.0, "x")])
        assert breakdown.false_alarm_seconds == pytest.approx(2.0)
        assert breakdown.der_percent == pytest.approx(20.0)

    def test_confusion_with_optimal_mapping(self):
        # hyp swaps the dominant speakers; optimal mapping recovers them
        ref = [rec(0.0, 6.0, "a"), rec(6.0, 4.0, "b")]
        hyp = [rec(0.0, 6.0, "x"), rec(6.0, 4.0, "y")]
        assert der(ref, hyp).der_percent == pytest.approx(0.0)

    def test_greedy_trap_needs_assignment(self):
        # speaker a overlaps x for 3s and y for 4s; b overlaps y for 5s.
        # greedy would map a->y, losing b entirely; optimal maps a->x, b->y.
        ref = [rec(0.0, 7.0, "a"), rec(7.0, 5.0, "b")]
        hyp = [rec(0.0, 3.0, "x"), rec(3.0, 9.0, "y")]
        breakdown = der(ref, hyp)
        assert breakdown.speaker_error_seconds == pytest.approx(4.0)

    def test_overlap_scoring(self):
        ref = [rec(0.0, 4.0, "a"), rec(2.0, 2.0, "b")]
        hyp = [rec(0.0, 4.0, "x")]
        breakdown = der(ref, hyp)
        # frames 2-4 have two reference speakers but one hypothesis speaker
        assert breakdown.missed_seconds == pytest.approx(2.0)
        assert breakdown.total_reference_seconds == pytest.approx(6.0)

    def test_collar_excludes_boundaries(self):
        ref = [rec(0.0, 10.0, "a")]
        hyp = [rec(0.2, 9.6, "x")]
        strict = der(ref, hyp, collar=0.0)
        assert strict.missed_seconds == pytest.approx(0.4)
        forgiving = der(ref, hyp, collar=0.25)
        assert forgiving.der_percent == pytest.approx(0.0)
        # scored reference loses 0.25 s inside each boundary
        assert forgiving.total_reference_seconds == pytest.approx(9.5)

    def test_negative_collar_rejected(self):
        with pytest.raises(ValueError):
            der([], [], collar=-1.0)

    @pytest.mark.parametrize("collar", [np.nan, np.inf])
    def test_non_finite_collar_rejected(self, collar):
        with pytest.raises(ValueError, match="^collar must be finite and non-negative"):
            der([], [], collar=collar)

    def test_multi_file_aggregation(self):
        ref = [rec(0.0, 10.0, "a", "f1"), rec(0.0, 10.0, "a", "f2")]
        hyp = [rec(0.0, 10.0, "x", "f1")]
        breakdown = der(ref, hyp)
        assert breakdown.der_percent == pytest.approx(50.0)
        assert breakdown.missed_seconds == pytest.approx(10.0)

    def test_empty_reference_zero(self):
        assert der([], []).der_percent == 0.0
        assert der([], [rec(0.0, 1.0, "x")]).der_percent == np.inf

    @given(seed=st.integers(0, 2000))
    def test_self_score_zero_any_collar(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_records(rng, ["a", "b", "c"])
        collar = float(rng.uniform(0.0, 0.5))
        assert der(ref, ref, collar=collar).der_percent == pytest.approx(0.0)

    @given(seed=st.integers(0, 2000))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_records(rng, ["a", "b", "c"])
        hyp = random_records(rng, ["p", "q"])
        renamed = [rec(r.onset, r.duration, {"p": "q", "q": "p"}[r.speaker])
                   for r in hyp]
        assert der(ref, hyp).der_percent == pytest.approx(
            der(ref, renamed).der_percent)

    @given(seed=st.integers(0, 2000))
    def test_breakdown_identity(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_records(rng, ["a", "b"])
        hyp = random_records(rng, ["p", "q", "r"])
        b = der(ref, hyp)
        total = b.missed_seconds + b.false_alarm_seconds + b.speaker_error_seconds
        assert b.der_percent == pytest.approx(100.0 * total / b.total_reference_seconds)


class TestSpeakerCountMse:
    def test_identical(self):
        assert speaker_count_mse([3, 2, 4], [3, 2, 4]) == 0.0

    def test_half_from_one_off(self):
        assert speaker_count_mse([2, 3], [3, 3]) == pytest.approx(0.5)

    def test_square_of_difference(self):
        assert speaker_count_mse([5], [3]) == pytest.approx(4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            speaker_count_mse([1, 2], [1])

    def test_counts_from_records(self):
        records = [rec(0.0, 1.0, "a", "f1"), rec(1.0, 1.0, "b", "f1"),
                   rec(0.0, 1.0, "a", "f2")]
        assert rttm_speaker_counts(records) == {"f1": 2, "f2": 1}


def test_import_cdgcn_leaves_scipy_unloaded():
    assert not any(name.split(".")[0] == "scipy" for name in modules_after("import cdgcn"))


def test_import_cdgcn_cli_leaves_scipy_unloaded():
    """The CLI imports this module, which scores without scipy."""
    loaded = modules_after("import cdgcn.cli")
    assert "cdgcn.scoring" in loaded
    assert not any(name.split(".")[0] == "scipy" for name in loaded)


integer_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.one_of(
        st.integers(0, 3), st.integers(-10**9, 10**9))))


@example(np.array([[0, 4, 4, 1]]))
@example(np.array([[2], [7], [7]]))
@example(np.zeros((5, 3), dtype=np.int64))
@example(np.full((6, 6), 9))
@example(np.array([[3, 3, 0], [3, 3, 0]]))
@given(integer_matrices)
def test_best_matching_total_equals_brute_force(overlap):
    assert _best_matching_total(overlap) == brute_force_matching_total(overlap)


FILES, REF_SPEAKERS, HYP_SPEAKERS = ["f1", "f2"], ["a", "b", "c"], ["x", "y", "z", "w"]
# On the 1 ms grid, on its half-millisecond rounding ties, and anywhere.
times = st.one_of(st.integers(0, 20_000).map(lambda ms: ms / 1000),
                  st.integers(0, 40_000).map(lambda half: half / 2000),
                  st.floats(0.0, 20.0))
# Turns, turns that round to empty or to one frame, and durations anywhere.
durations = st.one_of(st.integers(1, 6000).map(lambda ms: ms / 1000),
                      st.sampled_from([1e-9, 0.0004, 0.0005, 0.0006, 0.0015]),
                      st.floats(1e-6, 6.0))


@st.composite
def turns(draw, speakers):
    """Records over two files; about half touch or overlap an earlier turn of
    the same speaker."""
    records = []
    for _ in range(draw(st.integers(0, 8))):
        file_id, speaker = draw(st.sampled_from(FILES)), draw(st.sampled_from(speakers))
        onset = draw(times)
        if records and draw(st.booleans()):
            earlier = draw(st.sampled_from(records))
            file_id, speaker = earlier.file_id, earlier.speaker
            onset = draw(st.sampled_from([earlier.onset, earlier.onset + earlier.duration / 2,
                                          earlier.end]))
        records.append(rec(onset, draw(durations), speaker, file_id))
    return records


@st.composite
def scored_pairs(draw):
    """Reference and hypothesis records and a collar. A hypothesis may copy the
    reference under two names per speaker, so that its best matchings tie."""
    ref, hyp = draw(turns(REF_SPEAKERS)), draw(turns(HYP_SPEAKERS))
    if draw(st.booleans()):
        hyp += [rec(r.onset, r.duration, name + r.speaker, r.file_id) for r in ref for name in "pq"]
    collar = draw(st.one_of(st.sampled_from([0.0, 0.0005, 0.25, 1.3, 30.0]), st.floats(0.0, 5.0)))
    return ref, hyp, collar


@example(([rec(0.0, 2.0, "a"), rec(2.0, 1.0, "a"), rec(1.0, 0.0004, "b")],
          [rec(0.0, 3.0, "x"), rec(0.0, 3.0, "y")], 0.0))
@example(([rec(0.0, 1.0, "a"), rec(0.5, 1.0, "a")], [rec(0.4, 0.2, "x")], 1.3))
@given(scored_pairs())
def test_der_equals_frame_mask_oracle(case):
    ref, hyp, collar = case
    assert der(ref, hyp, collar=collar) == reference_der(ref, hyp, collar)


def one_hour_of_turns(rng, speakers, mean_turn, file_id="hour"):
    """Turns of random speakers over an hour, each gap under a second."""
    records, t = [], 0.0
    while t < 3600.0:
        t += round(float(rng.uniform(0.0, 1.0)), 3)
        duration = round(float(rng.uniform(0.2, 2.0 * mean_turn)), 3)
        records.append(rec(t, duration, str(rng.choice(speakers)), file_id))
        t += duration
    return records


def traced(call, *args, **kwargs):
    """call's result and the peak of the memory tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_hour_scores_in_memory_that_follows_the_records():
    """A per-millisecond scorer would hold 3.6 M frames per speaker here."""
    rng = np.random.default_rng(5)
    ref = one_hour_of_turns(rng, ["a", "b", "c", "d"], 5.0)
    hyp = one_hour_of_turns(rng, ["p", "q", "r", "s", "t"], 4.8)
    assert 600 < len(ref) < 720 and 620 < len(hyp) < 750
    breakdown, peak = traced(der, ref, hyp, collar=0.25)
    assert peak < 4 * 2**20
    assert 0.0 < breakdown.der_percent < 200.0


def test_turns_a_billion_seconds_in_score_against_themselves():
    """Frame masks here would need about 1e12 frames per speaker."""
    ref = [rec(1e9, 1.0, "a"), rec(1e9 + 1.0, 1.0, "b")]
    breakdown, peak = traced(der, ref, ref, collar=0.25)
    assert peak < 2**20
    assert breakdown.der_percent == 0.0
    assert breakdown.total_reference_seconds == pytest.approx(1.0)


def test_counts_past_64_bits_are_one_line_error():
    """Three speakers over 4e18 frames could sum past int64; the file is refused."""
    ref = [rec(0.0, 4e15, "a"), rec(0.0, 4e15, "b")]
    message = one_line_error_in_small_memory(der, ref, [rec(0.0, 4e15, "x")])
    assert message == "file f: 3 speakers over 4e+15 s overflow the 64-bit frame counts"
