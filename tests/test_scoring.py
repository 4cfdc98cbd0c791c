import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdgcn.scoring import der, rttm_speaker_counts, speaker_count_mse
from cdgcn.timeline import RttmRecord
from helpers import modules_after


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
    """The CLI imports this module; scipy loads on the first DER only."""
    loaded = modules_after("import cdgcn.cli")
    assert "cdgcn.scoring" in loaded
    assert not any(name.split(".")[0] == "scipy" for name in loaded)
