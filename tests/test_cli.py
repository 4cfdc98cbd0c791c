import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdgcn
from cdgcn import cli
from cdgcn.cli import build_parser, main
from cdgcn.gcn import GcnWeights, load_weights, save_weights, train
from cdgcn.graphs import EMBEDDING_MAGIC, EmbeddingSet, read_embeddings, write_embeddings
from cdgcn.osd import write_overlap_mask
from cdgcn.pipeline import write_vad_regions
from cdgcn.scoring import der
from cdgcn.synthetic import (linkage_training_batches, make_overlap_session, make_session,
                             rotate_batches)
from cdgcn.timeline import RttmRecord, read_rttm, write_rttm


@pytest.fixture
def session_dir(tmp_path, four_speaker_session):
    session = four_speaker_session
    write_embeddings(tmp_path / "e2e.emb", session.embeddings)
    write_vad_regions(tmp_path / "e2e.vad", session.vad_regions)
    write_overlap_mask(tmp_path / "e2e.mask", session.overlap_mask)
    (tmp_path / "ref.rttm").write_text(write_rttm(session.reference))
    return tmp_path


def write_raw_embeddings(path, vectors, segments) -> None:
    """An EMB1 file written by hand, for sets that write_embeddings refuses."""
    vectors, segments = np.asarray(vectors, "<f4"), np.asarray(segments, "<f8")
    path.write_bytes(struct.pack("<4sII", EMBEDDING_MAGIC, *vectors.shape)
                     + vectors.tobytes() + segments.tobytes())


@pytest.fixture
def train_dir(tmp_path):
    for seed in (31, 32):
        session = make_session(num_speakers=3, segments_per_speaker=8, dim=16, seed=seed)
        write_embeddings(tmp_path / f"s{seed}.emb", session.embeddings)
        labels = "".join(f"{s}\n" for s in session.speakers[:, 0])
        (tmp_path / f"s{seed}.spk").write_text(labels)
    return tmp_path


class TestClusterCommand:
    def test_knn_leiden_end_to_end(self, session_dir, capsys):
        out = session_dir / "hyp.rttm"
        code = main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
                     "--mode", "knn_leiden", "--vad", str(session_dir / "e2e.vad"),
                     "--knn-k", "40", "--gamma", "0.6", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        assert "4 speakers" in capsys.readouterr().out
        records = read_rttm(out.read_text())
        assert {r.file_id for r in records} == {"e2e"}

    def test_deterministic_bytes(self, session_dir):
        args = ["cluster", "--embeddings", str(session_dir / "e2e.emb"),
                "--mode", "raw_leiden", "--knn-k", "40", "--seed", "3"]
        out1, out2 = session_dir / "a.rttm", session_dir / "b.rttm"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_weights_is_one_line_error(self, session_dir, capsys):
        code = main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
                     "--mode", "cdgcn_no_osd", "--out", str(session_dir / "x.rttm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cdgcn:") and err.count("\n") == 1

    def test_non_finite_embedding_is_one_line_error(self, tmp_path, capsys):
        vectors = np.ones((3, 2))
        vectors[2, 1] = np.nan
        path = tmp_path / "nan.emb"
        write_raw_embeddings(path, vectors, [[0.0, 1.5], [0.75, 1.5], [1.5, 1.5]])
        code = main(["cluster", "--embeddings", str(path), "--mode", "raw_leiden",
                     "--out", str(tmp_path / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == "cdgcn: segment 2 has a non-finite embedding\n"
        assert not (tmp_path / "x.rttm").exists()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_segment_time_is_one_line_error(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.emb"
        write_raw_embeddings(path, np.eye(3), [[0.0, 1.5], [0.75, 1.5], [1.5, bad]])
        code = main(["cluster", "--embeddings", str(path), "--mode", "knn_leiden",
                     "--out", str(tmp_path / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == "cdgcn: segment 2 has a non-finite time\n"
        assert not (tmp_path / "x.rttm").exists()

    @pytest.mark.parametrize("start", [1e300, 1e307])
    def test_segment_past_the_last_frame_is_one_line_error(self, tmp_path, capsys, start):
        """A finite end whose frame count no array can index, or whose
        division into frames overflows."""
        path = tmp_path / "far.emb"
        write_raw_embeddings(path, np.eye(3), [[0.0, 1.5], [0.75, 1.5], [start, 1.5]])
        code = main(["cluster", "--embeddings", str(path), "--mode", "knn_leiden",
                     "--out", str(tmp_path / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == (f"cdgcn: segment 2 ends at {start:g} s, past the last "
                                           "frame a timeline can hold\n")
        assert not (tmp_path / "x.rttm").exists()

    def test_segment_ending_beyond_the_float_range_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "far.emb"
        write_raw_embeddings(path, np.eye(3), [[0.0, 1.5], [0.75, 1.5], [1e308, 1e308]])
        code = main(["cluster", "--embeddings", str(path), "--mode", "knn_leiden",
                     "--out", str(tmp_path / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == "cdgcn: segment 2 has a non-finite time\n"
        assert not (tmp_path / "x.rttm").exists()

    @pytest.mark.parametrize("flags, file_id", [([], "my session"), (["--file-id", ""], ""),
                                                (["--file-id", "a b"], "a b")])
    def test_file_id_rttm_cannot_read_back_is_one_line_error(self, session_dir, capsys, flags,
                                                              file_id):
        """A file id that is empty or holds whitespace, given or taken from
        the embeddings' name, is refused before anything is read."""
        path = session_dir / "my session.emb"
        path.write_bytes(b"not read")
        out = session_dir / "x.rttm"
        code = main(["cluster", "--embeddings", str(path), "--mode", "raw_leiden", *flags,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("cdgcn: file id must be a non-empty string without "
                                           f"whitespace, got {file_id!r}; name the file with "
                                           "--file-id\n")
        assert not out.exists()

    def test_file_id_flag_names_a_spaced_embeddings_file(self, session_dir, capsys):
        """Clustering "my session.emb" as my_session writes RTTM that score
        reads back, and scores as the same session under its own name."""
        spaced = session_dir / "my session.emb"
        spaced.write_bytes((session_dir / "e2e.emb").read_bytes())
        args = ["cluster", "--mode", "knn_leiden", "--knn-k", "40",
                "--vad", str(session_dir / "e2e.vad")]
        assert main(args + ["--embeddings", str(spaced), "--file-id", "my_session",
                            "--out", str(session_dir / "spaced.rttm")]) == 0
        assert main(args + ["--embeddings", str(session_dir / "e2e.emb"),
                            "--out", str(session_dir / "e2e.rttm")]) == 0
        ref = (session_dir / "ref.rttm").read_text()
        (session_dir / "spaced_ref.rttm").write_text(ref.replace(" e2e ", " my_session "))
        capsys.readouterr()
        assert {r.file_id for r in read_rttm((session_dir / "spaced.rttm").read_text())} == {
            "my_session"}
        scores = []
        for ref_name, hyp_name in (("spaced_ref", "spaced"), ("ref", "e2e")):
            assert main(["score", "--ref", str(session_dir / f"{ref_name}.rttm"),
                         "--hyp", str(session_dir / f"{hyp_name}.rttm")]) == 0
            scores.append(capsys.readouterr().out)
        assert scores[0] == scores[1]
        assert scores[0].startswith("DER=")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_mask_frame_duration_is_one_line_error(self, session_dir, capsys, bad):
        frames = (session_dir / "e2e.mask").read_text().split("\n", 1)[1]
        (session_dir / "bad.mask").write_text(f"frame_duration={bad}\n{frames}")
        (session_dir / "w.gcnw").write_bytes(save_weights(GcnWeights.glorot(16, seed=0)))
        code = main(["cluster", "--embeddings", str(session_dir / "e2e.emb"), "--mode", "cdgcn",
                     "--weights", str(session_dir / "w.gcnw"), "--mask",
                     str(session_dir / "bad.mask"), "--out", str(session_dir / "x.rttm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"cdgcn: frame_duration {bad} must be finite and positive\n"
        assert not (session_dir / "x.rttm").exists()

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_vad_bound_is_one_line_error(self, session_dir, capsys, bad):
        vad = session_dir / "bad.vad"
        vad.write_text(f"0 {bad}\n")
        code = main(["cluster", "--embeddings", str(session_dir / "e2e.emb"), "--mode",
                     "knn_leiden", "--vad", str(vad), "--out", str(session_dir / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == f"cdgcn: {vad} line 1: bounds must be finite\n"
        assert not (session_dir / "x.rttm").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_gamma_is_one_line_error(self, tmp_path, capsys, bad):
        session = make_session(num_speakers=2, segments_per_speaker=10, dim=8, seed=5)
        write_embeddings(tmp_path / "s.emb", session.embeddings)
        code = main(["cluster", "--embeddings", str(tmp_path / "s.emb"), "--mode", "knn_leiden",
                     "--gamma", bad, "--out", str(tmp_path / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == f"cdgcn: gamma must be finite and positive, got {bad}\n"
        assert not (tmp_path / "x.rttm").exists()

    def test_negative_total_weight_is_one_line_error(self, tmp_path, four_speaker_session,
                                                     capsys):
        # Mean-centred embeddings: the complete cosine graph has m < 0.
        emb = four_speaker_session.embeddings
        centred = EmbeddingSet(emb.vectors - emb.vectors.mean(axis=0), emb.segments)
        write_embeddings(tmp_path / "centred.emb", centred)
        code = main(["cluster", "--embeddings", str(tmp_path / "centred.emb"),
                     "--mode", "raw_leiden", "--out", str(tmp_path / "x.rttm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cdgcn: graph has negative total weight m = -")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.rttm").exists()

    def test_missing_compiler_is_one_line_error(self, session_dir, missing_compiler, capsys):
        code = main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
                     "--mode", "knn_leiden", "--out", str(session_dir / "x.rttm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cdgcn: cannot build the compiled kernels") and "'no-such-cc'" in err
        assert err.count("\n") == 1
        assert not (session_dir / "x.rttm").exists()

    def test_non_finite_weights_are_one_line_error(self, session_dir, capsys):
        weights = GcnWeights.glorot(16, seed=0)
        weights.tensors[1][2, 3] = np.nan
        path = session_dir / "nan.gcnw"
        path.write_bytes(save_weights(weights))
        code = main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
                     "--mode", "cdgcn_no_osd", "--weights", str(path),
                     "--out", str(session_dir / "x.rttm")])
        assert code == 1
        assert capsys.readouterr().err == "cdgcn: layer 1 has a non-finite weight\n"
        assert not (session_dir / "x.rttm").exists()

    def test_missing_file_is_error(self, session_dir, capsys):
        code = main(["cluster", "--embeddings", str(session_dir / "nope.emb"),
                     "--mode", "raw_leiden", "--out", str(session_dir / "x.rttm")])
        assert code == 1
        assert "cdgcn:" in capsys.readouterr().err


@pytest.mark.parametrize("command, patched", [("cluster", "run_pipeline"),
                                               ("score", "der")])
def test_memory_error_is_one_line_error(session_dir, monkeypatch, capsys, command, patched):
    """An allocation that fails ends the command with one line, as an
    allocation numpy refuses reports it. A real far-off record does not test
    this: a host that overcommits memory may grant the allocation."""
    message = ("Unable to allocate 931. GiB for an array with shape (124999999999,) "
               "and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, patched, out_of_memory)
    ref, out = str(session_dir / "ref.rttm"), session_dir / "x.rttm"
    args = {"cluster": ["--embeddings", str(session_dir / "e2e.emb"), "--mode", "raw_leiden",
                        "--out", str(out)],
            "score": ["--ref", ref, "--hyp", ref]}[command]
    assert main([command, *args]) == 1
    assert capsys.readouterr().err == f"cdgcn: {message}\n"
    assert not out.exists()


class TestTrainCommand:
    def test_trains_and_saves_loadable_weights(self, train_dir, capsys):
        out = train_dir / "w.gcnw"
        code = main(["train-gcn", "--data", str(train_dir), "--out", str(out),
                     "--lr", "0.3", "--epochs", "30", "--seed", "1", "--knn-k", "8"])
        assert code == 0
        assert "sub-graphs" in capsys.readouterr().out
        weights = load_weights(out.read_bytes())
        assert len(weights.tensors) == 4 + 4   # four aggregation layers, then the head
        assert out.read_bytes() == save_weights(weights)

    def test_overlapped_labels_train_like_the_library(self, tmp_path, capsys):
        session = make_overlap_session(solo_seconds=6.0, overlap_seconds=3.0, dim=8, seed=9)
        write_embeddings(tmp_path / "ov.emb", session.embeddings)
        (tmp_path / "ov.spk").write_text("".join(
            f"{a}\n" if a == b else f"{b} {a}\n" for a, b in session.speakers.tolist()))
        out = tmp_path / "w.gcnw"
        code = main(["train-gcn", "--data", str(tmp_path), "--out", str(out), "--lr", "0.3",
                     "--epochs", "3", "--seed", "2", "--knn-k", "6", "--layers", "2",
                     "--rotations", "1"])
        assert code == 0
        assert f"trained on {2 * session.embeddings.count} sub-graphs" in capsys.readouterr().out
        # The library labels segments by the same shares-a-speaker rule.
        session.embeddings = read_embeddings(tmp_path / "ov.emb")
        batches = rotate_batches(linkage_training_batches(session, k=6), 1, seed=2)
        weights = train(batches, init=GcnWeights.glorot(8, layers=2, seed=2), lr=0.3,
                        epochs=3)
        assert out.read_bytes() == save_weights(weights)

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning rate must be finite and positive, got nan"),
        ("--lr", "inf", "learning rate must be finite and positive, got inf"),
        ("--epochs", "-1", "epochs must be non-negative, got -1"),
        ("--rotations", "-1", "rotations must be non-negative, got -1"),
    ], ids=["lr-nan", "lr-inf", "epochs-negative", "rotations-negative"])
    def test_bad_lr_or_epochs_is_one_line_error(self, train_dir, capsys, flag, value, message):
        out = train_dir / "w.gcnw"
        code = main(["train-gcn", "--data", str(train_dir), "--out", str(out), flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"cdgcn: {message}\n"
        assert not out.exists()

    def test_zero_epochs_saves_the_initial_weights(self, train_dir, capsys):
        out = train_dir / "w.gcnw"
        code = main(["train-gcn", "--data", str(train_dir), "--out", str(out),
                     "--epochs", "0", "--seed", "3"])
        assert code == 0
        assert capsys.readouterr().out == (
            f"trained on 48 sub-graphs from 2 sessions: initial weights -> {out}\n")
        assert out.read_bytes() == save_weights(GcnWeights.glorot(16, seed=3))

    def test_empty_data_dir_is_error(self, tmp_path, capsys):
        code = main(["train-gcn", "--data", str(tmp_path), "--out",
                     str(tmp_path / "w.gcnw")])
        assert code == 1
        assert "no .emb files" in capsys.readouterr().err

    @pytest.mark.parametrize("ids", ["9223372036854775808", "0 -9223372036854775809"])
    def test_speaker_id_beyond_64_bits_is_one_line_error(self, train_dir, capsys, ids):
        spk = sorted(train_dir.glob("*.spk"))[0]
        lines = spk.read_text().splitlines()
        lines[2] = ids
        spk.write_text("".join(f"{line}\n" for line in lines))
        out = train_dir / "w.gcnw"
        code = main(["train-gcn", "--data", str(train_dir), "--out", str(out), "--epochs", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"cdgcn: {spk} line 3: speaker ids must fit in 64 bits\n"
        assert not out.exists()

    def test_mixed_feature_dims_is_one_line_error(self, tmp_path, capsys):
        for name, dim in (("a", 8), ("b", 6)):
            session = make_session(num_speakers=2, segments_per_speaker=5, dim=dim, seed=1)
            write_embeddings(tmp_path / f"{name}.emb", session.embeddings)
            (tmp_path / f"{name}.spk").write_text(
                "".join(f"{s}\n" for s in session.speakers[:, 0]))
        out = tmp_path / "w.gcnw"
        code = main(["train-gcn", "--data", str(tmp_path), "--out", str(out), "--knn-k", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            "cdgcn: sub-graph feature dim 6 does not match weights feature dim 8\n")
        assert not out.exists()

    def test_mismatched_labels_is_error(self, train_dir, capsys):
        spk = next(train_dir.glob("*.spk"))
        spk.write_text("0\n1\n")
        code = main(["train-gcn", "--data", str(train_dir), "--out",
                     str(train_dir / "w.gcnw"), "--epochs", "1"])
        assert code == 1
        assert "label lines" in capsys.readouterr().err


class TestScoreCommand:
    def test_score_output_format(self, session_dir, capsys):
        hyp = session_dir / "hyp.rttm"
        main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
              "--mode", "knn_leiden", "--knn-k", "40",
              "--vad", str(session_dir / "e2e.vad"), "--out", str(hyp)])
        capsys.readouterr()
        code = main(["score", "--ref", str(session_dir / "ref.rttm"),
                     "--hyp", str(hyp), "--collar", "0.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("DER=")
        assert "MISS=" in out and "FA=" in out and "SPKERR=" in out

    def test_score_counts_flag(self, session_dir, capsys):
        hyp = session_dir / "hyp.rttm"
        main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
              "--mode", "raw_leiden", "--out", str(hyp)])
        capsys.readouterr()
        code = main(["score", "--ref", str(session_dir / "ref.rttm"),
                     "--hyp", str(hyp), "--counts"])
        assert code == 0
        assert "MSE=" in capsys.readouterr().out

    def test_cli_matches_library_der(self, session_dir, capsys):
        hyp = session_dir / "hyp.rttm"
        main(["cluster", "--embeddings", str(session_dir / "e2e.emb"),
              "--mode", "knn_leiden", "--knn-k", "40",
              "--vad", str(session_dir / "e2e.vad"), "--out", str(hyp)])
        capsys.readouterr()
        main(["score", "--ref", str(session_dir / "ref.rttm"), "--hyp", str(hyp)])
        printed = capsys.readouterr().out
        ref = read_rttm((session_dir / "ref.rttm").read_text())
        records = read_rttm(hyp.read_text())
        assert f"DER={der(ref, records).der_percent:.2f}%" in printed

    @pytest.mark.parametrize("field", [3, 4])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_rttm_time_is_one_line_error(self, session_dir, capsys, field, bad):
        fields = write_rttm([RttmRecord("f", 0.0, 1.5, "spk0")]).split()
        fields[field] = bad
        (session_dir / "bad.rttm").write_text(" ".join(fields) + "\n")
        code = main(["score", "--ref", str(session_dir / "ref.rttm"),
                     "--hyp", str(session_dir / "bad.rttm")])
        assert code == 1
        name = "onset" if field == 3 else "duration"
        err = capsys.readouterr().err
        assert err.startswith(f"cdgcn: line 1: {name} {bad} must be finite")
        assert err.count("\n") == 1

    def test_turn_past_the_last_frame_is_one_line_error(self, session_dir, capsys):
        """A turn whose end in milliseconds no array can index names its file
        and end; numpy refuses an array that long before allocating it."""
        (session_dir / "far.rttm").write_text(
            write_rttm([RttmRecord("e2e", 0.0, 1.5, "spk0"), RttmRecord("far", 1e300, 1.5, "a")]))
        code = main(["score", "--ref", str(session_dir / "ref.rttm"),
                     "--hyp", str(session_dir / "far.rttm")])
        assert code == 1
        assert capsys.readouterr().err == ("cdgcn: file far: a turn ends at 1e+300 s, past the "
                                           "last frame to score\n")

    @pytest.mark.parametrize("bad", ["inf", "nan", "-0.5"])
    def test_bad_collar_is_one_line_error(self, session_dir, capsys, bad):
        ref = str(session_dir / "ref.rttm")
        code = main(["score", "--ref", ref, "--hyp", ref, "--collar", bad])
        assert code == 1
        assert (capsys.readouterr().err
                == f"cdgcn: collar must be finite and non-negative, got {bad}\n")


def test_successive_calls_behave_as_fresh_ones(session_dir, capsys):
    """main builds its parser once; cluster, then score, then an argv the
    parser refuses each give the code, output and file that a call with a
    freshly built parser gives."""
    hyp = session_dir / "hyp.rttm"
    calls = [["cluster", "--embeddings", str(session_dir / "e2e.emb"), "--mode", "knn_leiden",
              "--knn-k", "20", "--out", str(hyp)],
             ["score", "--ref", str(session_dir / "ref.rttm"), "--hyp", str(hyp), "--counts"],
             ["score", "--ref", str(session_dir / "ref.rttm"), "--collar"]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's exit on an argv it refuses
            code = exc.code
        return code, tuple(capsys.readouterr()), hyp.read_bytes()

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2]


class TestSyntheticScript:
    """scripts/make_synthetic.py writes every file the CLI reads."""

    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic.py"

    def make(self, out_dir, name, *flags, check=True):
        env = dict(os.environ)
        src = str(Path(cdgcn.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, str(self.script), "--out-dir", str(out_dir),
                               "--name", name, *flags], env=env, check=check,
                              capture_output=True, text=True)

    @pytest.mark.parametrize("flags", [
        "--speakers 0", "--overlap --noise -1", "--noise nan", "--speakers 3 --dim 2",
        "--speakers 2 --mean-cosine 2", "--segments-per-speaker 0", "--overlap --dim 1"])
    def test_bad_arguments_are_one_line_errors(self, tmp_path, flags):
        done = self.make(tmp_path / "out", "bad", *flags.split(), check=False)
        assert done.returncode == 1
        assert done.stderr.startswith("make_synthetic.py: ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_script_output_feeds_train_cluster_and_score(self, tmp_path, capsys):
        self.make(tmp_path, "plain", "--speakers", "3", "--segments-per-speaker", "10")
        self.make(tmp_path, "mixed", "--overlap")
        weights = tmp_path / "w.gcnw"
        assert main(["train-gcn", "--data", str(tmp_path), "--epochs", "2",
                     "--out", str(weights)]) == 0
        for name in ("plain", "mixed"):
            hyp = tmp_path / f"{name}_hyp.rttm"
            assert main(["cluster", "--embeddings", str(tmp_path / f"{name}.emb"),
                         "--mode", "cdgcn", "--weights", str(weights),
                         "--mask", str(tmp_path / f"{name}.mask"),
                         "--vad", str(tmp_path / f"{name}.vad"), "--out", str(hyp)]) == 0
            assert main(["score", "--ref", str(tmp_path / f"{name}_ref.rttm"),
                         "--hyp", str(hyp), "--counts"]) == 0
        assert capsys.readouterr().out.count("MSE=") == 2


class TestNegativeSeed:
    """Every command that takes --seed refuses a negative one with one line
    that names it."""

    @pytest.mark.parametrize("command", ["cluster", "train-gcn", "make_synthetic.py"])
    def test_is_one_line_error(self, train_dir, capsys, command):
        out = train_dir / "out"
        if command == "make_synthetic.py":
            done = TestSyntheticScript().make(out, "bad", "--seed", "-1", check=False)
            code, err = done.returncode, done.stderr
        else:
            args = {"cluster": ["--embeddings", str(train_dir / "s31.emb"),
                                "--mode", "knn_leiden"],
                    "train-gcn": ["--data", str(train_dir)]}[command]
            code = main([command, *args, "--seed", "-1", "--out", str(out)])
            err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.endswith(": seed must be a non-negative integer, got -1\n")
        assert not out.exists()
