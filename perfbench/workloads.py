"""The four benchmark workloads and the checks on their outputs.

A workload is a list of units (sessions, or one training run) built from
the seed. run.py times each unit, always completes one full pass over the
list so that DER and the RTTM digest cover the same outputs on every run,
then keeps cycling through the list for the rest of the time budget.

Why these four (DESIGN.md has the per-layer predictions and sizes):
- long_meeting: the largest graphs, where per-edge Leiden cost, GCN
  refinement over every pivot and the memory of batched tensors show.
- dense_raw: the density extreme (a complete graph through knn_graph at
  k = N - 1, every node of degree N - 1); never touches the GCN or OSD.
  long_meeting's k = 45 graphs have more edges in all (~25k against ~21k).
- short_batch: fixed per-call overhead of the CLI on many small sessions.
- train_gcn: the only backward pass; no Leiden over a large graph.

Sessions keep every speaker's segment count above KNN_K. With fewer
segments per speaker than neighbours, Leiden's running time varies by
20-30 % from seed to seed, and per-run medians stop being comparable.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus import Session, meeting, two_speaker, write_session

cli = importlib.import_module("cdgcn.cli")
gcn = importlib.import_module("cdgcn.gcn")
graphs = importlib.import_module("cdgcn.graphs")
osd = importlib.import_module("cdgcn.osd")
pipeline = importlib.import_module("cdgcn.pipeline")
scoring = importlib.import_module("cdgcn.scoring")
synthetic = importlib.import_module("cdgcn.synthetic")
timeline = importlib.import_module("cdgcn.timeline")

KNN_K = 45
DIM = 32
WEIGHTS = Path(__file__).resolve().parent / "weights.gcnw"


@dataclass
class Output:
    """One hypothesis RTTM of one session in one mode."""

    key: str
    mode: str
    session: Session
    rttm: str


@dataclass
class UnitResult:
    outputs: list = field(default_factory=list)
    speech_seconds: float = 0.0
    epoch_seconds: list = field(default_factory=list)
    losses: list = field(default_factory=list)


@dataclass
class Unit:
    """A timed piece of work; `session` marks units that count as sessions.

    run(pause) does the work; a unit that times several steps itself calls
    pause() between them and leaves that time out of its steps."""

    name: str
    run: object          # (pause) -> UnitResult
    session: bool = True


def _cluster_files(files, mode, weights, workdir: Path) -> Output:
    """Library path: read the input files, cluster, write the RTTM."""
    s = files.session
    emb = graphs.read_embeddings(files.emb)
    vad = pipeline.read_vad_regions(files.vad)
    mask = osd.read_overlap_mask(files.mask) if mode == "cdgcn" else None
    _, records = pipeline.run_pipeline(emb, mode, weights=weights, mask=mask,
                                       config=pipeline.PipelineConfig(knn_k=KNN_K),
                                       vad_regions=vad, file_id=s.file_id)
    out = workdir / f"{s.file_id}.{mode}.rttm"
    text = timeline.write_rttm(records)
    out.write_text(text)
    return Output(f"{s.file_id}/{mode}", mode, s, text)


def _library_unit(files, modes, weights, workdir) -> Unit:
    def run(pause=None):
        outputs = [_cluster_files(files, mode, weights, workdir) for mode in modes]
        return UnitResult(outputs, files.session.speech_seconds)
    return Unit(files.session.file_id, run)


def _cli_unit(files, weights_path: Path, workdir: Path) -> Unit:
    """`cdgcn cluster --mode cdgcn` then `cdgcn score`, as a user would."""
    s = files.session
    ref = workdir / f"{s.file_id}.ref.rttm"
    ref.write_text(timeline.write_rttm(s.reference))
    hyp = workdir / f"{s.file_id}.cdgcn.rttm"
    cluster_argv = ["cluster", "--mode", "cdgcn", "--embeddings", str(files.emb),
                    "--weights", str(weights_path), "--mask", str(files.mask),
                    "--vad", str(files.vad), "--knn-k", str(KNN_K), "--out", str(hyp)]
    score_argv = ["score", "--ref", str(ref), "--hyp", str(hyp)]

    def run(pause=None):
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (cluster_argv, score_argv):
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"cdgcn {argv[0]} exited with {code}")
        return UnitResult([Output(f"{s.file_id}/cdgcn", "cdgcn", s, hyp.read_text())],
                          s.speech_seconds)
    return Unit(s.file_id, run)


def load_committed_weights():
    return gcn.load_weights(WEIGHTS.read_bytes())


@dataclass
class Plan:
    units: list
    warm_up: object       # () -> None, untimed
    modes: tuple          # modes whose DER is reported; the last is the headline


def _meeting_plan(seed, workdir, prefix, sessions, segments, warm_segments, speakers,
                  modes, weights) -> Plan:
    spec = dict(speakers=speakers, dim=DIM, noise=0.8, cosine=0.1, overlap_prob=0.1)
    files = [write_session(meeting(seed * 1000 + i, segments=segments,
                                   file_id=f"{prefix}{i:02d}", **spec), workdir)
             for i in range(sessions)]
    warm = write_session(meeting(seed * 1000 + 999, segments=warm_segments,
                                 file_id="warmup", **spec), workdir)
    return Plan([_library_unit(f, modes, weights, workdir) for f in files],
                _library_unit(warm, modes, weights, workdir).run, modes)


def long_meeting(seed: int, workdir: Path, sessions: int = 3, segments: int = 800,
                 warm_segments: int = 100) -> Plan:
    """4-speaker meetings of ~800 segments, knn_leiden and cdgcn at k = 45."""
    return _meeting_plan(seed, workdir, "meeting", sessions, segments, warm_segments,
                         speakers=4, modes=("knn_leiden", "cdgcn"),
                         weights=load_committed_weights())


def dense_raw(seed: int, workdir: Path, sessions: int = 12, segments: int = 200,
              warm_segments: int = 60) -> Plan:
    """3-speaker meetings of ~200 segments in raw_leiden (a complete graph)."""
    return _meeting_plan(seed, workdir, "dense", sessions, segments, warm_segments,
                         speakers=3, modes=("raw_leiden",), weights=None)


def short_batch(seed: int, workdir: Path, sessions: int = 100) -> Plan:
    files = [write_session(two_speaker(seed * 1000 + i, dim=DIM, file_id=f"short{i:03d}"),
                           workdir) for i in range(sessions)]
    warm = write_session(two_speaker(seed * 1000 + 999, dim=DIM, file_id="warmup"), workdir)
    return Plan([_cli_unit(f, WEIGHTS, workdir) for f in files],
                _cli_unit(warm, WEIGHTS, workdir).run, ("cdgcn",))


def training_batches(seed: int):
    """The test-suite training mix at dim 32: orthogonal 4-speaker sessions,
    adjacent-mean 2-speaker sessions and overlapped sessions."""
    batches = []
    per_speaker = 15
    for i in range(2):
        s = synthetic.make_session(num_speakers=4, segments_per_speaker=per_speaker, dim=DIM,
                                   seed=seed * 100 + i)
        batches += synthetic.linkage_training_batches(s, k=40)
    for i, cosine in ((2, 0.2), (3, 0.35)):
        s = synthetic.make_session(num_speakers=2, segments_per_speaker=per_speaker, dim=DIM,
                                   seed=seed * 100 + i, mean_cosine=cosine)
        batches += synthetic.linkage_training_batches(s, k=25)
    for i in (4, 5):
        s = synthetic.make_overlap_session(dim=DIM, seed=seed * 100 + i)
        batches += synthetic.linkage_training_batches(s, k=45)
    return batches


def train_weights(seed: int, epochs: int, on_epoch=None):
    """Build the labelled sub-graphs and run `epochs` of gcn.train."""
    batches = training_batches(seed)
    init = gcn.GcnWeights.glorot(DIM, seed=seed)
    return gcn.train(batches, init=init, lr=0.5, epochs=epochs, seed=seed, on_epoch=on_epoch)


def train_gcn(seed: int, workdir: Path, epochs: int = 150, heldout: int = 10) -> Plan:
    """One training run on a seeded corpus, then held-out sessions
    clustered with the fresh weights."""
    modes = ("cdgcn_no_osd", "cdgcn")
    state = {}

    def train_unit(pause):
        starts, ends, losses = [], [], []

        def on_epoch(_, loss):
            ends.append(time.perf_counter())
            losses.append(loss)
            pause()
            starts.append(time.perf_counter())

        state["weights"] = train_weights(seed, epochs, on_epoch)
        ends.append(time.perf_counter())
        # on_epoch runs once per epoch, so one epoch runs from the end of
        # one call to the start of the next.
        return UnitResult(epoch_seconds=[e - s for s, e in zip(starts, ends[1:])],
                          losses=losses)

    def heldout_unit(files):
        def run(pause=None):
            outputs = [_cluster_files(files, m, state["weights"], workdir) for m in modes]
            return UnitResult(outputs, files.session.speech_seconds)
        return Unit(files.session.file_id, run)

    files = [write_session(two_speaker(seed * 1000 + 500 + i, dim=DIM, file_id=f"heldout{i:02d}"),
                           workdir) for i in range(heldout)]
    warm = write_session(two_speaker(seed * 1000 + 999, dim=DIM, file_id="warmup"), workdir)

    def warm_up():
        gcn.train(training_batches(seed + 1)[:20], lr=0.5, epochs=2, seed=seed)
        for mode in modes:
            _cluster_files(warm, mode, load_committed_weights(), workdir)

    units = [Unit("train", train_unit, session=False)] + [heldout_unit(f) for f in files]
    return Plan(units, warm_up, modes)


WORKLOADS = {
    "long_meeting": long_meeting,
    "dense_raw": dense_raw,
    "short_batch": short_batch,
    "train_gcn": train_gcn,
}


# ---------------------------------------------------------------- checking

def check_output(out: Output) -> str | None:
    """Why a hypothesis is invalid, or None when it passes every check:
    it parses as RTTM, names its own file, has at most two speakers in
    every 10 ms frame and lies inside the session's VAD regions."""
    try:
        records = timeline.read_rttm(out.rttm)
    except ValueError as exc:
        return f"unparseable RTTM: {exc}"
    if not records:
        return "empty RTTM"
    if any(r.file_id != out.session.file_id for r in records):
        return "record with a foreign file id"
    frame = 0.01
    end = max(r.end for r in records)
    active = np.zeros(int(math.ceil(end / frame)) + 1, dtype=np.int64)
    for r in records:
        active[int(round(r.onset / frame)):int(round(r.end / frame))] += 1
    if active.max() > 2:
        return f"{int(active.max())} speakers in one frame"
    # Frames are attributed by their centres, so a turn may start or end
    # up to half a frame outside its VAD region.
    slack = frame / 2 + 1e-6
    regions = out.session.vad_regions
    for r in records:
        if not any(s - slack <= r.onset and r.end <= e + slack for s, e in regions):
            return f"turn {r.onset:.3f}-{r.end:.3f} outside the VAD regions"
    return None


def accuracy(outputs, modes) -> dict[str, dict[str, float]]:
    """Aggregate DER (collar 0) and speaker-count MSE per mode."""
    out = {}
    for mode in modes:
        chosen = [(o.session, timeline.read_rttm(o.rttm)) for o in outputs if o.mode == mode]
        ref = [r for s, _ in chosen for r in s.reference]
        hyp = [r for _, records in chosen for r in records]
        out[mode] = {
            "der_pct": scoring.der(ref, hyp).der_percent,
            "spk_count_mse": scoring.speaker_count_mse(
                [s.speaker_count for s, _ in chosen],
                [len({r.speaker for r in records}) for _, records in chosen]),
        }
    return out
