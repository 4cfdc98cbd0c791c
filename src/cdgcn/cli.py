"""Command-line interface: cluster embeddings, train the linkage GCN, score RTTMs."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .gcn import GcnWeights, load_weights, save_weights, train
from .graphs import read_embeddings
from .osd import read_overlap_mask
from .pipeline import MODES, PipelineConfig, read_vad_regions, run_pipeline
from .scoring import der, rttm_speaker_counts, speaker_count_mse
from .synthetic import labelled_subgraphs, rotate_batches
from .timeline import check_rttm_field, read_rttm, write_rttm


def _read_speakers(path, expected: int) -> np.ndarray:
    """(N, 2) speaker ids from one line of 1 or 2 integer ids per segment;
    a segment with one speaker repeats its id."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            ids = np.unique(np.array([int(tok) for tok in line.split()], dtype=np.int64))
        except ValueError:
            raise ValueError(f"{path} line {lineno}: speaker ids must be integers") from None
        except OverflowError:
            raise ValueError(f"{path} line {lineno}: speaker ids must fit in 64 bits") from None
        if not 1 <= len(ids) <= 2:
            raise ValueError(f"{path} line {lineno}: expected 1 or 2 speaker ids")
        rows.append((ids[0], ids[-1]))
    if len(rows) != expected:
        raise ValueError(f"{path}: {len(rows)} label lines for {expected} segments")
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def cmd_cluster(args) -> int:
    file_id = Path(args.embeddings).stem if args.file_id is None else args.file_id
    try:
        check_rttm_field("file id", file_id)
    except ValueError as exc:
        raise ValueError(f"{exc}; name the file with --file-id") from None
    emb = read_embeddings(args.embeddings)
    weights = load_weights(Path(args.weights).read_bytes()) if args.weights else None
    mask = read_overlap_mask(args.mask) if args.mask else None
    vad = read_vad_regions(args.vad) if args.vad else None
    config = PipelineConfig(knn_k=args.knn_k, gamma=args.gamma, seed=args.seed)
    _, records = run_pipeline(emb, args.mode, weights=weights, mask=mask,
                              config=config, vad_regions=vad, file_id=file_id)
    Path(args.out).write_text(write_rttm(records))
    speakers = {r.speaker for r in records}
    print(f"{file_id}: {len(records)} records, {len(speakers)} speakers -> {args.out}")
    return 0


def cmd_train_gcn(args) -> int:
    data_dir = Path(args.data)
    emb_files = sorted(data_dir.glob("*.emb"))
    if not emb_files:
        raise ValueError(f"no .emb files in {data_dir}")
    batches = []
    for emb_path in emb_files:
        labels_path = emb_path.with_suffix(".spk")
        if not labels_path.exists():
            raise ValueError(f"missing labels file {labels_path}")
        emb = read_embeddings(emb_path)
        batches.append(labelled_subgraphs(emb, _read_speakers(labels_path, emb.count), args.knn_k))
    batches = rotate_batches(batches, args.rotations, seed=args.seed)

    feature_dim = batches[0][0].features.shape[-1]
    init = GcnWeights.glorot(feature_dim, layers=args.layers, seed=args.seed)
    losses = []
    weights = train(batches, init=init, lr=args.lr, epochs=args.epochs, seed=args.seed,
                    on_epoch=lambda _, loss: losses.append(loss))
    Path(args.out).write_bytes(save_weights(weights))
    count = sum(sub.members.shape[0] for sub, _ in batches)
    loss = f"loss {losses[0]:.4f} -> {losses[-1]:.4f}" if losses else "initial weights"
    print(f"trained on {count} sub-graphs from {len(emb_files)} sessions: {loss} -> {args.out}")
    return 0


def cmd_score(args) -> int:
    ref = read_rttm(Path(args.ref).read_text())
    hyp = read_rttm(Path(args.hyp).read_text())
    breakdown = der(ref, hyp, collar=args.collar)
    line = str(breakdown)
    if args.counts:
        ref_counts = rttm_speaker_counts(ref)
        hyp_counts = rttm_speaker_counts(hyp)
        files = sorted(set(ref_counts) | set(hyp_counts))
        mse = speaker_count_mse([ref_counts.get(f, 0) for f in files],
                                [hyp_counts.get(f, 0) for f in files])
        line += f" MSE={mse:.2f}"
    print(line)
    return 0


@functools.cache   # built once: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdgcn",
                                     description="Graph-based speaker clustering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster embeddings into an RTTM file")
    cluster.add_argument("--embeddings", required=True, help="EMB1 embedding file")
    cluster.add_argument("--mode", required=True, choices=MODES)
    cluster.add_argument("--weights", help="GCN weights file (GCN modes)")
    cluster.add_argument("--mask", help="overlap mask file (cdgcn mode)")
    cluster.add_argument("--vad", help="VAD regions file, '<start> <end>' per line")
    cluster.add_argument("--knn-k", type=int, default=300)
    cluster.add_argument("--gamma", type=float, default=0.6)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--file-id", help="file id for RTTM records (default: embeddings stem)")
    cluster.add_argument("--out", required=True, help="output RTTM path")
    cluster.set_defaults(func=cmd_cluster)

    train_p = sub.add_parser("train-gcn", help="train linkage weights on labeled sessions")
    train_p.add_argument("--data", required=True,
                         help="directory of paired <name>.emb / <name>.spk files")
    train_p.add_argument("--out", required=True, help="output weights path")
    train_p.add_argument("--lr", type=float, default=0.01)
    train_p.add_argument("--epochs", type=int, default=100)
    train_p.add_argument("--seed", type=int, default=0)
    train_p.add_argument("--knn-k", type=int, default=10, help="sub-graph neighbor count")
    train_p.add_argument("--layers", type=int, default=4)
    train_p.add_argument("--rotations", type=int, default=0,
                         help="random-rotation copies of the training sub-graphs")
    train_p.set_defaults(func=cmd_train_gcn)

    score = sub.add_parser("score", help="score a hypothesis RTTM against a reference")
    score.add_argument("--ref", required=True)
    score.add_argument("--hyp", required=True)
    score.add_argument("--collar", type=float, default=0.0)
    score.add_argument("--counts", action="store_true",
                       help="also report speaker-count MSE across files")
    score.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"cdgcn: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
