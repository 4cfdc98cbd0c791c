#!/usr/bin/env python3
"""Component ladder on synthetic data: raw graph -> KNN -> GCN -> overlap labels.

Trains linkage weights on small synthetic sessions, then runs every pipeline
mode on a held-out 4-speaker session and on a 2-speaker overlapped session,
reporting DER and the speaker-count error of each rung.
"""

import argparse
import time

from cdgcn.gcn import GcnWeights, train
from cdgcn.pipeline import MODES, PipelineConfig, run_pipeline
from cdgcn.scoring import der, speaker_count_mse
from cdgcn.synthetic import linkage_training_batches, make_overlap_session, make_session


def train_weights(dim, seed, lr, epochs):
    batches = []
    for offset in range(2):
        session = make_session(num_speakers=4, segments_per_speaker=15, dim=dim,
                               seed=seed + offset)
        batches += linkage_training_batches(session, k=40)
    for offset, cosine in ((2, 0.2), (3, 0.35)):
        session = make_session(num_speakers=2, segments_per_speaker=15, dim=dim,
                               seed=seed + offset, mean_cosine=cosine)
        batches += linkage_training_batches(session, k=25)
    for offset in (4, 5):
        overlap = make_overlap_session(dim=dim, seed=seed + offset)
        batches += linkage_training_batches(overlap, k=45)
    losses = []
    weights = train(batches, init=GcnWeights.glorot(dim, seed=seed), lr=lr,
                    epochs=epochs, on_epoch=lambda _, loss: losses.append(loss))
    count = sum(sub.members.shape[0] for sub, _ in batches)
    print(f"trained on {count} sub-graphs: "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    return weights


def evaluate(session, weights, knn_k, gamma, seed):
    rows = []
    for mode in MODES:
        config = PipelineConfig(knn_k=knn_k, gamma=gamma, seed=seed)
        started = time.perf_counter()
        _, records = run_pipeline(session.embeddings, mode, weights=weights,
                                  mask=session.overlap_mask, config=config,
                                  vad_regions=session.vad_regions,
                                  file_id=session.file_id)
        elapsed = time.perf_counter() - started
        breakdown = der(session.reference, records)
        speakers = len({r.speaker for r in records})
        mse = speaker_count_mse([session.speaker_count], [speakers])
        rows.append((mode, speakers, breakdown.der_percent, mse, elapsed))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--knn-k", type=int, default=45)
    parser.add_argument("--gamma", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lr", type=float, default=0.5)
    parser.add_argument("--epochs", type=int, default=150)
    args = parser.parse_args()

    weights = train_weights(args.dim, seed=args.seed + 200, lr=args.lr,
                            epochs=args.epochs)
    sessions = [
        make_session(num_speakers=4, segments_per_speaker=50, dim=args.dim,
                     seed=args.seed + 101, file_id="four-speakers"),
        make_overlap_session(dim=args.dim, seed=args.seed + 301,
                             file_id="two-speakers-overlapped"),
    ]
    for session in sessions:
        print(f"\n{session.file_id}: {session.embeddings.count} segments, "
              f"{session.speaker_count} true speakers")
        print(f"  {'mode':14s} {'spk':>3s} {'DER%':>7s} {'MSE':>5s} {'sec':>6s}")
        for mode, speakers, der_pct, mse, elapsed in evaluate(
                session, weights, args.knn_k, args.gamma, args.seed):
            print(f"  {mode:14s} {speakers:3d} {der_pct:7.2f} {mse:5.2f} {elapsed:6.2f}")


if __name__ == "__main__":
    main()
