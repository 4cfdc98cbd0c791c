#!/usr/bin/env python3
"""Regenerate perfbench/weights.gcnw, the fixed linkage weights that the
inference workloads (long_meeting, short_batch) load.

The committed file was produced from the repository root with

    python3 perfbench/make_weights.py

which runs the train_gcn workload's training at seed 0 for 150 epochs.
Inference results therefore do not depend on the numerics of a later
training change.
"""

import os
import sys
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from cdgcn.gcn import save_weights  # noqa: E402

SEED = 0
EPOCHS = 150


def main():
    losses = []
    weights = workloads.train_weights(SEED, EPOCHS, on_epoch=lambda _, loss: losses.append(loss))
    workloads.WEIGHTS.write_bytes(save_weights(weights))
    print(f"loss {losses[0]:.4f} -> {losses[-1]:.4f} -> {workloads.WEIGHTS}")


if __name__ == "__main__":
    main()
