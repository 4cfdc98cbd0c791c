#!/usr/bin/env python3
"""Write a synthetic diarization session to disk in the toolkit's file formats.

Produces <name>.emb (embeddings + timestamps), <name>.vad (speech regions),
<name>.mask (oracle overlap mask), <name>.spk (per-segment speaker ids, two
ids on overlap segments) and <name>_ref.rttm (reference turns), ready for
`cdgcn cluster`, `cdgcn train-gcn` and `cdgcn score`.
"""

import argparse
import sys
from pathlib import Path

from cdgcn.graphs import write_embeddings
from cdgcn.osd import write_overlap_mask
from cdgcn.pipeline import write_vad_regions
from cdgcn.synthetic import make_overlap_session, make_session
from cdgcn.timeline import write_rttm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--name", default="session")
    parser.add_argument("--speakers", type=int, default=4)
    parser.add_argument("--segments-per-speaker", type=int, default=50)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--noise", type=float, default=0.12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--overlap", action="store_true",
                        help="two-speaker session with an overlapped region")
    parser.add_argument("--mean-cosine", type=float,
                        help="cosine between the two speaker means (2-speaker sessions)")
    args = parser.parse_args()

    try:
        if args.overlap:
            session = make_overlap_session(dim=args.dim, noise=args.noise,
                                           seed=args.seed, file_id=args.name)
        else:
            session = make_session(num_speakers=args.speakers,
                                   segments_per_speaker=args.segments_per_speaker,
                                   dim=args.dim, noise=args.noise, seed=args.seed,
                                   mean_cosine=args.mean_cosine, file_id=args.name)
    except ValueError as exc:
        sys.exit(f"make_synthetic.py: {exc}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_embeddings(out / f"{args.name}.emb", session.embeddings)
    write_vad_regions(out / f"{args.name}.vad", session.vad_regions)
    write_overlap_mask(out / f"{args.name}.mask", session.overlap_mask)
    (out / f"{args.name}_ref.rttm").write_text(write_rttm(session.reference))
    (out / f"{args.name}.spk").write_text("".join(
        f"{spk}\n" if spk == second else f"{spk} {second}\n"
        for spk, second in session.speakers.tolist()))
    print(f"wrote {session.embeddings.count} segments, "
          f"{session.speaker_count} speakers under {out}/{args.name}.*")


if __name__ == "__main__":
    main()
