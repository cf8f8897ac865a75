#!/usr/bin/env python3
"""Write the synthetic motion corpus used by the tokenizer experiments."""

import argparse
from pathlib import Path

from motok.fileio import write_mseq
from motok.motion import MAX_FRAMES
from motok.synth import make_corpus
from motok.vae import SEGMENT_LEN


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/synth", help="output directory")
    parser.add_argument("--sequences", type=int, default=16)
    parser.add_argument("--frames", type=int, default=96)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not 1 <= args.frames <= MAX_FRAMES or args.frames % SEGMENT_LEN:
        parser.error(f"--frames must be a multiple of {SEGMENT_LEN} in [1, {MAX_FRAMES}], "
                     f"got {args.frames}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = make_corpus(args.sequences, args.frames, seed=args.seed)
    for i, seq in enumerate(corpus):
        write_mseq(out_dir / f"synth{i:03d}.mseq", seq)
    print(f"wrote {len(corpus)} sequences ({args.frames} frames each) to {out_dir}")


if __name__ == "__main__":
    main()
