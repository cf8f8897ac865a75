#!/usr/bin/env python3
"""Train the tokenizer across vocabulary sizes, with and without the entropy
term, on the synthetic corpus; write the results as CSV and print the trend.

Each model is scored by its mean per-sequence reconstruction MSE and by the
distinct-token fraction and usage entropy over the whole corpus.  A bad flag
value exits 2 with one line on stderr before any training.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from motok import lfq, vae
from motok.fileio import write_csv
from motok.motion import MotionSequence
from motok.synth import make_corpus

COLUMNS = ["vocab_size", "final_mse", "utilization_fraction", "utilization_entropy",
           "final_mse_noentropy", "utilization_fraction_noentropy",
           "utilization_entropy_noentropy"]


def sweep_configs(ks: str, seed: int) -> list[vae.ToyVaeConfig]:
    try:
        sizes = [int(v) for v in ks.split(",") if v]
    except ValueError:
        raise ValueError(f"--ks must be a comma-separated integer list, got {ks!r}") from None
    if not sizes:
        raise ValueError("--ks is empty")
    return [vae.ToyVaeConfig(vocab_size=k, seed=seed) for k in sizes]


def corpus_quality(params: vae.ToyVaeParams, corpus) -> list[float]:
    """Mean per-sequence reconstruction MSE, then the distinct-token fraction and
    usage entropy over the whole corpus."""
    tokens = np.concatenate([vae.tokenize_frames(params, seq.frames) for seq in corpus])
    return [float(np.mean([vae.reconstruction_mse(params, seq.frames) for seq in corpus])),
            *lfq.codebook_utilization(tokens, params.codebook)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ks", default="64,512,8192", help="comma-separated vocab sizes")
    parser.add_argument("--out", default="vocab_sweep.csv")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        configs = sweep_configs(args.ks, args.seed)
        if not Path(args.out).parent.is_dir():
            raise ValueError(f"{args.out}: not found")
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None

    # the corpus as a .mseq round trip stores it: float32 frames
    corpus = [MotionSequence(seq.frames.astype(np.float32), fps=seq.fps)
              for seq in make_corpus(seed=args.seed)]
    rows = []
    for config in configs:
        params, _ = vae.train(config, corpus)
        plain, _ = vae.train(dataclasses.replace(config, lambda_entropy=0.0), corpus)
        rows.append(dict(zip(COLUMNS, [config.vocab_size, *corpus_quality(params, corpus),
                                       *corpus_quality(plain, corpus)])))
    write_csv(args.out, rows)

    print(f"{'K':>6}  {'final_mse':>12}  {'util_entropy':>12}  {'util_entropy (no ent. loss)':>27}")
    for k, mse, _, entropy, _, _, plain_entropy in (row.values() for row in rows):
        print(f"{k:>6}  {mse:>12.6f}  {entropy:>12.4f}  {plain_entropy:>27.4f}")
    mses = [row["final_mse"] for row in rows]
    print("reconstruction MSE non-increasing in K:",
          all(a >= b for a, b in zip(mses, mses[1:])))


if __name__ == "__main__":
    main()
