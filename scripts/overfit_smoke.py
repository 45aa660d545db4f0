"""Overfit smoke run: 5 synthetic videos, supervised, l2 similarity.

Generates the corpus with `divsum synth`, trains with `divsum train
--history`, and counts the epochs until the mean classification loss in
that history crosses 0.1. The history CSV (overfit_history.csv by
default) has the columns of every `divsum train` history:
epoch,total,cls,recon,repel. A healthy build crosses within ~15 epochs
at lr 3e-3.

Usage: python3 scripts/overfit_smoke.py [--epochs N] [--lr LR] [--out CSV]
"""

import argparse
import csv
import tempfile
import time
from pathlib import Path

from divsum.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="overfit_history.csv")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        rc = cli_main(["synth", "--out", str(corpus), "--videos", "5", "--frames", "40",
                       "--dim", "16", "--shots", "8", "--noise", "0.05",
                       "--seed", str(args.seed), "--budget-ratio", "0.15"])
        if rc != 0:
            raise SystemExit(rc)
        t0 = time.time()
        rc = cli_main(["train", "--data", str(corpus), "--out", str(Path(tmp) / "run.ckpt"),
                       "--history", args.out, "--lr", str(args.lr),
                       "--epochs", str(args.epochs), "--sim", "l2", "--radius", "2",
                       "--seed", str(args.seed)])
        elapsed = time.time() - t0
        if rc != 0:
            raise SystemExit(rc)

    with open(args.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cls = [float(row["cls"]) for row in rows]
    crossed = next((i for i, v in enumerate(cls) if v < 0.1), None)
    print(f"{len(rows)} epochs in {elapsed:.1f}s; "
          f"final cls {cls[-1]:.5f}, total {float(rows[-1]['total']):.5f}")
    if crossed is None:
        print("classification loss never crossed 0.1 -- investigate")
        raise SystemExit(1)
    print(f"cls < 0.1 first reached at epoch {crossed}; history in {args.out}")


if __name__ == "__main__":
    main()
