#!/usr/bin/env python3
"""Run the full check suite over a seeded random corpus.

Writes ``corpus.csv`` (one row per complex: verdicts, defect sum, lemma
status) plus a short summary to stdout.  Deterministic for fixed seed
and size; parallelism via BICOMPLEX_LAB_THREADS never changes output.

The flags are checked as the ``corpus`` command checks them: a negative
``--n-corpus`` or an unknown or empty ``--kinds`` list is a usage error
(exit 1), and empty entries in ``--kinds`` are dropped.  ``--n`` is a
short alias of ``--n-corpus``.  An ``--out`` that cannot be a directory
(say, an existing regular file) is the same ``cannot write`` usage error,
raised before any complex is computed.

Usage: python3 scripts/run_corpus.py [--seed 0] [--n-corpus 500]
       [--out results] [--kinds dot,square,zigzag]
"""

import argparse
import csv
import io
import sys
from collections import Counter
from pathlib import Path

from bicomplex_lab.clio import (EXIT_THEOREM, EXIT_USAGE, UsageError,
                                _deliver, parse_args, run_corpus)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-corpus", "--n", type=int, default=500)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--kinds", default="dot,square,zigzag")
    args = parser.parse_args(argv)

    try:
        config = parse_args(["corpus", "--seed", str(args.seed),
                             "--n-corpus", str(args.n_corpus),
                             "--kinds", args.kinds])
        _deliver({}, args.out)  # the directory, before any work
        csv_text, failure = run_corpus(config)
        _deliver({"corpus.csv": csv_text}, args.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_file = args.out / "corpus.csv"

    rows = list(csv.DictReader(io.StringIO(csv_text)))
    lemma_true = sum(1 for r in rows if r["lemmaHolds"] == "True")
    dims = Counter(int(r["totalDim"]) for r in rows)
    print(f"{len(rows)} complexes (seeds {args.seed}.."
          f"{args.seed + args.n_corpus - 1}) -> {out_file}")
    if rows:
        print(f"total dim: min {min(dims)}, max {max(dims)}")
        print(f"lemma holds on {lemma_true}/{len(rows)}")
    print("theorem-as-test failures:", "YES" if failure else "none")
    return EXIT_THEOREM if failure else 0


if __name__ == "__main__":
    sys.exit(main())
