#!/usr/bin/env python3
"""Full report for every shipped preset complex.

For each preset: the five cohomology tables (text), the decomposition
summary, and all check verdicts.  With --out, also writes per-preset
table/check/diagram files.

Usage: python3 scripts/preset_report.py [--out reports]
"""

import argparse
import sys
from pathlib import Path

from bicomplex_lab.checkers import run_all_checks
from bicomplex_lab.clio import PRESETS, emit_tables, render_diagram
from bicomplex_lab.zigzag import decompose


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    for name in sorted(PRESETS):
        k = PRESETS[name]()
        d = decompose(k)
        reports = run_all_checks(k)

        print("=" * 68)
        print(f"preset {name}: label={k.label}, n={k.n}, "
              f"total dim {k.total_dim}")
        print(emit_tables(k, "text")["tables.txt"], end="")
        kinds = {"squares": 0, "zigzags": 0, "dots": 0}
        for part in d.parts:
            if part.kind == "square":
                kinds["squares"] += 1
            elif part.is_dot:
                kinds["dots"] += 1
            else:
                kinds["zigzags"] += 1
        print(f"decomposition: {kinds['squares']} squares, "
              f"{kinds['zigzags']} zigzags, {kinds['dots']} dots "
              f"({len(d.parts)} parts, verified)")
        for rep in reports:
            print(f"  {rep.check_name:30s} {rep.verdict}")

        if args.out is not None:
            out = args.out / name
            out.mkdir(parents=True, exist_ok=True)
            for fname, text in emit_tables(k, "csv").items():
                (out / fname).write_text(text)
            (out / "diagram.dot").write_text(
                render_diagram(d, "dot", label=k.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
