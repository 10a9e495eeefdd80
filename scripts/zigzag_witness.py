#!/usr/bin/env python3
"""Why the Aeppli upper bound cannot be purely topological.

For each m, synthesize the self-mirror staircase zigzag with 2m+1 dots
running from (0, m) down to (m, 0).  Its m+1 sources all sit in total
degree m, so h^m_A = m+1, while the whole zigzag carries a single de
Rham class (b_m = 1): the ratio h^m_A / b_m grows without bound, so no
fixed multiple of Betti numbers can dominate Aeppli numbers.  The
Dolbeault-based bound of the checkers does hold - with zero slack, since
only the (0, m) dot avoids vertical arrows (h^m_dol = 1).

Usage: python3 scripts/zigzag_witness.py [--max-m 6]
"""

import argparse
import sys

from bicomplex_lab.bicomplex import Bicomplex
from bicomplex_lab.checkers import upper_bound_check
from bicomplex_lab.cohomology import aeppli, de_rham, dolbeault
from bicomplex_lab.zigzag import Zigzag, standard_conjugation, synthesize


def staircase(m):
    dots = []
    p, q = 0, m
    dots.append((p, q))
    for _ in range(m):
        p += 1
        dots.append((p, q))
        q -= 1
        dots.append((p, q))
    return Zigzag(tuple(dots))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=6)
    args = parser.parse_args(argv)

    print(f"{'m':>3} {'dots':>5} {'h^m_A':>6} {'b_m':>4} {'ratio':>6} "
          f"{'h^m_dol':>8} {'bound':>6} {'verdict':>14}")
    for m in range(1, args.max_m + 1):
        part = staircase(m)
        plain = synthesize([part])
        k = Bicomplex(plain.spaces(),
                      plain.del_blocks(), plain.delbar_blocks(), n=m,
                      label=f"staircase-{m}",
                      conj=standard_conjugation([part]))
        h_a = sum(v for (p, q), v in aeppli(k).dims.items() if p + q == m)
        b_m = de_rham(k).dims.get(m, 0)
        dol = dolbeault(k).dims
        h_dol = sum(v for (p, q), v in dol.items() if p + q == m)
        h_dol_next = sum(v for (p, q), v in dol.items() if p + q == m + 1)
        cap = min(m + 1, 2 * m - m + 1)
        bound = cap * (h_dol + h_dol_next)
        rep = upper_bound_check(k)
        print(f"{m:>3} {2 * m + 1:>5} {h_a:>6} {b_m:>4} "
              f"{h_a / b_m:>6.1f} {h_dol:>8} {bound:>6} {rep.verdict:>14}")
        assert h_a == m + 1 and b_m == 1 and bound == h_a
        assert rep.verdict == "holds"
    print("\nh^m_A = m+1 with b_m = 1 throughout: no multiple of the "
          "Betti numbers bounds the Aeppli numbers.")
    print("The Dolbeault-weighted bound holds with zero slack at "
          "degree m on every staircase.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
