#!/usr/bin/env python3
"""Guaranteed trail lengths in small complete graphs.

For each n up to --max-n, finds the minimum longest-trail length over
every assignment of the weights 1..n(n-1)/2 to the edges of K_n, i.e.
the trail length guaranteed to exist no matter how the weights fall.
The search folds one representative per relabeling orbit either way;
--reduce changes only the examined column, from q! to q!/n!.

Expected at desk scale: 3, 3, 5 for n = 3, 4, 5 -- the guarantee exceeds
the generic n-1 exactly at n in {3, 5}.

Usage:
    python scripts/run_extremal_search.py [--max-n 5] [--reduce]
"""

from __future__ import annotations

import argparse
import sys

from monotrails import Exhaustive, complete_structure, min_over_weightings
from monotrails.extremal import EXHAUSTIVE_MAX_EDGES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, help="largest complete graph, from 3")
    parser.add_argument("--reduce", action="store_true", help="count one weighting per relabeling orbit")
    args = parser.parse_args(argv)
    if args.max_n < 3:
        parser.error(f"--max-n must be >= 3 (the table starts at K3), got {args.max_n}")
    q = args.max_n * (args.max_n - 1) // 2
    if q > EXHAUSTIVE_MAX_EDGES:
        parser.error(f"K{args.max_n} has {q} edges; the exhaustive guard is {EXHAUSTIVE_MAX_EDGES}")
    print(f"{'n':>2} {'q':>3} {'examined':>9} {'f(n)':>5} {'n-1':>4} {'elapsed':>9}  witness")
    for n in range(3, args.max_n + 1):
        report = min_over_weightings(
            complete_structure(n), mode=Exhaustive(), reduce_symmetry=args.reduce
        )
        marker = " *" if report.minimum > n - 1 else ""
        print(
            f"{n:>2} {report.structure.q:>3} {report.examined:>9} {report.minimum:>5}"
            f" {n - 1:>4} {report.elapsed_s:>8.2f}s  {list(report.witness)}{marker}"
        )
    print("\n(*) guarantee strictly above the generic n-1 bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
