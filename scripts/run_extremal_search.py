#!/usr/bin/env python3
"""Guaranteed trail lengths in small complete graphs.

For each n up to --max-n, searches every assignment of the weights
1..n(n-1)/2 to the edges of K_n (or one representative per relabeling
orbit with --reduce) and reports the minimum longest-trail length, i.e.
the trail length guaranteed to exist no matter how the weights fall.

Expected at desk scale: 3, 3, 5 for n = 3, 4, 5 -- the guarantee exceeds
the generic n-1 exactly at n in {3, 5}.

Usage:
    python scripts/run_extremal_search.py [--max-n 5] [--jobs 4] [--reduce]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from monotrails import Exhaustive, complete_structure, min_over_weightings


@dataclass
class RunConfig:
    max_n: int = 5
    jobs: int = 1
    reduce_symmetry: bool = False


def parse_config(argv=None) -> RunConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, help="largest complete graph (3 to 5)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--reduce", action="store_true", help="quotient by relabeling symmetry")
    args = parser.parse_args(argv)
    if args.max_n > 5:
        parser.error("the exhaustive guard caps complete graphs at n=5 (q=10)")
    if args.max_n < 3:
        parser.error(f"--max-n must be >= 3 (the table starts at K3), got {args.max_n}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    return RunConfig(max_n=args.max_n, jobs=args.jobs, reduce_symmetry=args.reduce)


def main(argv=None) -> int:
    cfg = parse_config(argv)
    print(f"{'n':>2} {'q':>3} {'examined':>9} {'f(n)':>5} {'n-1':>4} {'elapsed':>9}  witness")
    for n in range(3, cfg.max_n + 1):
        report = min_over_weightings(
            complete_structure(n),
            mode=Exhaustive(),
            reduce_symmetry=cfg.reduce_symmetry,
            jobs=cfg.jobs,
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
