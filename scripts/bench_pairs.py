#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written to BENCH_<tag>.json.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T` once in
each of two checkouts per pair -- the base (for example the parent commit,
exported with `git archive`) and the head (the change) -- on the same seed,
with the order alternating from pair to pair (base first on even pairs) so
that a drift of the machine's load falls on both sides alike.  Seeds are
--seed, --seed + 1, ...

After every pair it rewrites BENCH_<tag>.json in the head checkout: every
pair's end-to-end metrics and, per metric, the median and interquartile
range of each side and the number of pairs the head won, with the direction
of "better" taken from the head's BENCHMARK.json.  Running it again with
another --workload adds that workload to the same file and keeps the
others.  Each workload records its seeds, its command and the CPU count,
Python version and platform it ran on.

Usage:
    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload check-small --pairs 5 --seed 1 --tag oracle
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one perfbench run: correct, attempted, failed, metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode == 2 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {run.returncode}: {run.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and IQR, and the pairs the head won."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = {"higher": 1, "lower": -1}[better[name]]
        out[name] = {
            "better": better[name],
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "base_iqr": iqr(base),
            "head_iqr": iqr(head),
            "head_won": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout measured as before")
    parser.add_argument("--head", type=Path, required=True, help="checkout measured as after")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    out = args.head / f"BENCH_{args.tag}.json"

    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = json.loads(out.read_text()) if out.exists() else {"tag": args.tag, "workloads": {}}
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    command = (f"python3 perfbench/run.py --workload {args.workload} --seed S"
               f" --seconds {args.seconds} --trace 0")
    pairs: list[dict] = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        doc["workloads"][args.workload] = {
            "environment": environment,
            "command": command,
            "seconds": args.seconds,
            "seeds": [p["seed"] for p in pairs],
            "pairs": pairs,
            "summary": summarize(pairs, better),
        }
        out.write_text(json.dumps(doc, indent=1) + "\n")
        medians = {k: (m["base_median"], m["head_median"])
                   for k, m in doc["workloads"][args.workload]["summary"].items()}
        print(f"pair {i + 1}/{args.pairs} seed {seed}: base/head medians {medians}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
