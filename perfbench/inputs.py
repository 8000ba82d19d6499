"""Seeded benchmark inputs, made with the standard library only.

The generator never calls into monotrails (no `random_graph`, no `gen`):
the package's own seeded stream may change, and the benchmark's inputs must
not change with it.  The same seed always gives byte-identical files; each
input is recorded with its n, q, weight regime and a SHA-256 digest.

Every graph keeps `keys`, one integer per edge whose ascending order is the
ascending weight order.  In the strict regime the key is the weight itself;
in the relaxed regime the weight is key/1000 written as a decimal, so the
reference fold in verify.py sorts integers and never needs `Fraction`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# One file per shape for trail-large: (name, n, q, regime).
TRAIL_SHAPES = (
    ("sparse", 3000, 100_000, "strict"),
    ("dense", 450, 100_000, "strict"),  # 99% of all pairs: long witnesses
    ("relaxed", 1000, 50_000, "relaxed"),  # decimal weights: the Fraction path
)
TRAIL_SHAPES_SMOKE = (
    ("sparse", 300, 2_000, "strict"),
    ("dense", 70, 2_000, "strict"),
    ("relaxed", 100, 2_000, "relaxed"),
)
CHECK_GRAPHS = 4000
CHECK_GRAPHS_SMOKE = 64
CHECK_MAX_N = 9  # monotrails.cli.ORACLE_MAX_N: check runs the oracle up to here

# Extremal searches: (name, n, how, sample count).
EXTREMAL_SEARCHES = (
    ("exhaustive", 5, "exhaustive", None),
    ("reduced", 5, "reduce", None),
    ("sampled", 7, "sample", 100_000),
)
EXTREMAL_SEARCHES_SMOKE = (
    ("exhaustive", 4, "exhaustive", None),
    ("reduced", 4, "reduce", None),
    ("sampled", 5, "sample", 2_000),
)


@dataclass
class GraphInput:
    name: str
    n: int
    edges: list[tuple[int, int]]  # 0-based, u < v, in file order
    keys: list[int]  # ascending key order == ascending weight order
    regime: str  # "strict" or "relaxed"
    text: str

    @property
    def q(self) -> int:
        return len(self.edges)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def weight(self, i: int) -> int | Fraction:
        """Exact weight of edge i, as the program parses it."""
        k = self.keys[i]
        if self.regime == "strict":
            return k
        w = Fraction(k, 1000)
        return int(w) if w.denominator == 1 else w

    def record(self) -> dict:
        return {"name": self.name, "n": self.n, "q": self.q, "regime": self.regime,
                "sha256": self.digest}


def _weight_text(key: int, regime: str) -> str:
    return str(key) if regime == "strict" else f"{key // 1000}.{key % 1000:03d}"


def make_graph(name: str, n: int, q: int, regime: str, rng: random.Random) -> GraphInput:
    """q distinct uniform pairs of n vertices with distinct random weights."""
    total = n * (n - 1) // 2
    if q > total:
        raise ValueError(f"{name}: {q} edges requested, K_{n} has {total}")
    row_start = [u * (2 * n - u - 1) // 2 for u in range(n)]
    edges = []
    for index in sorted(rng.sample(range(total), q)):
        u = bisect_right(row_start, index) - 1
        edges.append((u, u + 1 + index - row_start[u]))
    if regime == "strict":
        keys = list(range(1, q + 1))
        rng.shuffle(keys)
    else:
        keys = rng.sample(range(1, 10**9), q)
    lines = [f"c perfbench {name}", f"p {n} {q}"]
    lines += [f"e {u + 1} {v + 1} {_weight_text(k, regime)}" for (u, v), k in zip(edges, keys)]
    return GraphInput(name, n, edges, keys, regime, "\n".join(lines) + "\n")


def trail_inputs(seed: int, smoke: bool = False) -> list[GraphInput]:
    rng = random.Random(f"trail-large/{seed}")
    shapes = TRAIL_SHAPES_SMOKE if smoke else TRAIL_SHAPES
    return [make_graph(name, n, q, regime, rng) for name, n, q, regime in shapes]


def check_inputs(seed: int, smoke: bool = False) -> list[GraphInput]:
    """n uniform in 2..9 and, given n, q uniform in 0..n(n-1)/2, strict weights.

    The (n, q) mix is stratified: every n gets the same number of graphs and
    its q values are spread evenly over the range, so the mix is the same for
    every seed.  The oracle's cost grows exponentially with q, so drawing
    (n, q) at random made the work per round vary by half between seeds.  The
    seed still draws each graph's edges and weights, and the order.
    """
    rng = random.Random(f"check-small/{seed}")
    per_n = (CHECK_GRAPHS_SMOKE if smoke else CHECK_GRAPHS) // (CHECK_MAX_N - 1)
    sizes = []
    for n in range(2, CHECK_MAX_N + 1):
        top = n * (n - 1) // 2
        sizes += [(n, j * (top + 1) // per_n) for j in range(per_n)]
    rng.shuffle(sizes)
    return [make_graph(f"g{i}", n, q, "strict", rng) for i, (n, q) in enumerate(sizes)]


def extremal_inputs(seed: int, smoke: bool = False) -> list[dict]:
    """The searches; only the sampled one depends on the seed."""
    out = []
    for name, n, how, count in EXTREMAL_SEARCHES_SMOKE if smoke else EXTREMAL_SEARCHES:
        q = n * (n - 1) // 2
        spec = {"name": name, "n": n, "q": q, "how": how}
        if count is not None:
            spec.update(count=count, seed=seed, examined=count)
        else:  # every order of the q edges, or one per relabeling orbit of n! orders
            orbit = math.factorial(n) if how == "reduce" else 1
            spec["examined"] = math.factorial(q) // orbit
        spec["sha256"] = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
        out.append(spec)
    return out


def write_inputs(workload: str, seed: int, smoke: bool, rundir: Path):
    """Generate and write one workload's inputs; returns (inputs, manifest).

    trail-large writes one edge-list file per shape; check-small writes all
    graph texts as one JSON list; extremal writes only the search list.
    """
    if workload == "trail-large":
        inputs = trail_inputs(seed, smoke)
        for g in inputs:
            (rundir / f"{g.name}.txt").write_text(g.text)
        manifest = [g.record() for g in inputs]
    elif workload == "check-small":
        inputs = check_inputs(seed, smoke)
        (rundir / "graphs.json").write_text(json.dumps([g.text for g in inputs]))
        manifest = [g.record() for g in inputs]
    else:
        inputs = extremal_inputs(seed, smoke)
        manifest = inputs
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    return inputs, manifest
