"""Minimum guaranteed trail length over all weightings of a fixed structure.

For a structure (vertex count plus edge set) the search evaluates the
longest-decreasing-trail length under every assignment of the weights
1..q to the edges (or a seeded random sample of assignments) and reports
the minimum together with a witness weighting.  The witness is the
lexicographically smallest weight vector, in canonical edge order, that
achieves the minimum, which makes the result independent of how the
permutation space is partitioned across workers.

Exhaustive mode enumerates processing orders rather than weight vectors
(the two are inverse permutations of each other) because the label update
consumes edges in ascending weight order anyway; a weight vector is only
materialized when its value ties or beats the incumbent minimum.

Symmetry reduction (complete graphs, n >= 3): relabeling vertices never
changes trail lengths, and no nontrivial relabeling fixes a
distinct-weight assignment, so the weightings fall into orbits of size
exactly n!.  One canonical weighting per orbit is enumerated directly by
pinning weight 1 onto edge (v1,v2), orienting that edge so v1's
second-smallest incident weight is the smaller one, and sorting the
remaining vertices by their weight to v1:

    w(v1,v2) = 1,   w(v1,v3) < w(v1,v4) < ... ,   w(v1,v3) < min_x w(v2,x)

which cuts the q! scan down to exactly q!/n! evaluated weightings.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import ExhaustiveTooLargeError, InvalidStructureError
from .graphs import EdgeKey, WeightedGraph
from .labeling import Order, final_label_lengths, longest_ordered_trail

EXHAUSTIVE_MAX_EDGES = 10  # 10! = 3,628,800 weightings; minutes, not hours


@dataclass(frozen=True)
class Structure:
    """Bare edge structure searched over: no weights attached."""

    n: int
    edges: tuple[EdgeKey, ...]

    @property
    def q(self) -> int:
        return len(self.edges)

    @property
    def is_complete(self) -> bool:
        return set(self.edges) == set(combinations(range(self.n), 2))


def complete_structure(n: int) -> Structure:
    if n < 1:
        raise InvalidStructureError(f"vertex count must be >= 1, got {n}")
    return Structure(n=n, edges=tuple(combinations(range(n), 2)))


def structure_of(g: WeightedGraph) -> Structure:
    return Structure(n=g.n, edges=tuple(sorted(g.edges)))


def _check_structure(s: Structure) -> None:
    if s.n < 1:
        raise InvalidStructureError(f"vertex count must be >= 1, got {s.n}")
    seen = set()
    for a, b in s.edges:
        if a >= b:
            raise InvalidStructureError(f"edge ({a + 1},{b + 1}) is not canonical (min,max)")
        if not (0 <= a < s.n and 0 <= b < s.n):
            raise InvalidStructureError(f"edge ({a + 1},{b + 1}) out of range for n={s.n}")
        if (a, b) in seen:
            raise InvalidStructureError(f"edge ({a + 1},{b + 1}) repeated")
        seen.add((a, b))


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sampled:
    count: int
    seed: int


@dataclass
class ExtremalReport:
    structure: Structure
    mode: Exhaustive | Sampled
    examined: int
    minimum: int
    witness: tuple[int, ...]
    reduction_factor: int
    elapsed_s: float


@dataclass
class BoundCheck:
    """Longest-trail length versus the two floor-form lower bounds, with the
    final decreasing labels the length was taken from."""

    p_d: int
    bound_two_floor_q_over_n: int
    bound_floor_two_q_over_n: int
    holds_a: bool
    holds_b: bool
    labels: list[int]


def _scan_orders_task(args) -> tuple[int, tuple[int, ...] | None, int]:
    """Evaluate every processing order starting with edge index `first`.

    Returns (min value, lex-min achieving weight vector, orders examined).
    """
    n, endpoints, first = args
    q = len(endpoints)
    rest_idx = [j for j in range(q) if j != first]
    fu, fv = endpoints[first]
    best = q + 1
    best_w: tuple[int, ...] | None = None
    examined = 0
    for p in permutations(rest_idx):
        labels = [0] * n
        labels[fu] = 1
        labels[fv] = 1
        for j in p:
            u, v = endpoints[j]
            lu = labels[u]
            lv = labels[v]
            if lv >= lu:
                labels[u] = lv + 1
            if lu >= lv:
                labels[v] = lu + 1
        value = max(labels)
        examined += 1
        if value <= best:
            wvec = [0] * q
            wvec[first] = 1
            for i, j in enumerate(p):
                wvec[j] = i + 2
            wt = tuple(wvec)
            if value < best or wt < best_w:
                best = value
                best_w = wt
    return best, best_w, examined


def _scan_weightings_task(args) -> tuple[int, tuple[int, ...] | None, int]:
    """Evaluate explicit weight vectors; same reduction as _scan_orders_task."""
    n, endpoints, wvecs = args
    q = len(endpoints)
    best = q + 1
    best_w: tuple[int, ...] | None = None
    for wvec in wvecs:
        order = sorted(range(q), key=wvec.__getitem__)
        labels = final_label_lengths(n, (endpoints[j] for j in order))
        value = max(labels)
        if value < best or (value == best and wvec < best_w):
            best = value
            best_w = wvec
    return best, best_w, len(wvecs)


def _scan_reduced_complete(n: int, endpoints) -> tuple[int, tuple[int, ...] | None, int]:
    """One canonical weighting per vertex-relabeling orbit of K_n (n >= 3)."""
    q = len(endpoints)
    hub = range(1, n - 2)          # adjacent pairs among edges (v1,v3)..(v1,vn)
    rival = range(n - 1, 2 * n - 3)  # edges (v2,v3)..(v2,vn)
    best = q + 1
    best_w: tuple[int, ...] | None = None
    examined = 0
    for tail in permutations(range(2, q + 1)):
        w = (1,) + tail
        if any(w[i] >= w[i + 1] for i in hub):
            continue
        if any(w[1] >= w[j] for j in rival):
            continue
        order = sorted(range(q), key=w.__getitem__)
        labels = final_label_lengths(n, (endpoints[j] for j in order))
        value = max(labels)
        examined += 1
        if value < best or (value == best and w < best_w):
            best = value
            best_w = w
    return best, best_w, examined


def _merge(results) -> tuple[int, tuple[int, ...] | None, int]:
    best, best_w, examined = None, None, 0
    for value, wvec, count in results:
        examined += count
        if wvec is None:
            continue
        if best is None or value < best or (value == best and wvec < best_w):
            best, best_w = value, wvec
    return best, best_w, examined


def min_over_weightings(
    structure: Structure,
    mode: Exhaustive | Sampled = Exhaustive(),
    reduce_symmetry: bool = False,
    jobs: int = 1,
) -> ExtremalReport:
    """Minimum longest-decreasing-trail length over weightings of a structure.

    Exhaustive mode covers all q! weightings (guarded at q <= 10), or one
    canonical representative per relabeling orbit when reduce_symmetry is
    set and the structure is complete with n >= 3 (reduction is silently
    disabled otherwise).  Sampled mode draws `count` uniform weight
    permutations from the given seed via Fisher-Yates (random.Random).
    Results, including the witness, are identical for any `jobs` value.
    """
    _check_structure(structure)
    n, endpoints, q = structure.n, structure.edges, structure.q
    t0 = time.perf_counter()
    reduction_factor = 1

    if isinstance(mode, Exhaustive):
        if q > EXHAUSTIVE_MAX_EDGES:
            raise ExhaustiveTooLargeError(
                f"q={q} exceeds the exhaustive guard of {EXHAUSTIVE_MAX_EDGES}; "
                "use Sampled mode"
            )
        if q == 0:
            best, best_w, examined = 0, (), 1
        elif reduce_symmetry and structure.is_complete and n >= 3:
            reduction_factor = math.factorial(n)
            best, best_w, examined = _scan_reduced_complete(n, endpoints)
        else:
            tasks = [(n, endpoints, first) for first in range(q)]
            best, best_w, examined = _merge(_run_tasks(_scan_orders_task, tasks, jobs))
    else:
        if mode.count < 1:
            raise ValueError(f"sample count must be >= 1, got {mode.count}")
        rng = random.Random(mode.seed)
        base = list(range(1, q + 1))
        wvecs = []
        for _ in range(mode.count):
            w = base.copy()
            rng.shuffle(w)
            wvecs.append(tuple(w))
        chunk = max(1, len(wvecs) // max(jobs * 4, 1))
        tasks = [
            (n, endpoints, wvecs[i : i + chunk]) for i in range(0, len(wvecs), chunk)
        ]
        best, best_w, examined = _merge(_run_tasks(_scan_weightings_task, tasks, jobs))

    return ExtremalReport(
        structure=structure,
        mode=mode,
        examined=examined,
        minimum=best,
        witness=best_w if best_w is not None else (),
        reduction_factor=reduction_factor,
        elapsed_s=time.perf_counter() - t0,
    )


def _run_tasks(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)


def check_lower_bound(g: WeightedGraph) -> BoundCheck:
    """Longest-trail length against both floor-form guarantees.

    bound a = 2*floor(q/n); bound b = floor(2q/n), never smaller than a.
    Both must hold on every valid graph: the label sum grows by at least 2
    per processed edge, so the final sum is >= 2q and some vertex carries a
    label of at least floor(2q/n).  A failure signals an implementation bug
    and is reported, not raised.  An invalid graph raises InvalidGraphError.
    """
    report = longest_ordered_trail(g, Order.DECREASING)
    p_d = report.optimum
    bound_a = 2 * (g.q // g.n)
    bound_b = (2 * g.q) // g.n
    return BoundCheck(
        p_d=p_d,
        bound_two_floor_q_over_n=bound_a,
        bound_floor_two_q_over_n=bound_b,
        holds_a=p_d >= bound_a,
        holds_b=p_d >= bound_b,
        labels=report.labels,
    )


def extremal_report_json(report: ExtremalReport, include_timing: bool = False) -> dict:
    """JSON form; elapsed_ms is null unless timing explicitly requested so
    that repeated runs on the same input are byte-identical."""
    if isinstance(report.mode, Exhaustive):
        mode_json: dict = {"kind": "exhaustive"}
    else:
        mode_json = {"kind": "sampled", "count": report.mode.count, "seed": report.mode.seed}
    return {
        "schema": "extremal-report/1",
        "structure": {
            "n": report.structure.n,
            "edges": [[a + 1, b + 1] for (a, b) in report.structure.edges],
            "complete": report.structure.is_complete,
        },
        "mode": mode_json,
        "examined": report.examined,
        "f": report.minimum,
        "witness": list(report.witness),
        "reduction": {
            "enabled": report.reduction_factor > 1,
            "factor": report.reduction_factor,
        },
        "elapsed_ms": report.elapsed_s * 1000.0 if include_timing else None,
    }
