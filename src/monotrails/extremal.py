"""Minimum guaranteed trail length over all weightings of a fixed structure.

For a structure (vertex count plus edge set) the search evaluates the
longest-decreasing-trail length under every assignment of the weights
1..q to the edges (or a seeded random sample of assignments) and reports
the minimum together with a witness weighting.  The witness is the
lexicographically smallest weight vector, in canonical edge order, that
achieves the minimum, which makes the result independent of how the
search is split into tasks and across workers.

The search folds processing orders, the inverses of weight vectors, since
the label update takes edges in ascending weight order.  Exhaustive and
reduced runs go depth-first through _search: a task folds a start prefix
once, then places one available edge per level, changing only the two
labels it touches and restoring them on the way back, so orders share the
fold of their common prefix.  Placing an edge makes the edges its unlock
table entry lists available.  Exhaustive mode has no unlocks and one task
per edge of weight 1: edge 0, and each edge outside edge 0's orbit under
the vertex automorphisms.  A relabeling that carries edge j onto edge 0
keeps every trail length, so task j's minimum is task 0's; and each of its
weightings has w[0] >= 2, so it loses to task 0's witness at position 0.
Only these tasks go to workers; the reduced search is one task of
milliseconds.  Sampled mode folds in the calling process, which alone can
draw its one seeded stream: _scan folds each order, drawn just before,
from zero labels, and leaves it once a label passes the best value.  The m
vertices with edges are renumbered 0..m-1 in ascending order first, which
keeps the edge order and every witness, so isolated vertices cost nothing.

_search is a branch and bound.  It skips a prefix whose lower bound, the
larger of its top label and ceil((label sum + 2 * edges left) / m), is
above the best value so far, or equals it while no completion can beat
the best witness lexicographically.  The engines return only the value
and its witness; the report's `examined` is the size of the space the
run covers (q!, q!/n! reduced, or the sample count), set once by
min_over_weightings.

Symmetry reduction (complete graphs, n >= 3): relabeling vertices never
changes trail lengths, and no nontrivial relabeling fixes a
distinct-weight assignment, so the weightings fall into orbits of size
exactly n!.  One canonical weighting per orbit is enumerated directly by
pinning weight 1 onto edge (v1,v2), orienting that edge so v1's
second-smallest incident weight is the smaller one, and sorting the
remaining vertices by their weight to v1:

    w(v1,v2) = 1,   w(v1,v3) < w(v1,v4) < ... ,   w(v1,v3) < min_x w(v2,x)

The canonical orders are exactly those that respect one unlock table: hub
(v1,x) unlocks (v1,x+1), and (v1,v3) also unlocks every rival (v2,x).
One task, edge (v1,v2) first, yields q!/n! orders in all, none filtered.

check_lower_bound is labeling's, re-exported here for callers that import
it from this module; the package and cli take it from labeling, so only a
search loads this module.
"""

from __future__ import annotations

import math
import os
import random
import time
from itertools import combinations
from typing import NamedTuple

from .errors import InvalidStructureError, MonotrailsError
from .graphs import MAX_EDGES, EdgeKey, WeightedGraph
from .labeling import _fold, check_lower_bound  # check_lower_bound: re-exported, see above

EXHAUSTIVE_MAX_EDGES = 10  # 10! = 3,628,800 weightings; K5 is one task, about 0.1 s
# A sampled search holds about 280 bytes per edge: one-sample K_1414 and K_1549
# searches peaked at 283 and 336 MB under a 1 GiB RLIMIT_AS, so this guard
# keeps one near a third of 1 GiB.
SAMPLED_MAX_EDGES = 12 * 10**5


class _StructureFields(NamedTuple):
    n: int
    edges: tuple[EdgeKey, ...]


class Structure(_StructureFields):
    """Bare edge structure, no weights: canonical in-range pairs, strictly
    ascending from construction, so n(n-1)/2 edges are K_n in lex order."""

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple[EdgeKey, ...]) -> Structure:
        if n < 1:
            raise InvalidStructureError(f"vertex count must be >= 1, got {n}")
        last = (-1, -1)
        for a, b in edges:
            if a >= b:
                raise InvalidStructureError(f"edge ({a + 1},{b + 1}) is not canonical (min,max)")
            if not (0 <= a and b < n):
                raise InvalidStructureError(f"edge ({a + 1},{b + 1}) out of range for n={n}")
            if (a, b) <= last:
                fault = "repeated" if (a, b) == last else "out of order: edges must ascend"
                raise InvalidStructureError(f"edge ({a + 1},{b + 1}) {fault}")
            last = (a, b)
        return super().__new__(cls, n, edges)

    @classmethod
    def _make(cls, iterable) -> Structure:  # _replace builds through here, so it checks too
        return cls(*iterable)

    @property
    def q(self) -> int:
        return len(self.edges)

    @property
    def is_complete(self) -> bool:
        return self.q == self.n * (self.n - 1) // 2


def complete_edge_count(n: int) -> int:
    if n < 1:
        raise InvalidStructureError(f"vertex count must be >= 1, got {n}")
    q = n * (n - 1) // 2
    if q > MAX_EDGES:
        raise MonotrailsError(f"K_{n} has {q} edges, above the limit of {MAX_EDGES}")
    return q


def complete_structure(n: int) -> Structure:
    complete_edge_count(n)
    return Structure(n=n, edges=tuple(combinations(range(n), 2)))


def structure_of(g: WeightedGraph) -> Structure:
    return Structure(n=g.n, edges=tuple(sorted(g.edges)))


class Exhaustive(NamedTuple):
    def __bool__(self) -> bool:  # a mode, not an empty tuple
        return True


class Sampled(NamedTuple):
    count: int
    seed: int


class ExtremalReport(NamedTuple):
    structure: Structure
    mode: Exhaustive | Sampled
    examined: int
    minimum: int
    witness: tuple[int, ...]
    reduction_factor: int
    elapsed_s: float


def _search(task) -> tuple[int, tuple[int, ...]]:
    """Evaluate one task (n, endpoints, start, avail, unlocks) depth-first:
    the edges in `start` take the weights 1..len(start), then every order
    of the rest that places only available edges is decided; placing edge j
    makes unlocks[j] available.  Returns (min value, lex-min weight vector
    achieving it).

    After an edge is placed at `rank`, with `left` = q - rank edges to
    come, the final value is at least max(top label, ceil((label sum +
    2*left) / n)), since every edge raises the label sum by at least 2.
    The prefix is skipped when that bound is (a, b) above the best value so
    far, or (c) equal to it while no completion can be lexicographically
    smaller than the best witness (_beaten)."""
    n, endpoints, start, avail, unlocks = task
    q = len(endpoints)
    if len(start) >= q - 1:  # at most one edge left: one order
        return _scan(n, endpoints, [start + avail])
    labels = _fold(n, [endpoints[j] for j in start])[0]
    w = [0] * q  # weight buffer: 0 marks an unplaced edge, so a level resets its edge on the way up
    for rank, j in enumerate(start, 1):
        w[j] = rank
    best, best_w = q + 1, None

    def place(avail, rank, top, total):
        """Place each available edge at `rank`; two or more edges are left.
        top and total are the labels' maximum and sum."""
        nonlocal best, best_w
        left = q - rank
        for i, j in enumerate(avail):
            u, v = endpoints[j]
            lu, lv = labels[u], labels[v]
            if lv > lu:
                t = labels[u] = lv + 1
                s = total + t - lu
            elif lu > lv:
                t = labels[v] = lu + 1
                s = total + t - lv
            else:
                t = labels[u] = labels[v] = lu + 1
                s = total + 2
            if t < top:
                t = top
            w[j] = rank
            if left > 1:
                bound = -(-(s + 2 * left) // n)
                if bound < t:
                    bound = t
                if not (bound > best or (bound == best and _beaten(w, best_w, rank))):
                    place(avail[:i] + avail[i + 1 :] + unlocks[j], rank + 1, t, s)
            else:  # fold the last edge in place
                k = (avail[:i] + avail[i + 1 :] + unlocks[j])[0]
                a, b = endpoints[k]
                la, lb = labels[a], labels[b]
                value = lb + 1 if lb >= la else la + 1
                if value < t:
                    value = t
                if value <= best:
                    w[k] = q
                    wt = tuple(w)
                    w[k] = 0
                    if value < best or wt < best_w:
                        best, best_w = value, wt
            w[j] = 0
            labels[u], labels[v] = lu, lv

    place(avail, len(start) + 1, max(labels), sum(labels))
    del place  # place refers to itself through its closure cell; emptying the cell breaks the cycle
    return best, best_w


def _beaten(w, best_w, rank) -> bool:
    """Whether no completion of the partial weight vector w (0 for an
    unplaced edge, whose weight will be above rank) is lexicographically
    smaller than best_w."""
    for x, b in zip(w, best_w):
        if x != b:
            return x > b if x else b <= rank
    return True


def _scan(n: int, endpoints, orders) -> tuple[int, tuple[int, ...]]:
    """Fold each order, an iterable read once, from zero labels, leaving it
    as soon as a label passes the best value so far, since it can then
    neither win nor tie.  Returns what _search returns; orders must not be
    empty."""
    w = [0] * len(endpoints)
    best = len(endpoints) + 1
    best_w: tuple[int, ...] | None = None
    for order in orders:
        labels = [0] * n
        for j in order:
            u, v = endpoints[j]
            lu = labels[u]
            lv = labels[v]
            if lv > lu:
                if lv >= best:
                    break
                labels[u] = lv + 1
            elif lu > lv:
                if lu >= best:
                    break
                labels[v] = lu + 1
            elif lu >= best:
                break
            else:
                labels[u] = labels[v] = lu + 1
        else:
            value = max(labels)
            if value <= best:
                for rank, j in enumerate(order, 1):
                    w[j] = rank
                wt = tuple(w)
                if value < best or wt < best_w:
                    best, best_w = value, wt
    return best, best_w


def _maps_onto(n: int, endpoints, e: int, f: int) -> bool:
    """Whether some vertex automorphism of the structure carries edge e
    onto edge f.  Backtracks over the vertices, e's ends first, giving
    each an unused image of its degree whose adjacency to the images so
    far matches its own to the vertices mapped so far."""
    adj = [set() for _ in range(n)]
    for u, v in endpoints:
        adj[u].add(v)
        adj[v].add(u)
    (a, b), (c, d) = endpoints[e], endpoints[f]
    order = [a, b] + [v for v in range(n) if v != a and v != b]
    stack = [()]  # partial maps: the images of order[:k]
    while stack:
        images = stack.pop()
        k = len(images)
        if k == len(order):
            return True
        v = order[k]
        stack += [
            images + (t,)
            for t in ((c, d) if k < 2 else order)
            if t not in images
            and len(adj[t]) == len(adj[v])
            and all((x in adj[v]) == (y in adj[t]) for x, y in zip(order, images))
        ]
    return False


def _first_edge_tasks(n: int, endpoints):
    """The exhaustive tasks, one per edge j of weight 1, for edge 0 and
    every edge no automorphism carries onto edge 0; with no edges, one
    task of the empty order."""
    q = len(endpoints)
    unlocks = ((),) * q
    return [
        (n, endpoints, (j,), tuple(range(j)) + tuple(range(j + 1, q)), unlocks)
        for j in range(q)
        if j == 0 or not _maps_onto(n, endpoints, j, 0)
    ] or [(n, endpoints, (), (), unlocks)]


def _reduce_task(n: int, endpoints):
    """The --reduce task of K_n: edge (v1,v2) first, then the unlock table
    that admits exactly the canonical orders."""
    q = len(endpoints)
    unlocks = [()] * q
    for h in range(1, n - 2):  # hub (v1,v(h+2)) is edge h
        unlocks[h] = (h + 1,)
    unlocks[1] += tuple(range(n - 1, 2 * n - 3))  # the rivals (v2,x)
    return (n, endpoints, (0,), (1, *range(2 * n - 3, q)), unlocks)


def _sampled_orders(q: int, mode: Sampled):
    """The sampled orders, drawn lazily: order i inverts the i-th
    Fisher-Yates shuffle of one seeded stream.  The draws are
    random.shuffle's own, written out.  Step i, from q-1 down to 1, draws
    k = (i+1).bit_length() bits, so the steps are one range of i per k."""
    getrandbits = random.Random(mode.seed).getrandbits
    runs = [
        (range(min(q - 1, (1 << k) - 2), (1 << (k - 1)) - 2, -1), k)
        for k in range(q.bit_length(), 1, -1)
    ]
    identity = list(range(q))  # copied per order: a slice is quicker than list(range(q))
    for _ in range(mode.count):
        w = identity[:]
        order = [0] * q  # position 0 needs no step: order[w[0]] keeps its 0
        for steps, k in runs:
            for i in steps:
                r = getrandbits(k)
                while r > i:
                    r = getrandbits(k)
                order[w[r]] = i  # the swap puts w[r] at i for good; w[i] is never read again
                w[r] = w[i]
        yield order


def check_search(q: int, mode: Exhaustive | Sampled, jobs: int) -> None:
    """Refuse a search over q edges before anything is built for it."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if isinstance(mode, Sampled) and mode.count < 1:
        raise ValueError(f"sample count must be >= 1, got {mode.count}")
    if isinstance(mode, Exhaustive) and q > EXHAUSTIVE_MAX_EDGES:
        raise MonotrailsError(
            f"q={q} exceeds the exhaustive guard of {EXHAUSTIVE_MAX_EDGES}; use Sampled mode"
        )
    if isinstance(mode, Sampled) and q > SAMPLED_MAX_EDGES:
        raise MonotrailsError(f"q={q} exceeds the sampled guard of {SAMPLED_MAX_EDGES}")


def min_over_weightings(
    structure: Structure,
    mode: Exhaustive | Sampled = Exhaustive(),
    reduce_symmetry: bool = False,
    jobs: int = 1,
) -> ExtremalReport:
    """Minimum longest-decreasing-trail length over weightings of a structure.

    Exhaustive mode covers all q! weightings (q <= EXHAUSTIVE_MAX_EDGES), or one
    canonical representative per relabeling orbit when reduce_symmetry is
    set and the structure is complete with n >= 3 (reduction factor 1
    otherwise, and always in Sampled mode).  Sampled mode draws `count`
    uniform weight permutations from the given seed via Fisher-Yates
    (random.Random), for q <= SAMPLED_MAX_EDGES.  `examined` is the number
    of weightings the run covers: q!, q!/n! reduced, or `count`.
    Results, including the witness, are identical for any `jobs` >= 1.
    Only plain exhaustive runs start workers, at most min(jobs, usable
    CPUs, tasks); sampled and reduced runs search in the calling process.
    """
    q = structure.q
    check_search(q, mode, jobs)
    t0 = time.perf_counter()
    # Isolated vertices keep label 0: dropping them changes no label, and the slack bound holds.
    used = sorted({v for edge in structure.edges for v in edge})
    index = {v: i for i, v in enumerate(used)}
    endpoints = tuple((index[a], index[b]) for a, b in structure.edges)
    m = max(1, len(used))
    reduction_factor = 1

    if isinstance(mode, Sampled):
        best, best_w = _scan(m, endpoints, _sampled_orders(q, mode))
    elif reduce_symmetry and structure.is_complete and structure.n >= 3:
        reduction_factor = math.factorial(structure.n)
        best, best_w = _search(_reduce_task(m, endpoints))
    else:
        best, best_w = _run_tasks(_first_edge_tasks(m, endpoints), jobs)

    return ExtremalReport(
        structure=structure,
        mode=mode,
        examined=mode.count if isinstance(mode, Sampled) else math.factorial(q) // reduction_factor,
        minimum=best,
        witness=best_w,
        reduction_factor=reduction_factor,
        elapsed_s=time.perf_counter() - t0,
    )


def _pool_size(jobs: int, cpus: int, tasks: int) -> int:
    """Worker processes: no more than asked for, usable CPUs or tasks."""
    return min(jobs, cpus, tasks)


def _run_tasks(tasks, jobs: int) -> tuple[int, tuple[int, ...]]:
    """The least (value, witness) of _search over the exhaustive tasks; min
    keeps only the best result so far.  A pool forks where it can; _search
    and its tasks are module-level and picklable, so the default start
    method works too."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = _pool_size(jobs, cpus or 1, len(tasks))
    if size == 1:
        return min(map(_search, tasks))
    import multiprocessing  # only a pool needs it, and it is slow to import

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with multiprocessing.get_context(method).Pool(processes=size) as pool:
        return min(pool.imap(_search, tasks))


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
