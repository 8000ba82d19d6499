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
table entry lists available; exhaustive mode has one task per edge of
weight 1 and no unlocks.  Sampled mode streams: _scan folds each order of
a chunk drawn lazily from one seeded stream from zero labels.

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
One task per second edge yields q!/n! orders in all, none filtered.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .errors import ExhaustiveTooLargeError, InvalidStructureError
from .graphs import EdgeKey, WeightedGraph
from .labeling import Order, _fold, longest_ordered_trail

EXHAUSTIVE_MAX_EDGES = 10  # 10! = 3,628,800 weightings; minutes, not hours
SAMPLE_CHUNK = 4096  # sampled orders per task, so a large count streams


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


def _search(task) -> tuple[int, tuple[int, ...], int]:
    """Evaluate one task (n, endpoints, start, avail, unlocks) depth-first:
    the edges in `start` take the weights 1..len(start), then every order
    of the rest that places only available edges is folded; placing edge j
    makes unlocks[j] available.  Returns (min value, lex-min weight vector
    achieving it, orders examined)."""
    n, endpoints, start, avail, unlocks = task
    q = len(endpoints)
    if len(start) >= q - 1:  # at most one edge left: one order
        return _scan((n, endpoints, [start + avail]))
    labels = _fold(n, [endpoints[j] for j in start])[0]
    w = [0] * q  # weight buffer: start written once, each level on the way down
    for rank, j in enumerate(start, 1):
        w[j] = rank
    best, best_w, examined = q + 1, None, 0

    def place(avail, rank, top):
        """Place each available edge at `rank`; two or more edges are left."""
        nonlocal best, best_w, examined
        for i, j in enumerate(avail):
            u, v = endpoints[j]
            lu, lv = labels[u], labels[v]
            if lv > lu:
                t = labels[u] = lv + 1
            elif lu > lv:
                t = labels[v] = lu + 1
            else:
                t = labels[u] = labels[v] = lu + 1
            if t < top:
                t = top
            w[j] = rank
            rest = avail[:i] + avail[i + 1 :] + unlocks[j]
            if rank + 1 < q:
                place(rest, rank + 1, t)
            else:  # fold the last edge in place
                a, b = endpoints[rest[0]]
                la, lb = labels[a], labels[b]
                value = lb + 1 if lb >= la else la + 1
                if value < t:
                    value = t
                examined += 1
                if value <= best:
                    w[rest[0]] = q
                    wt = tuple(w)
                    if value < best or wt < best_w:
                        best, best_w = value, wt
            labels[u], labels[v] = lu, lv

    place(avail, len(start) + 1, max(labels))
    return best, best_w, examined


def _scan(task) -> tuple[int, tuple[int, ...], int]:
    """Evaluate one task (n, endpoints, orders): each order is folded from
    zero labels.  Returns what _search returns; orders must not be empty."""
    n, endpoints, orders = task
    w = [0] * len(endpoints)
    best = len(endpoints) + 1
    best_w: tuple[int, ...] | None = None
    for order in orders:
        labels = [0] * n
        for j in order:
            u, v = endpoints[j]
            lu = labels[u]
            lv = labels[v]
            if lv >= lu:
                labels[u] = lv + 1
            if lu >= lv:
                labels[v] = lu + 1
        value = max(labels)
        if value <= best:
            for rank, j in enumerate(order, 1):
                w[j] = rank
            wt = tuple(w)
            if value < best or wt < best_w:
                best, best_w = value, wt
    return best, best_w, len(orders)


def _reduce_tasks(n: int, endpoints):
    """The --reduce tasks of K_n, one per second edge after (v1,v2), over
    the unlock table that admits exactly the canonical orders."""
    q = len(endpoints)
    unlocks = [()] * q
    for h in range(1, n - 2):  # hub (v1,v(h+2)) is edge h
        unlocks[h] = (h + 1,)
    unlocks[1] += tuple(range(n - 1, 2 * n - 3))  # the rivals (v2,x)
    first = (1, *range(2 * n - 3, q))
    return [
        (n, endpoints, (0, j), first[:i] + first[i + 1 :] + unlocks[j], unlocks)
        for i, j in enumerate(first)
    ]


def _sampled_tasks(n: int, endpoints, mode: Sampled, chunk: int):
    """Chunks of sampled orders, built lazily: order i inverts the i-th
    Fisher-Yates shuffle of one seeded stream, whatever the chunk size.
    The draws are random.shuffle's own, written out."""
    getrandbits = random.Random(mode.seed).getrandbits
    q = len(endpoints)
    steps = [(i, (i + 1).bit_length()) for i in range(q - 1, 0, -1)]
    for lo in range(0, mode.count, chunk):
        orders = []
        for _ in range(min(chunk, mode.count - lo)):
            w = list(range(q))
            for i, k in steps:
                r = getrandbits(k)
                while r > i:
                    r = getrandbits(k)
                w[i], w[r] = w[r], w[i]
            order = [0] * q
            for j in range(q):
                order[w[j]] = j
            orders.append(order)
        yield (n, endpoints, orders)


def _merge(results) -> tuple[int, tuple[int, ...], int]:
    """The least (value, witness) over the task results, and the summed count."""
    best, best_w = min((value, wvec) for value, wvec, _ in results)
    return best, best_w, sum(count for _, _, count in results)


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
    Results, including the witness, are identical for any `jobs` >= 1;
    at most min(jobs, usable CPUs, tasks) worker processes are started.
    """
    _check_structure(structure)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n, endpoints, q = structure.n, structure.edges, structure.q
    t0 = time.perf_counter()
    reduction_factor = 1

    if isinstance(mode, Exhaustive):
        if q > EXHAUSTIVE_MAX_EDGES:
            raise ExhaustiveTooLargeError(
                f"q={q} exceeds the exhaustive guard of {EXHAUSTIVE_MAX_EDGES}; "
                "use Sampled mode"
            )
        if reduce_symmetry and structure.is_complete and n >= 3:
            reduction_factor = math.factorial(n)
            tasks = _reduce_tasks(n, endpoints)
        else:  # one task per edge of weight 1; no edges, one empty order
            unlocks = ((),) * q
            tasks = [
                (n, endpoints, (j,), tuple(range(j)) + tuple(range(j + 1, q)), unlocks)
                for j in range(q)
            ] or [(n, endpoints, (), (), unlocks)]
        engine, n_tasks = _search, len(tasks)
    else:
        if mode.count < 1:
            raise ValueError(f"sample count must be >= 1, got {mode.count}")
        chunk = max(1, min(SAMPLE_CHUNK, mode.count // (4 * jobs)))
        tasks = _sampled_tasks(n, endpoints, mode, chunk)
        engine, n_tasks = _scan, -(-mode.count // chunk)
    best, best_w, examined = _merge(_run_tasks(engine, tasks, n_tasks, jobs))

    return ExtremalReport(
        structure=structure,
        mode=mode,
        examined=examined,
        minimum=best,
        witness=best_w,
        reduction_factor=reduction_factor,
        elapsed_s=time.perf_counter() - t0,
    )


def _pool_size(jobs: int, cpus: int, tasks: int) -> int:
    """Worker processes: no more than asked for, usable CPUs or tasks."""
    return min(jobs, cpus, tasks)


def _run_tasks(engine, tasks, n_tasks: int, jobs: int):
    """engine over each task.  A lazy task stream is read as tasks are
    handed out, so it is never held whole, here or with a pool.  A pool
    forks where it can; engines and tasks are module-level and picklable,
    so the default start method works too."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = _pool_size(jobs, cpus or 1, n_tasks)
    if size == 1:
        return list(map(engine, tasks))
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with multiprocessing.get_context(method).Pool(processes=size) as pool:
        return list(pool.imap(engine, tasks))


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
