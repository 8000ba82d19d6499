"""Minimum guaranteed trail length over all weightings of a fixed structure.

For a structure (vertex count plus edge set) the search evaluates the
longest-decreasing-trail length under every assignment of the weights
1..q to the edges (or a seeded random sample of assignments) and reports
the minimum together with a witness weighting.  The witness is the
lexicographically smallest weight vector, in canonical edge order, that
achieves the minimum, which makes the result independent of the order in
which the search visits the weightings.

The search folds processing orders, the inverses of weight vectors, since
the label update takes edges in ascending weight order.  Exhaustive runs
go depth-first through _search: a task is its available edges and an
unlock table, and the search places one available edge per level,
changing only the two labels it touches and restoring them on the way
back, so orders share the fold of their common prefix.  Placing an edge
makes the edges its unlock table entry lists available, merged so that
the available edges stay in ascending edge order.  K_n with n >= 3
is one task, edge 0 alone available, whose unlock table admits only the
canonical orders (below), whether or not reduce_symmetry is set.  Any
other structure is one task with every edge available and no unlocks, so
its first edges share one cap ladder and one refuted-state table.  Edge 0
comes first, and once its subtree holds an order within the cap, which
has weight 1 on edge 0, _beaten cuts every other first edge at depth 1.
The search runs in the calling process: under the guard the slowest
search measured takes 4-7 ms, and worker processes made searches slower.
Sampled mode, _scan's only caller, draws its orders from one seeded
stream: _scan folds each order, drawn just before, from zero labels, and
leaves it once a label passes the best value.  The m vertices with edges
are renumbered 0..m-1 in ascending order first, which keeps the edge
order and every witness, so isolated vertices cost nothing.

_search raises a value cap by one from ceil(2q / m), the empty prefix's
bound, since each edge raises the label sum by at least 2.  One pass per
cap skips every prefix that lifts a label above the cap, that leaves a
vertex at the cap with an edge still to come, or whose room, cap - label
over the vertices with an edge still to come, is below twice the edges
left: a finished vertex keeps its label, so only that room can take the
rises still to come.  It also skips every (placed set, labels) state its
table holds as refuted at that cap; the table is emptied when the cap
rises.
The first cap that holds an order is the minimum, since every lower one
was refuted, and that pass keeps its lex-min order as the witness.
Trying the available edges in ascending order gives the lowest weights to
the lowest edges first, so the first order a pass holds tends to be its
lex-min one, and _beaten then cuts the rest of the pass: on K5 the pass
at cap 5 holds the witness first and ends after 10 calls of place.  The
engines return only the value and its witness; the report's `examined`
is the size of the space the run covers (q!, q!/n! reduced, or the
sample count), set once by min_over_weightings.

Symmetry reduction (complete graphs, n >= 3): relabeling vertices never
changes trail lengths, and no nontrivial relabeling fixes a
distinct-weight assignment, so the weightings fall into orbits of size
exactly n!.  The canonical weighting of an orbit, its lexicographic
minimum, is enumerated directly by pinning weight 1 onto edge (v1,v2),
orienting that edge so v1's second-smallest incident weight is the
smaller one, and sorting the remaining vertices by their weight to v1:

    w(v1,v2) = 1,   w(v1,v3) < w(v1,v4) < ... ,   w(v1,v3) < min_x w(v2,x)

The canonical orders are exactly those that respect one unlock table: hub
(v1,x) unlocks (v1,x+1), and (v1,v3) also unlocks every rival (v2,x).
One task, (v1,v2) alone available and unlocking (v1,v3) and every edge
that meets neither v1 nor v2, yields q!/n! orders in all, none filtered.
Each weighting has its orbit minimum's value, and the lex-min witness
over all q! weightings is the minimum of its own orbit, so this task
finds the minimum and witness of the whole space.  reduce_symmetry
therefore changes only the report: `examined` q!/n! and
`reduction_factor` n!, against q! and 1.

check_lower_bound is labeling's, re-exported here for callers that import
it from this module; the package and cli take it from labeling, so only a
search loads this module.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations
from typing import NamedTuple

from .errors import InvalidStructureError, MonotrailsError
from .graphs import MAX_EDGES, EdgeKey, WeightedGraph
from .labeling import check_lower_bound  # check_lower_bound: re-exported, see above

# 10! = 3,628,800 weightings.  K5's 10!/5! = 30,240 canonical orders take two
# caps, 4 refuted and 5 held, whose passes reach the last edge once.
EXHAUSTIVE_MAX_EDGES = 10
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
    """Evaluate one task (n, endpoints, avail, unlocks) depth-first: every
    order that places only available edges is decided, where placing edge
    j makes unlocks[j] available.  A fixed prefix is a chain of unlocks:
    its first edge alone in `avail`, each prefix edge unlocking the next,
    and the last what is then available.  A non-empty unlock list is
    merged in edge order, so K_n's task, like a plain one, tries its
    available edges ascending, and a pass's first order is then usually
    its witness (see the module docstring).  The result does not rest on
    that order, only the work does.
    Returns (min value, lex-min weight vector achieving it), (0, ()) when
    there are no edges.

    Each edge raises the label sum by at least 2, so a cap rises by one
    from the root's bound, ceil(2q / n).  One depth-first pass per cap
    skips a placement that
    - lifts a label above the cap;
    - lifts a vertex to the cap while it has an edge still to come, since
      that edge will lift one of its ends above the cap;
    - leaves less room than 2*left, with `left` edges to come, where the
      room is cap - label summed over the vertices with an edge to come.
      Each edge to come raises the labels of its two ends, both in that
      set, by at least 2 in sum, and a vertex with no edge to come keeps
      its label, so the room above it is lost;
    and, once the pass holds a witness, a prefix no completion of which is
    lexicographically smaller (_beaten).  Every lower cap was refuted, so
    the first cap that holds an order is the minimum, and its pass's least
    order the witness.

    The orders that complete a state, the placed set with the labels,
    depend on the placed set alone: an edge is available once it is in
    `avail` or the one edge whose unlock list holds it is placed (no edge
    is in two lists), until it is placed itself.  The edges to come at a
    vertex are the unplaced ones, so the skips above read the state alone
    too.  So a state whose subtree holds no order within the cap has none
    however it is reached, and the pass skips it when met again.  It is
    recorded only when no _beaten skip fell in its subtree, since such a
    skip may hide one; the table is emptied when the cap rises."""
    n, endpoints, avail, unlocks = task
    q = len(endpoints)
    if not q:
        return 0, ()
    labels = [0] * n
    rem = [0] * n  # edges still to come at each vertex
    for u, v in endpoints:
        rem[u] += 1
        rem[v] += 1
    w = [0] * q  # weight buffer: 0 marks an unplaced edge, so a level resets its edge on the way up
    refuted = set()  # the (placed mask, *labels) states with no order within the cap
    best_w = None

    def place(avail, rank, room, placed):
        """Place each available edge at `rank`, in avail's order, which is
        ascending once an unlock list has been merged in; no label is above
        the cap, none with an edge to come is at it, and room is cap - label
        summed over the vertices with an edge to come.  Returns whether the
        subtree holds no order within the cap and no _beaten skip."""
        nonlocal best_w
        refutes = True
        need = 2 * (q - rank)
        for i, j in enumerate(avail):
            u, v = endpoints[j]
            lu = labels[u]
            lv = labels[v]
            ru = rem[u] - 1
            rv = rem[v] - 1
            if lv > lu:
                t = nu = lv + 1
                nv = lv
            elif lu > lv:
                t = nv = lu + 1
                nu = lu
            else:
                t = nu = nv = lu + 1
            if t > cap:
                continue
            # an end that goes on spends its rise of the room, one that finishes all of its own
            r = room - (nu - lu if ru else cap - lu) - (nv - lv if rv else cap - lv)
            if r < need or t == cap and (ru and nu == t or rv and nv == t):
                continue  # too little room, or a vertex at the cap with an edge to come
            w[j] = rank
            if not need:  # an order within the cap
                refutes = False
                wt = tuple(w)
                if best_w is None or wt < best_w:
                    best_w = wt
            elif best_w is not None and _beaten(w, best_w, rank):
                refutes = False
            else:
                labels[u] = nu
                labels[v] = nv
                key = (placed | 1 << j, *labels)
                if key not in refuted:
                    rem[u] = ru
                    rem[v] = rv
                    rest = avail[:i] + avail[i + 1 :]
                    if unlocks[j]:  # K_n's task alone has unlocks: merged in edge order
                        rest = tuple(sorted(rest + unlocks[j]))
                    if place(rest, rank + 1, r, key[0]):
                        refuted.add(key)
                    else:
                        refutes = False
                    rem[u] = ru + 1
                    rem[v] = rv + 1
                labels[u] = lu
                labels[v] = lv
            w[j] = 0
        return refutes

    for cap in range(-(-2 * q // n), q + 1):  # no order ends above q, so some cap holds one
        place(avail, 1, cap * n, 0)
        if best_w is not None:
            break
        refuted.clear()
    del place  # place refers to itself through its closure cell; emptying the cell breaks the cycle
    return cap, best_w


def _beaten(w, best_w, rank) -> bool:
    """Whether no completion of the partial weight vector w (0 for an
    unplaced edge, whose weight will be above rank) is lexicographically
    smaller than best_w."""
    for x, b in zip(w, best_w):
        if x != b:
            return x > b if x else b <= rank
    return True


def _scan(n: int, endpoints, orders) -> tuple[int, tuple[int, ...]]:
    """Fold each sampled order, an iterable read once, from zero labels,
    leaving it as soon as a label passes the best value so far, since it
    can then neither win nor tie.  Returns what _search returns; orders
    must not be empty.  Sampled mode is the only caller."""
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


def _reduce_task(n: int, endpoints):
    """The one exhaustive task of K_n, n >= 3: edge (v1,v2) alone available,
    and the unlock table that admits exactly the canonical orders, (v1,v2)
    unlocking (v1,v3) and every edge that meets neither v1 nor v2."""
    q = len(endpoints)
    unlocks = [()] * q
    unlocks[0] = (1, *range(2 * n - 3, q))
    for h in range(1, n - 2):  # hub (v1,v(h+2)) is edge h
        unlocks[h] = (h + 1,)
    unlocks[1] += tuple(range(n - 1, 2 * n - 3))  # the rivals (v2,x)
    return (n, endpoints, (0,), unlocks)


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

    Exhaustive mode covers all q! weightings (q <= EXHAUSTIVE_MAX_EDGES);
    on K_n with n >= 3 it folds one canonical weighting per relabeling
    orbit, which has the same minimum and witness, and reduce_symmetry
    reports that space, reduction factor n! (1 otherwise, and always in
    Sampled mode).  Sampled mode draws `count` uniform weight permutations
    from the given seed via Fisher-Yates (random.Random), for
    q <= SAMPLED_MAX_EDGES.  `examined` is the number of weightings the
    run covers: q!, q!/n! reduced, or `count`.  Every search runs in the
    calling process; `jobs` must be >= 1 and is accepted for compatibility,
    so results, including the witness, are the same for any value.
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
    else:
        canonical = structure.is_complete and structure.n >= 3
        if canonical and reduce_symmetry:
            reduction_factor = math.factorial(structure.n)
        best, best_w = _search(
            _reduce_task(m, endpoints) if canonical else (m, endpoints, tuple(range(q)), ((),) * q)
        )

    return ExtremalReport(
        structure=structure,
        mode=mode,
        examined=mode.count if isinstance(mode, Sampled) else math.factorial(q) // reduction_factor,
        minimum=best,
        witness=best_w,
        reduction_factor=reduction_factor,
        elapsed_s=time.perf_counter() - t0,
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
