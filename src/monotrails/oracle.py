"""Brute-force ground truth for longest strictly decreasing trails.

Depth-first search over every decreasing extension, with no pruning beyond
the definition itself, so it is plainly correct -- the point is to
differentially test the label-propagation algorithm against it.  Because
all weights are distinct, extending only with strictly smaller weights
already guarantees the edges of a trail are pairwise distinct.

brute_force_longest scans each vertex's edges lightest first and stops at
the first edge that is not lighter than the one it arrived by: every later
edge is heavier still, so no extension is skipped.  A step into a vertex
whose lightest edge is the one just taken ends the trail there; it is
counted as a node of length 0 without a call.  nodes_explored is still the
number of trail prefixes the search visits, empty ones included.

The search memoises per arc (an edge with a direction): weights are
distinct, so the weight a step arrived by names its arc, and the subtree
below depends on nothing else.  Each arc's subtree is walked once; a later
arrival reuses its longest trail and adds its whole prefix count, so the
answer and nodes_explored are the plain search's, in O(sum of deg^2) time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import RankOutOfRangeError
from .graphs import WeightedGraph
from .trails import Trail


class _Above:
    """The bound of a start vertex: above every weight, infinite ones
    included, with no arithmetic on the weights (1e16 + 1 == 1e16)."""

    __slots__ = ()
    # w >= _ABOVE falls back to this, called with w alone (a builtin is not
    # bound): False, as no weight is callable, and in C, where a method would
    # cost a Python frame per edge of every start vertex.
    __le__ = callable


_ABOVE = _Above()


class TrailEnumeration(NamedTuple):
    trails: list[Trail]
    truncated: bool


@dataclass
class EnumerationResult:
    per_vertex: list[int]
    optimum: int
    nodes_explored: int


def _rows(g: WeightedGraph) -> list[list[tuple[object, int, int]]]:
    """rows[u] = (weight, neighbour, arc) triples of u's edges, lightest first;
    edge i's arcs are i and ~i (= -i - 1), which index a list of 2q from both ends."""
    rows: list[list[tuple[object, int, int]]] = [[] for _ in range(g.n)]
    arc = 0  # cheaper than enumerate's nested unpacking on small graphs
    for (a, b), w in g.edges.items():
        rows[a].append((w, b, arc))
        rows[b].append((w, a, ~arc))
        arc += 1
    for row in rows:
        row.sort()  # distinct weights never compare neighbours
    return rows


def enumerate_dec_trails_from(g: WeightedGraph, v: int, cap: int = 100_000) -> TrailEnumeration:
    """All maximal strictly decreasing trails starting at v.

    Maximal means not extendable by any smaller-weight edge, matching how
    one would list trails by hand (prefixes of listed trails are omitted).
    Depth-first, neighbors visited in ascending vertex order, so the output
    order is reproducible.  Stops after cap trails and flags truncation.
    The graph must be valid and v one of its vertices.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if not 0 <= v < g.n:
        raise RankOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    rows = _rows(g.checked())
    trails: list[Trail] = []
    truncated = False

    def dfs(u: int, last_w, current: Trail) -> bool:
        nonlocal truncated
        extensions = sorted((nbr, w) for w, nbr, _ in rows[u] if last_w is None or w < last_w)
        if not extensions:
            if current:
                if len(trails) >= cap:
                    truncated = True
                    return False
                trails.append(list(current))
            return True
        for nbr, w in extensions:
            current.append((u, nbr))
            keep_going = dfs(nbr, w, current)
            current.pop()
            if not keep_going:
                return False
        return True

    dfs(v, None, [])
    del dfs  # dfs refers to itself through its closure cell; emptying the cell breaks the cycle
    return TrailEnumeration(trails=trails, truncated=truncated)


def brute_force_longest(g: WeightedGraph) -> EnumerationResult:
    """Exact longest-decreasing-trail length per start vertex and overall."""
    rows = _rows(g.checked())
    lightest = [row[0][0] if row else None for row in rows]
    below = [None] * (2 * len(g.edges))  # arc -> longest(its head, its weight), once walked

    def longest(u: int, last_w) -> tuple[int, int]:
        """(longest trail, prefixes visited) from u by edges lighter than last_w."""
        best = 0
        nodes = 1
        for w, nbr, arc in rows[u]:
            if w >= last_w:
                break
            if lightest[nbr] < w:
                sub = below[arc]
                if sub is None:
                    sub = below[arc] = longest(nbr, w)
                nodes += sub[1]
                if sub[0] >= best:
                    best = sub[0] + 1
            else:  # nbr has no edge lighter than w: a dead end, one node
                nodes += 1
                if not best:
                    best = 1
        return best, nodes

    per_vertex = []
    nodes = 0
    for v in range(g.n):
        best, count = longest(v, _ABOVE)
        per_vertex.append(best)
        nodes += count
    del longest  # as dfs above, or longest and the rows wait for the cyclic collector
    return EnumerationResult(
        per_vertex=per_vertex,
        optimum=max(per_vertex),
        nodes_explored=nodes,
    )
