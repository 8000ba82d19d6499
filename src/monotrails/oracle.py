"""Brute-force ground truth for longest strictly decreasing trails.

Depth-first search over every decreasing extension, with no memoization and
no pruning beyond the definition itself, so it is slow (exponential; meant
for n up to ~9) but plainly correct -- the point is to differentially test
the label-propagation algorithm against it.  Because all weights are
distinct, extending only with strictly smaller weights already guarantees
the edges of a trail are pairwise distinct.

brute_force_longest scans each vertex's edges lightest first and stops at
the first edge that is not lighter than the one it arrived by: every later
edge is heavier still, so no extension is skipped.  A step into a vertex
whose lightest edge is the one just taken ends the trail there; it is
counted as a node of length 0 without a call.  nodes_explored is still the
number of trail prefixes the search visits, empty ones included.
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

    def __le__(self, other) -> bool:  # w >= _ABOVE falls back to this
        return False


_ABOVE = _Above()


class TrailEnumeration(NamedTuple):
    trails: list[Trail]
    truncated: bool


@dataclass
class EnumerationResult:
    per_vertex: list[int]
    optimum: int
    nodes_explored: int


def _rows(g: WeightedGraph) -> list[list[tuple[object, int]]]:
    """rows[u] = (weight, neighbour) pairs of u's edges, lightest first."""
    rows: list[list[tuple[object, int]]] = [[] for _ in range(g.n)]
    for (a, b), w in g.edges.items():
        rows[a].append((w, b))
        rows[b].append((w, a))
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
        extensions = sorted((nbr, w) for w, nbr in rows[u] if last_w is None or w < last_w)
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
    nodes = 0

    def longest(u: int, last_w) -> int:
        nonlocal nodes
        nodes += 1
        best = 0
        for w, nbr in rows[u]:
            if w >= last_w:
                break
            if lightest[nbr] < w:
                ext = 1 + longest(nbr, w)
                if ext > best:
                    best = ext
            else:  # nbr has no edge lighter than w: a dead end, one node
                nodes += 1
                if not best:
                    best = 1
        return best

    per_vertex = [longest(v, _ABOVE) for v in range(g.n)]
    del longest  # as dfs above, or longest and the rows wait for the cyclic collector
    return EnumerationResult(
        per_vertex=per_vertex,
        optimum=max(per_vertex),
        nodes_explored=nodes,
    )
