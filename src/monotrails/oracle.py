"""Brute-force ground truth for longest strictly decreasing trails.

The plain search follows every strictly decreasing extension, with no
pruning beyond the definition itself, so it is plainly correct -- the point
is to differentially test the label-propagation algorithm against it.
Because all weights are distinct, extending only with strictly smaller
weights already guarantees the edges of a trail are pairwise distinct.

brute_force_longest finds what that search finds in one pass, without
recursion.  Group the decreasing trails from a vertex by their first arc
(an edge with a direction), the empty trail in a group of its own with
length 0 and count 1.  A trail that starts with the arc u -> v of weight w
goes on with a trail from one of v's groups lighter than w, the empty one
included, so

    longest(u -> v) = 1 + the longest of those groups
    count(u -> v)   = the sum of their counts

Each arc on the right is lighter than u -> v, so the pass takes the edges
in ascending weight, both arcs of each: v's groups lighter than w are
exactly those it holds so far.  The weights are sorted here, with no
ordering code shared with the algorithm under test.  per_vertex[u] is the
longest of u's groups, and nodes_explored the sum of all counts: the
lengths of the plain search and the number of trail prefixes it visits, one
per call.  Keeping that count lets `oracle` print what it always printed
and the tests compare the pass with a plain recursive search call for call.
The count grows exponentially; the pass takes O(sum of deg^2) time.

enumerate_dec_trails_from lists the trails themselves, depth-first from an
explicit stack.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RankOutOfRangeError
from .graphs import WeightedGraph
from .trails import Trail


class TrailEnumeration(NamedTuple):
    trails: list[Trail]
    truncated: bool


class EnumerationResult(NamedTuple):
    per_vertex: list[int]
    optimum: int
    nodes_explored: int


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
    steps: list[list[tuple[int, object]]] = [[] for _ in range(g.n)]
    for (a, b), w in g.checked().edges.items():
        steps[a].append((b, w))
        steps[b].append((a, w))
    for row in steps:
        row.sort(reverse=True)  # highest neighbour first, so the stack pops the lowest first
    trails: list[Trail] = []
    stack = [([(v, nbr)], nbr, w) for nbr, w in steps[v]]  # (trail, its end, its last weight)
    while stack:
        trail, u, last_w = stack.pop()
        extensions = [(trail + [(u, nbr)], nbr, w) for nbr, w in steps[u] if w < last_w]
        if extensions:
            stack += extensions
        elif len(trails) == cap:
            return TrailEnumeration(trails=trails, truncated=True)
        else:
            trails.append(trail)
    return TrailEnumeration(trails=trails, truncated=False)


def brute_force_longest(g: WeightedGraph) -> EnumerationResult:
    """Exact longest-decreasing-trail length per start vertex and overall."""
    edges = g.checked().edges
    keys = list(edges)
    weights = list(edges.values())
    # Per vertex, its groups' longest trails and counts: the empty trail's,
    # then each arc's as the pass takes it, so in ascending weight.
    longest = [[0] for _ in range(g.n)]
    counts = [[1] for _ in range(g.n)]
    for i in sorted(range(len(keys)), key=weights.__getitem__):
        a, b = keys[i]
        ab, ab_count = 1 + max(longest[b]), sum(counts[b])
        ba, ba_count = 1 + max(longest[a]), sum(counts[a])
        longest[a].append(ab)
        counts[a].append(ab_count)
        longest[b].append(ba)
        counts[b].append(ba_count)
    per_vertex = list(map(max, longest))
    return EnumerationResult(
        per_vertex=per_vertex,
        optimum=max(per_vertex),
        nodes_explored=sum(map(sum, counts)),
    )
