"""Trails with strictly monotone edge weights, and their duality transform.

A trail is a list of directed (tail, head) steps.  Direction matters even
though edges are undirected: reading a strictly decreasing trail backwards
yields a strictly increasing one, so the two orders are interchangeable via
reverse_dual().  Edge lookups canonicalize each step to (min, max).

Distinctness of the underlying edges never needs an explicit check here:
repeating an undirected edge repeats its weight, which breaks strict
monotonicity, so every trail accepted by the predicates automatically uses
pairwise-distinct edges.
"""

from __future__ import annotations

from enum import Enum
from math import inf

from .graphs import WeightedGraph

Step = tuple[int, int]
Trail = list[Step]


class Order(Enum):
    DECREASING = "dec"
    INCREASING = "inc"


def _step_weight(g: WeightedGraph, step: Step):
    """Weight of the step's undirected edge, or None if not an edge of g."""
    u, v = step
    if u == v:
        return None
    return g.edges.get((u, v) if u < v else (v, u))


def is_ordered_trail(g: WeightedGraph, trail: Trail, kind: Order) -> bool:
    """Stepwise check: each edge present, endpoints chain, adjacent weights
    strictly monotone per kind.  Total: malformed input yields False."""
    prev_w = None
    prev_head = None
    for step in trail:
        w = _step_weight(g, step)
        if w is None:
            return False
        if prev_head is not None and step[0] != prev_head:
            return False
        if prev_w is not None:
            if kind is Order.DECREASING and not w < prev_w:
                return False
            if kind is Order.INCREASING and not w > prev_w:
                return False
        prev_w = w
        prev_head = step[1]
    return True


def reverse_dual(trail: Trail) -> Trail:
    """Reverse the step order and swap each step's endpoints.

    Turns a strictly decreasing trail into a strictly increasing one (and
    vice versa); applying it twice gives back the original trail.
    """
    return [(v, u) for (u, v) in reversed(trail)]


def drop_prefix(trail: Trail, k: int) -> Trail:
    """Suffix of the trail after removing the first k steps.

    Every suffix of an ordered trail is an ordered trail of the same kind.
    """
    if not 0 <= k <= len(trail):
        raise IndexError(f"drop count {k} out of range for trail of length {len(trail)}")
    return trail[k:]


def trail_weights(g: WeightedGraph, trail: Trail) -> list:
    """Weights along the trail; raises KeyError on steps not in g."""
    out = []
    for step in trail:
        w = _step_weight(g, step)
        if w is None:
            raise KeyError(f"step {step} is not an edge of the graph")
        out.append(w)
    return out


def trail_json(g: WeightedGraph, trail: Trail, start: int | None = None) -> dict:
    """Trail rendering for reports: 1-based vertices, JSON-safe weights.

    For an empty trail the start vertex must be supplied explicitly.
    Non-integer weights are emitted as floats (display only; the edge-list
    format is the exact round-trip carrier); one beyond float range, or so
    small that its float is 0.0, raises ValueError.  float() raises
    OverflowError on such a Fraction but gives inf for such a Decimal.
    """
    if trail:
        start = trail[0][0]
    elif start is None:
        raise ValueError("empty trail needs an explicit start vertex")
    vertices = [start + 1] + [head + 1 for (_, head) in trail]
    try:
        weights = [w if isinstance(w, int) else float(w) for w in trail_weights(g, trail)]
        if inf in weights:
            raise OverflowError
    except OverflowError:
        raise ValueError("a trail weight is beyond float range and has no JSON number") from None
    if 0.0 in weights:  # only a float can be 0 here: an int weight is positive
        raise ValueError("a trail weight is below the smallest float and has no JSON number")
    return {
        "start": start + 1,
        "vertices": vertices,
        "weights": weights,
        "length": len(trail),
    }
