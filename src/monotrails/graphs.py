"""Edge-weighted undirected graphs with pairwise-distinct positive weights.

Vertices are dense integer indices 0..n-1; files and reports render them
1-based (v1..vn).  Each undirected edge is stored exactly once under its
canonical key (min(u,v), max(u,v)), so weight symmetry is structural and
"edge absent" is simply a missing key -- no in-band zero marker.

Two weight regimes are supported.  In strict mode the weight multiset must
be exactly {1..q} for q edges, so an edge's rank in ascending weight order
equals its weight.  Relaxed mode allows arbitrary pairwise-distinct
positive rationals; the trail algorithms only ever use the ascending weight
order, so both regimes share all downstream code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .errors import (
    DuplicateEdgeError,
    DuplicateWeightError,
    EdgeListParseError,
    GraphValidationError,
    InvalidVertexCountError,
    NonPositiveWeightError,
    NotAPermutationError,
    RankOutOfRangeError,
    SelfLoopError,
    TooManyEdgesError,
    VertexOutOfRangeError,
    WrongPermutationLengthError,
)

EdgeKey = tuple[int, int]
Weight = int | Fraction  # strictly positive; 0 is reserved to mean "absent"


class Mode(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical key for the undirected edge {u, v}; rejects self-loops."""
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u + 1}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable-by-convention weighted graph; mutate nothing after build.

    The constructor performs no checking so that tests and file parsing can
    materialize invalid graphs and feed them to validate().  All public
    builders in this module only ever return valid graphs.
    """

    n: int
    edges: dict[EdgeKey, Weight]
    mode: Mode

    @property
    def q(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def new_graph(n: int, mode: Mode = Mode.STRICT) -> WeightedGraph:
    """Empty graph on n >= 1 vertices."""
    if n < 1:
        raise InvalidVertexCountError(f"vertex count must be >= 1, got {n}")
    return WeightedGraph(n=n, edges={}, mode=mode)


def add_edge(g: WeightedGraph, u: int, v: int, w: Weight) -> WeightedGraph:
    """Return a new graph with the undirected edge {u, v} of weight w added."""
    for x in (u, v):
        if not 0 <= x < g.n:
            raise VertexOutOfRangeError(
                f"vertex index {x} out of range for n={g.n}"
            )
    key = edge_key(u, v)
    if key in g.edges:
        raise DuplicateEdgeError(f"edge v{key[0] + 1}-v{key[1] + 1} already present")
    if w <= 0:
        raise NonPositiveWeightError(f"weight must be > 0, got {w}")
    if w in g.edges.values():
        raise DuplicateWeightError(f"weight {w} already used")
    edges = dict(g.edges)
    edges[key] = w
    return WeightedGraph(n=g.n, edges=edges, mode=g.mode)


def validate(g: WeightedGraph) -> list[Violation]:
    """Check every graph invariant; empty list means the graph is valid.

    Strict mode additionally requires the weight multiset to be exactly
    {1..q} (so every weight value in range is hit by some edge).
    """
    out: list[Violation] = []
    if g.n < 1:
        out.append(Violation("invalid-vertex-count", f"n={g.n} < 1"))
    for (a, b), w in g.edges.items():
        if a == b:
            out.append(Violation("self-loop", f"edge at vertex {a + 1}"))
        elif a > b:
            out.append(Violation("non-canonical-edge", f"key ({a + 1},{b + 1}) not (min,max)"))
        if not (0 <= a < g.n and 0 <= b < g.n):
            out.append(Violation("vertex-out-of-range", f"edge ({a + 1},{b + 1}) vs n={g.n}"))
        if w <= 0:
            out.append(Violation("non-positive-weight", f"edge ({a + 1},{b + 1}) has weight {w}"))
    weights = list(g.edges.values())
    if len(set(weights)) != len(weights):
        seen: set[Weight] = set()
        for w in weights:
            if w in seen:
                out.append(Violation("duplicate-weight", f"weight {w} used more than once"))
            seen.add(w)
    if g.mode is Mode.STRICT and not out:
        if set(weights) != set(range(1, g.q + 1)):
            out.append(
                Violation(
                    "not-surjective",
                    f"strict weights must be exactly 1..{g.q}, got {sorted(weights)}",
                )
            )
    return out


def is_valid(g: WeightedGraph) -> bool:
    return not validate(g)


def ranked_edges(g: WeightedGraph) -> list[EdgeKey]:
    """Edge keys in ascending weight order; rank i edge is ranked_edges[i-1].

    In strict mode rank equals weight, and the integer weights are the sort
    key.  Relaxed weights sort by (float(w), w): a correctly rounded float
    never reverses an order, so weights whose floats differ are ordered by
    one float comparison and only weights whose floats tie are compared
    exactly.  A weight too large for a float falls back to the exact key.
    The order is the same as sorting by the weights themselves.
    """
    weights = g.edges
    if g.mode is Mode.RELAXED:
        try:
            return sorted(weights, key=lambda e: (float(weights[e]), weights[e]))
        except OverflowError:
            pass
    return sorted(weights, key=weights.__getitem__)


def weighted_subgraph(g: WeightedGraph, i: int) -> WeightedGraph:
    """Same vertices, only the i lowest-weighted edges retained (0 <= i <= q)."""
    if not 0 <= i <= g.q:
        raise RankOutOfRangeError(f"rank bound {i} outside 0..{g.q}")
    keep = ranked_edges(g)[:i]
    return WeightedGraph(n=g.n, edges={k: g.edges[k] for k in keep}, mode=g.mode)


def complete_graph(n: int, weights: list[int]) -> WeightedGraph:
    """Strict K_n with the given permutation of 1..n(n-1)/2.

    Weights bind to edge keys in lexicographic order:
    (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    if n < 1:
        raise InvalidVertexCountError(f"vertex count must be >= 1, got {n}")
    keys = list(combinations(range(n), 2))
    if len(weights) != len(keys):
        raise WrongPermutationLengthError(
            f"K_{n} has {len(keys)} edges, got {len(weights)} weights"
        )
    if sorted(weights) != list(range(1, len(keys) + 1)):
        raise NotAPermutationError(f"weights are not a permutation of 1..{len(keys)}")
    return WeightedGraph(n=n, edges=dict(zip(keys, weights)), mode=Mode.STRICT)


def random_graph(n: int, m: int, seed: int) -> WeightedGraph:
    """Strict graph with m uniform distinct edges and a uniform weight
    permutation of 1..m; identical (n, m, seed) always yields the identical
    graph (Mersenne Twister via random.Random, platform-independent)."""
    if n < 1:
        raise InvalidVertexCountError(f"vertex count must be >= 1, got {n}")
    possible = list(combinations(range(n), 2))
    if m > len(possible):
        raise TooManyEdgesError(f"{m} edges requested, K_{n} has only {len(possible)}")
    rng = random.Random(seed)
    chosen = sorted(rng.sample(possible, m))
    weights = list(range(1, m + 1))
    rng.shuffle(weights)
    return WeightedGraph(n=n, edges=dict(zip(chosen, weights)), mode=Mode.STRICT)


# --- edge-list text format ------------------------------------------------
#
#   c <text>        comment
#   p <n> <q>       header, exactly once, first non-comment line
#   e <u> <v> <w>   edge; u, v 1-based; w positive integer or decimal
#
# Unknown line types are a parse error naming the line.


def parse_edge_list(text: str, mode: Mode | None = None) -> WeightedGraph:
    """Parse the edge-list format into a validated graph.

    mode=None infers: strict when all weights are the integers 1..q,
    relaxed otherwise.  Passing a mode forces it (forcing strict on a
    non-{1..q} weighting fails validation).
    """
    n = None
    declared_q = None
    header_line = 0
    raw_edges: list[tuple[int, int, Weight]] = []
    violations: list[Violation] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise EdgeListParseError(line_no, "duplicate 'p' header")
            fields = rest.split()
            if len(fields) != 2:
                raise EdgeListParseError(line_no, "header must be 'p <n> <q>'")
            try:
                n, declared_q = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListParseError(line_no, "header fields must be integers") from None
            header_line = line_no
            continue
        if kind == "e":
            if n is None:
                raise EdgeListParseError(line_no, "edge before 'p' header")
            fields = rest.split()
            if len(fields) != 3:
                raise EdgeListParseError(line_no, "edge line must be 'e <u> <v> <w>'")
            try:
                u, v = int(fields[0]) - 1, int(fields[1]) - 1
            except ValueError:
                raise EdgeListParseError(line_no, "endpoints must be integers") from None
            w = _parse_weight(fields[2], line_no)
            raw_edges.append((u, v, w))
            continue
        raise EdgeListParseError(line_no, f"unknown line type {kind!r}")

    if n is None:
        raise EdgeListParseError(0, "missing 'p' header")
    if declared_q != len(raw_edges):
        raise EdgeListParseError(
            header_line, f"header declares {declared_q} edges, found {len(raw_edges)}"
        )

    # Materialize permissively, then report all semantic problems at once.
    edges: dict[EdgeKey, Weight] = {}
    for u, v, w in raw_edges:
        if u == v:
            violations.append(Violation("self-loop", f"edge at vertex {u + 1}"))
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            violations.append(
                Violation("duplicate-edge", f"edge v{key[0] + 1}-v{key[1] + 1} repeated")
            )
            continue
        edges[key] = w

    if mode is None:
        integral = all(isinstance(w, int) for w in edges.values())
        mode = (
            Mode.STRICT
            if integral and set(edges.values()) == set(range(1, len(edges) + 1))
            else Mode.RELAXED
        )
    g = WeightedGraph(n=n, edges=edges, mode=mode)
    violations.extend(validate(g))
    if violations:
        raise GraphValidationError(violations)
    return g


def _parse_weight(token: str, line_no: int) -> Weight:
    if "/" in token:
        raise EdgeListParseError(line_no, f"weight {token!r} must be an integer or decimal")
    whole, dot, frac = token.partition(".")
    if not dot:
        try:
            return int(token)
        except ValueError:
            pass
    elif token.isascii() and whole.isdigit() and frac.isdigit():
        # Plain decimal "123.456": the value Fraction(token) gives, without its regex.
        w = Fraction(int(whole + frac), 10 ** len(frac))
        return int(w) if w.denominator == 1 else w
    try:
        w = Fraction(token)
    except ValueError:
        raise EdgeListParseError(line_no, f"cannot parse weight {token!r}") from None
    return int(w) if w.denominator == 1 else w


def render_edge_list(g: WeightedGraph) -> str:
    """Render a graph in the edge-list format (round-trips through parse).

    Relaxed weights render as exact decimals; a rational whose reduced
    denominator has a prime factor other than 2 or 5 has no finite decimal
    form and is rejected.
    """
    lines = [f"p {g.n} {g.q}"]
    for (a, b) in sorted(g.edges):
        lines.append(f"e {a + 1} {b + 1} {_weight_str(g.edges[(a, b)])}")
    return "\n".join(lines) + "\n"


def _weight_str(w: Weight) -> str:
    if isinstance(w, int) or w.denominator == 1:
        return str(int(w))
    den = w.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"weight {w} has no exact decimal rendering")
    shift = max(twos, fives)
    digits = w.numerator * 10**shift // w.denominator
    text = str(digits).rjust(shift + 1, "0")
    return f"{text[:-shift]}.{text[-shift:]}"
