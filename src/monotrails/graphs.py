"""Edge-weighted undirected graphs with pairwise-distinct positive weights.

Vertices are dense integer indices 0..n-1; files and reports render them
1-based (v1..vn).  Each undirected edge is stored exactly once under its
canonical key (min(u,v), max(u,v)), so weight symmetry is structural and
"edge absent" is simply a missing key -- no in-band zero marker.

Two weight regimes are supported.  In strict mode the weight multiset must
be exactly {1..q} for q edges, so an edge's rank in ascending weight order
equals its weight.  Relaxed mode allows arbitrary pairwise-distinct
positive rationals; the trail algorithms only ever use the ascending weight
order, so both regimes share all downstream code.  A parsed graph's mode is
read from its weights, never given: strict exactly when they are 1..q.
A graph keeps its ascending order: weights that are the ints 1..q are
placed by rank once, any others sorted once; validate, ranked_edges and
labeling.find_edge_by_rank all read that one order.

Weights are exact: an integral one is an int, any other the Decimal of its
token (m*10^e, compared in C, never put through arithmetic, printed in its
Fraction form "15432/125"), read by one rule on every Python: see
_parse_weight.  decimal and fractions are imported by _load_exact, the first
time a weight that is not an int is read, ranked, checked or printed.

The edge-list parser is one line loop, the only code that reads the
comments and the header, names a bad line or lists parse-time violations.
When the header's edge count equals the number of lines after it, the loop
first hands those lines to the column reader, which converts a few
thousand lines at a time by one whitespace split, one map over the weight
column (a column of digits and points is checked as one string, then
mapped to Decimal) and a per-file index that converts each distinct vertex
token once, so the edge keys share one int per vertex; the loop reads on by
itself only if that reader answers None.
The header rejects a vertex count above MAX_VERTICES before anything is
allocated by it, and both readers reject a weight beyond MAX_WEIGHT_DIGITS
before its power of ten is built.  random_graph rejects an n above
MAX_VERTICES and an edge count above MAX_EDGES before drawing.
"""

from __future__ import annotations

import random
import re
from enum import Enum
from functools import cached_property
from itertools import combinations, compress, count, starmap
from math import isqrt
from operator import eq, lt
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    EdgeListParseError,
    GraphValidationError,
    InvalidGraphError,
    MonotrailsError,
    RankOutOfRangeError,
)

EdgeKey = tuple[int, int]
if TYPE_CHECKING:
    from decimal import Decimal, InvalidOperation
    from fractions import Fraction

    # Strictly positive; 0 is reserved to mean "absent".  A parsed non-integral
    # weight is a Decimal; a hand-built graph may also hold a Fraction.  All are exact.
    Weight = int | Decimal | Fraction
else:
    Decimal = InvalidOperation = Fraction = None  # bound by _load_exact


def _load_exact() -> None:
    """Import decimal and fractions into this module, once per process: the
    first time a weight that is not an int is read, ranked, checked or
    printed.  A graph of int weights loads neither."""
    global Decimal, InvalidOperation, Fraction
    if Decimal is None:
        from decimal import Decimal, InvalidOperation
        from fractions import Fraction


class Mode(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class _GraphFields(NamedTuple):
    n: int
    edges: dict[EdgeKey, Weight]
    mode: Mode


class WeightedGraph(_GraphFields):
    """Weighted graph with read-only fields; never mutate its edge dict.

    The constructor performs no checking and takes the mode as given, so
    tests and file parsing can materialize invalid graphs.  parse_edge_list
    (mode read from the weights), complete_graph and random_graph build
    valid graphs; add_edge refuses an edge unless the graph it gives, read
    as relaxed, passes validate, so a strict graph built by new_graph and
    add_edge can fail validate only as not-surjective.  Weights that are
    exactly the ints 1..q are placed by rank once, any others sorted once,
    and the order is kept.  A graph is an (n, edges, mode) tuple, so it
    also has len() 3 and iterates over its fields; what it keeps lives in
    its __dict__, which assignment cannot reach.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def q(self) -> int:
        return len(self.edges)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate(self), computed once and kept: a graph never changes."""
        return tuple(validate(self))

    @cached_property
    def _rank_order(self) -> list[EdgeKey] | None:
        """_placed(self.edges), kept: a strict graph is ranked once."""
        return _placed(self.edges)

    @cached_property
    def _ascending(self) -> list[EdgeKey]:
        """The edges in ascending weight, kept and shared (read it, never
        mutate it): the rank order, else one sort by the weight itself, an
        exact comparison."""
        order = self._rank_order
        return sorted(self.edges, key=self.edges.__getitem__) if order is None else order

    def checked(self) -> WeightedGraph:
        """self when it is valid; else InvalidGraphError with its violations."""
        if self.violations:
            raise InvalidGraphError(self.violations)
        return self


def _placed(edges: dict[EdgeKey, Weight]) -> list[EdgeKey] | None:
    """The edges placed at index w - 1 when the weights are exactly the ints
    1..q, else None.  q weights in 1..q fill every place only if they are
    distinct."""
    q = len(edges)
    order: list = [None] * q
    for edge, w in edges.items():
        if type(w) is not int or not 0 < w <= q:
            return None
        order[w - 1] = edge
    return None if None in order else order


class Violation(NamedTuple):
    kind: str
    detail: str


def new_graph(n: int, mode: Mode = Mode.STRICT) -> WeightedGraph:
    """Empty graph on n >= 1 vertices."""
    if n < 1:
        raise MonotrailsError(f"vertex count must be >= 1, got {n}")
    return WeightedGraph(n=n, edges={}, mode=mode)


def add_edge(g: WeightedGraph, u: int, v: int, w: Weight) -> WeightedGraph:
    """Return a new graph with the undirected edge {u, v} of weight w added.

    A key already present is refused with the duplicate-edge violation the
    parser reports; the new graph is then checked by validate, read as
    relaxed, so every other fault (an endpoint out of range, a self-loop, a
    weight that is not positive or already used) raises InvalidGraphError
    with validate's violations.
    """
    key = (u, v) if u < v else (v, u)
    if key in g.edges:
        detail = f"edge v{key[0] + 1}-v{key[1] + 1} repeated"
        raise InvalidGraphError([Violation("duplicate-edge", detail)])
    edges = dict(g.edges)
    edges[key] = w
    violations = WeightedGraph(n=g.n, edges=edges, mode=Mode.RELAXED).violations
    if violations:
        raise InvalidGraphError(violations)
    return WeightedGraph(n=g.n, edges=edges, mode=g.mode)


def validate(g: WeightedGraph) -> list[Violation]:
    """Check every graph invariant; empty list means the graph is valid.

    Strict mode additionally requires the weights to be exactly the ints
    1..q: the graph's rank order must place every edge.

    The valid case is decided in bulk (see _bulk_valid); only a graph that
    fails there goes through the per-edge loop, which lists the violations.
    """
    if _bulk_valid(g):
        return []
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
            detail = f"edge ({a + 1},{b + 1}) has weight {_rational(w)}"
            out.append(Violation("non-positive-weight", detail))
    seen: set[Weight] = set()
    for w in g.edges.values():
        if w in seen:
            detail = f"weight {_rational(w)} used more than once"
            out.append(Violation("duplicate-weight", detail))
        seen.add(w)
    if g.mode is Mode.STRICT and not out and g._rank_order is None:
        detail = f"strict weights must be exactly 1..{g.q}, got {sorted(g.edges.values())}"
        out.append(Violation("not-surjective", detail))
    return out


def _bulk_valid(g: WeightedGraph) -> bool:
    """True when validate's loop would find nothing, decided over whole
    columns: the keys by one 0 <= a < b < n pass, the weights by the rank
    order, or in relaxed mode by sign and distinctness.  False may still be
    a valid graph (weights of other types); the loop then decides."""
    n, edges = g.n, g.edges
    return (
        n >= 1
        and all(0 <= a < b < n for a, b in edges)
        and (g._rank_order is not None or (g.mode is Mode.RELAXED and _distinct_positive(g)))
    )


def _rational(w: Weight) -> int | Fraction:
    """w as an int or a Fraction: a Decimal becomes the Fraction of its
    value, so it prints as one ("3/2", not "1.50") whichever type holds it."""
    if type(w) is int:
        return w
    _load_exact()
    return Fraction(w) if type(w) is Decimal else w


def _distinct_positive(g: WeightedGraph) -> bool:
    """True when the int, Decimal and Fraction weights are pairwise
    distinct and > 0, decided from the kept weight order: the first weight
    is > 0 and each is below the next, so no weight is hashed.  Weights of
    any other type answer False and go to the per-edge loop."""
    edges = g.edges
    others = set(map(type, edges.values())) - {int}
    if others:
        _load_exact()
        if not others <= {Decimal, Fraction}:
            return False
    weights = list(map(edges.__getitem__, g._ascending))
    return not weights or (weights[0] > 0 and all(map(lt, weights, weights[1:])))


def ranked_edges(g: WeightedGraph) -> list[EdgeKey]:
    """Edge keys in ascending weight order; rank i edge is ranked_edges[i-1].

    A copy of the graph's kept order: its rank order when the weights are
    exactly the ints 1..q, which are never sorted, else its one sort by the
    weight itself, an exact comparison, whatever the mode.
    """
    return g._ascending.copy()


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
        raise MonotrailsError(f"vertex count must be >= 1, got {n}")
    q = n * (n - 1) // 2  # counted before any of the q keys is listed
    if len(weights) != q:
        raise MonotrailsError(f"K_{n} has {q} edges, got {len(weights)} weights")
    g = WeightedGraph(n=n, edges=dict(zip(combinations(range(n), 2), weights)), mode=Mode.STRICT)
    if g._rank_order is None:
        raise MonotrailsError(f"weights are not a permutation of 1..{q}")
    return g


def random_graph(n: int, m: int, seed: int) -> WeightedGraph:
    """Strict graph with m uniform distinct edges and a uniform weight
    permutation of 1..m; identical (n, m, seed) always yields the identical
    graph (Mersenne Twister via random.Random, platform-independent)."""
    if n < 1:
        raise MonotrailsError(f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise MonotrailsError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )
    if m < 0:
        raise MonotrailsError(f"edge count must be >= 0, got {m}")
    total = n * (n - 1) // 2
    if m > total:
        raise MonotrailsError(f"{m} edges requested, K_{n} has only {total}")
    if m > MAX_EDGES:
        raise MonotrailsError(f"{m} edges requested, above the limit of {MAX_EDGES}")
    rng = random.Random(seed)
    # sample() reads only the population's length and items, so sampling
    # pair indices draws what sampling the pair list itself would.
    chosen = [_pair_at(n, total, i) for i in sorted(rng.sample(range(total), m))]
    weights = list(range(1, m + 1))
    rng.shuffle(weights)
    return WeightedGraph(n=n, edges=dict(zip(chosen, weights)), mode=Mode.STRICT)


def _pair_at(n: int, total: int, i: int) -> EdgeKey:
    """The i-th pair of combinations(range(n), 2), in O(1) memory.

    Counted from the end, row u holds the last n-1-u pairs, so the row of
    the j-th pair from the end is the largest k with k(k+1)/2 <= j.
    """
    j = total - 1 - i
    k = (isqrt(8 * j + 1) - 1) // 2
    return n - 2 - k, n - 1 - (j - k * (k + 1) // 2)


# --- edge-list text format ------------------------------------------------
#
#   c <text>        comment
#   p <n> <q>       header, exactly once, first non-comment line
#   e <u> <v> <w>   edge; u, v 1-based; w positive integer or decimal
#
# Unknown line types are a parse error naming the line.

MAX_VERTICES = 10**7  # largest n of a header or random_graph; the label fold allocates O(n)
MAX_EDGES = 10**7  # most edges random_graph or extremal.complete_structure builds
# Most digits of a plain integer or decimal, largest len(m) + |x| of any other
# form "<m>e<x>" (len(m) without an exponent): every accepted weight then
# prints within Python's 4,300-digit int-to-str limit, and no larger 10**|x|.
MAX_WEIGHT_DIGITS = 4300
_STRAY_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")  # a "_" without a digit on each side
_COLUMN_CHUNK = 4096  # body lines the column path converts at a time


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse the edge-list format into a validated graph.

    The mode is read from the weights: strict when they are exactly the
    integers 1..q, relaxed otherwise.  A header n above MAX_VERTICES is a
    parse error on the header line.
    """
    n, edges, violations = _parse_lines(text.splitlines())
    order = _placed(edges)
    g = WeightedGraph(n=n, edges=edges, mode=Mode.RELAXED if order is None else Mode.STRICT)
    g.__dict__["_rank_order"] = order  # the placement that chose the mode, kept
    violations.extend(g.violations)
    if violations:
        raise GraphValidationError(violations)
    return g


def _parse_header(rest: str, line_no: int) -> tuple[int, int]:
    """(n, declared q) from the text after 'p'."""
    fields = rest.split()
    if len(fields) != 2:
        raise EdgeListParseError(line_no, "header must be 'p <n> <q>'")
    try:
        n, declared_q = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListParseError(line_no, "header fields must be integers") from None
    if n > MAX_VERTICES:
        raise EdgeListParseError(
            line_no, f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )
    return n, declared_q


def _parse_columns(lines: list[str], start: int) -> dict[EdgeKey, Weight] | None:
    """The column reader: the edges of lines[start:], the lines after the
    header, when each is a well-formed 'e' line of a distinct edge with
    u < v, else None.

    The body is read a chunk at a time as one whitespace split, so each
    chunk's tokens are four columns.  Each distinct vertex token is
    converted once per file, so the edge keys share one int per token.  Any
    failed check (a line of another kind, a bad token, u >= v, a repeated
    edge) answers None, and the line loop then reads the body and names the
    fault.
    """
    edges: dict[EdgeKey, Weight] = {}
    index: dict[str, int] = {}  # vertex token -> 0-based index
    vertex = index.__getitem__
    i = start
    while i < len(lines):  # a stepped range costs more than this on a one-chunk body
        chunk = lines[i : i + _COLUMN_CHUNK]
        i += _COLUMN_CHUNK
        body = "\n" + "\n".join(chunk)
        # Every line starts "e ".  A line with other than four fields then
        # shifts a later line's "e" into a number column, where it fails to
        # convert, so the total token count stands for the per-line count.
        if body.count("\ne ") != len(chunk):
            return None
        tokens = body.split()
        if len(tokens) != 4 * len(chunk):
            return None
        us, vs = tokens[1::4], tokens[2::4]
        try:
            for token in us + vs:
                if token not in index:
                    index[token] = int(token) - 1
        except ValueError:
            return None
        try:
            weights = list(map(int, tokens[3::4]))
        except ValueError:
            weights = _decimal_column(tokens[3::4])
            if weights is None:
                return None
        edges.update(zip(zip(map(vertex, us), map(vertex, vs)), weights))
    return edges if len(edges) == len(lines) - start and all(starmap(lt, edges)) else None


def _decimal_column(column: list[str]) -> list[Weight] | None:
    """The weights of a column of digits and points ("51", "123.456", ".5"),
    each a Decimal or, when integral, an int, as _parse_weight gives them,
    checked as one string of ASCII digits, points and spaces; None when a
    token has another form or is over _parse_weight's limit, and the line
    loop then reads the file.  That limit counts the digits of a token with
    an inner point and the characters of any other ("5.", ".5", an integer).
    Decimal refuses a token of two points or of a point alone, and reads
    "5." as 5, the int _parse_weight gives.
    """
    text = " " + " ".join(column)
    if (
        not text.isascii()
        or text.encode().translate(None, b"0123456789. ")
        or max(map(len, column)) > MAX_WEIGHT_DIGITS
        and any(len(t) - ("." in t[1:-1]) > MAX_WEIGHT_DIGITS for t in column)
    ):
        return None
    _load_exact()
    try:
        weights = list(map(Decimal, column))
    except InvalidOperation:
        return None
    for i in compress(count(), map(eq, weights, map(Decimal.to_integral_value, weights))):
        weights[i] = int(weights[i])
    return weights


def _parse_lines(lines: list[str]):
    """The line loop: (n, edges, violations) for any file, or the parse
    error that names its first bad line.  A body of exactly the declared
    edge count goes to the column reader first; the loop reads on from the
    header only when that answers None."""
    n = None
    declared_q = None
    header_line = 0
    count = 0
    edges: dict[EdgeKey, Weight] = {}
    violations: list[Violation] = []

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise EdgeListParseError(line_no, "duplicate 'p' header")
            n, declared_q = _parse_header(rest, line_no)
            header_line = line_no
            if declared_q == len(lines) - line_no:
                columns = _parse_columns(lines, line_no)
                if columns is not None:
                    return n, columns, violations
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
            count += 1
            # Materialize permissively; validation reports the rest at once.
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
            continue
        raise EdgeListParseError(line_no, f"unknown line type {kind!r}")

    if n is None:
        raise EdgeListParseError(0, "missing 'p' header")
    if declared_q != count:
        raise EdgeListParseError(
            header_line, f"header declares {declared_q} edges, found {count}"
        )
    return n, edges, violations


def _parse_weight(token: str, line_no: int) -> Weight:
    """int(token), else the finite Decimal(token) with every "_" between two
    digits, an int when integral.  Plain digits, with or without one inner
    point, may number MAX_WEIGHT_DIGITS; any other "<m>e<x>", len(m) + |x|."""
    if "/" in token:
        raise EdgeListParseError(line_no, f"weight {token!r} must be an integer or decimal")
    whole, dot, frac = token.partition(".")
    if not dot:
        try:
            return int(token)
        except ValueError:
            pass
    _load_exact()
    try:  # every error below, too many digits for int() included, is "cannot parse"
        if token.isascii() and whole.isdigit() and (frac.isdigit() or not dot):
            if len(whole) + len(frac) > MAX_WEIGHT_DIGITS:
                raise ValueError
            w = Decimal(token)
        elif "_" in token and _STRAY_UNDERSCORE.search(token):  # Decimal skips any "_"
            raise ValueError
        else:
            cut = max(token.rfind("e"), token.rfind("E"))
            mantissa, exponent = (token[:cut], int(token[cut + 1 :])) if cut > 0 else (token, 0)
            if len(mantissa) + abs(exponent) > MAX_WEIGHT_DIGITS:
                Decimal(mantissa + "e0")  # InvalidOperation unless only the size is at fault
                raise EdgeListParseError(
                    line_no, f"weight {token!r} is beyond the limit of {MAX_WEIGHT_DIGITS} digits"
                )
            if not (w := Decimal(token)).is_finite():
                raise ValueError
    except (ValueError, InvalidOperation):
        raise EdgeListParseError(line_no, f"cannot parse weight {token!r}") from None
    return int(w) if w == w.to_integral_value() else w


def render_edge_list(g: WeightedGraph) -> str:
    """Render a graph in the edge-list format.  Parsing the text gives back
    n and the weights; the mode is read again from the weights, so a
    relaxed-labelled graph whose weights are 1..q comes back strict.

    Relaxed weights render as exact decimals; a rational whose reduced
    denominator has a prime factor other than 2 or 5 has no finite decimal
    form and is rejected.
    """
    lines = [f"p {g.n} {g.q}"]
    for (a, b) in sorted(g.edges):
        lines.append(f"e {a + 1} {b + 1} {_weight_str(g.edges[(a, b)])}")
    return "\n".join(lines) + "\n"


def _weight_str(w: Weight) -> str:
    w = _rational(w)  # the digits the Fraction form gives: "1.5", not "1.50"
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
