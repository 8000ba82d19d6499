"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from monotrails import Mode, Order, WeightedGraph

# Denominators restricted to 2^a * 5^b so relaxed weights stay expressible
# as exact decimals in the edge-list format.
_DECIMAL_DENOMS = (1, 2, 4, 5, 8, 10, 20)


@st.composite
def strict_graphs(draw, min_n: int = 1, max_n: int = 7, min_m: int = 0):
    n = draw(st.integers(min_n, max_n))
    keys = list(combinations(range(n), 2))
    lo = min(min_m, len(keys))
    m = draw(st.integers(lo, len(keys)))
    if m:
        chosen = sorted(draw(st.lists(st.sampled_from(keys), unique=True, min_size=m, max_size=m)))
    else:
        chosen = []
    weights = draw(st.permutations(list(range(1, m + 1)))) if m else []
    return WeightedGraph(n=n, edges=dict(zip(chosen, weights)), mode=Mode.STRICT)


@st.composite
def relaxed_graphs(draw, min_n: int = 1, max_n: int = 6, min_m: int = 0):
    base = draw(strict_graphs(min_n=min_n, max_n=max_n, min_m=min_m))
    denom = draw(st.sampled_from(_DECIMAL_DENOMS))
    scale = draw(st.integers(1, 9))
    edges = {}
    for key, w in base.edges.items():
        value = Fraction(w * scale, denom)
        edges[key] = int(value) if value.denominator == 1 else value
    return WeightedGraph(n=base.n, edges=edges, mode=Mode.RELAXED)


# Relaxed weights that stress a float-first sort key: decimals whose doubles
# tie (all round to 1.0), integers beyond float range, rationals that
# underflow to 0.0, and ordinary values.
_FLOAT_TRAP_WEIGHTS = st.one_of(
    st.integers(1, 60).map(lambda k: Fraction(10**20 + k, 10**20)),
    st.integers(0, 60).map(lambda k: 10**400 + k),
    st.integers(1, 60).map(lambda k: Fraction(k, 10**400)),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.integers(1, 60),
)


@st.composite
def float_trap_graphs(draw, max_n: int = 8, distinct: bool = True):
    """Relaxed graphs over _FLOAT_TRAP_WEIGHTS; with distinct=False weights
    may repeat, which makes the graph invalid but still rankable."""
    n = draw(st.integers(2, max_n))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
    weights = draw(
        st.lists(_FLOAT_TRAP_WEIGHTS, min_size=len(keys), max_size=len(keys), unique=distinct)
    )
    return WeightedGraph(n=n, edges=dict(zip(keys, weights)), mode=Mode.RELAXED)


def any_graphs(**kwargs):
    return st.one_of(strict_graphs(**kwargs), relaxed_graphs(**kwargs))


@st.composite
def graph_and_decreasing_trail(draw, min_n: int = 2, max_n: int = 7):
    """A valid strict graph together with a (possibly empty) strictly
    decreasing trail in it, built by a random descent."""
    g = draw(strict_graphs(min_n=min_n, max_n=max_n, min_m=1))
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for (a, b), w in g.edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    v = draw(st.integers(0, g.n - 1))
    trail = []
    last = None
    while True:
        exts = [(nbr, w) for nbr, w in sorted(adj[v]) if last is None or w < last]
        if not exts or draw(st.booleans()):
            break
        nbr, w = draw(st.sampled_from(exts))
        trail.append((v, nbr))
        v, last = nbr, w
    return g, trail


@st.composite
def graph_and_arbitrary_steps(draw, max_n: int = 6):
    """A valid graph plus a step list that may be garbage (broken chains,
    absent edges, self-loops) for totality checks of the predicates."""
    g = draw(strict_graphs(min_n=1, max_n=max_n))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, max_n), st.integers(0, max_n)),
            max_size=6,
        )
    )
    return g, steps


orders = st.sampled_from([Order.DECREASING, Order.INCREASING])
