"""Longest ordered trails by label propagation over edges in weight order.

Process the edges of a valid graph in ascending weight order.  After i
steps, labels[v] is the length of a longest strictly decreasing trail
starting at v that uses only the i lowest-weighted edges.  When the next
edge (u, v) arrives it outweighs everything processed so far, so the only
new trails it enables are "(u,v) then a previous best from v" and the
mirror image; hence the simultaneous update

    labels[u] <- max(labels[v] + 1, labels[u])
    labels[v] <- max(labels[u] + 1, labels[v])      (old labels[u]!)

with both right-hand sides reading the pre-step values.  A witness trail
per vertex is maintained by prepending the new step onto the other
endpoint's old witness whenever its label improves; ties keep the
incumbent witness so results are deterministic.

run_labeling_sorted, longest_ordered_trail, label_state_at, get_label and
final_label_lengths share one private fold, _fold, over ranked_edges: a
copy of the graph's kept order, its rank order when its weights are 1..q,
else its one sort; find_edge_by_rank indexes that order with no copy.
No module outside labeling calls _fold.
The extremal search, which folds millions of orders, writes out
labels-only copies of the update: per level of its depth-first walk in
extremal._search, and per sampled order in extremal._scan.  _fold keeps
each witness as a flat shared-tail cell, (u, v, rest) or None for the
empty trail, so an improvement costs one tuple instead of a copy of the
trail; a cell is unrolled into a list of (u, v) steps only when a caller
asks for it.
propagate_step keeps the step written out on plain lists: it is the
single-step reference the fold is tested against.

The maximum label after all q steps is the length of a longest strictly
decreasing trail in the whole graph; increasing trails are obtained from
decreasing witnesses via reverse_dual, since the optima coincide on
undirected graphs.  check_lower_bound, the decreasing report against the
paper's two floor-form bounds, lives here, beside the fold that computes
them; extremal re-exports it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import RankOutOfRangeError
from .graphs import EdgeKey, WeightedGraph, ranked_edges
from .trails import Order, Trail, reverse_dual, trail_json


class LabelState(NamedTuple):
    """Labels and witness trails after processing the `step` lowest edges."""

    step: int
    labels: list[int]
    witnesses: list[Trail]


class TrailReport(NamedTuple):
    kind: Order
    optimum: int
    start: int
    witness: Trail
    labels: list[int]
    bound_two_floor_q_over_n: int
    bound_floor_two_q_over_n: int

    @property
    def holds_a(self) -> bool:
        return self.optimum >= self.bound_two_floor_q_over_n

    @property
    def holds_b(self) -> bool:
        return self.optimum >= self.bound_floor_two_q_over_n

    @property
    def p_d(self) -> int:
        """The optimum, under the name check's report and perfbench read."""
        return self.optimum


def initial_state(g: WeightedGraph) -> LabelState:
    """Step-0 state: no edges processed, all labels 0, all witnesses empty."""
    return LabelState(step=0, labels=[0] * g.n, witnesses=[[] for _ in range(g.n)])


def find_edge_by_rank(g: WeightedGraph, rank: int) -> EdgeKey:
    """The unique edge of the given rank (1..q) in ascending weight order,
    endpoints in canonical (min, max) order.  In strict mode rank = weight."""
    if not 1 <= rank <= g.q:
        raise RankOutOfRangeError(f"rank {rank} outside 1..{g.q}")
    return g.checked()._ascending[rank - 1]


def propagate_step(state: LabelState, g: WeightedGraph) -> LabelState:
    """Process the next edge in rank order; returns a new state."""
    if state.step >= g.q:
        raise RankOutOfRangeError(f"all {g.q} edges already processed")
    u, v = find_edge_by_rank(g, state.step + 1)
    labels = list(state.labels)
    witnesses = list(state.witnesses)
    lu, lv = labels[u], labels[v]
    if lv + 1 > lu:
        labels[u] = lv + 1
        witnesses[u] = [(u, v)] + state.witnesses[v]
    if lu + 1 > lv:
        labels[v] = lu + 1
        witnesses[v] = [(v, u)] + state.witnesses[u]
    return LabelState(step=state.step + 1, labels=labels, witnesses=witnesses)


def _fold(n: int, ranked: Iterable[EdgeKey]) -> tuple[list[int], list]:
    """The label kernel: fold the update over edges given in ascending
    weight order.  Returns the labels and each vertex's witness cell.

    Cells nest as deep as their trail is long, so they are only ever
    unrolled: comparing or printing one recurses once per step.
    """
    labels = [0] * n
    cells: list = [None] * n
    for u, v in ranked:
        lu, lv = labels[u], labels[v]
        cu, cv = cells[u], cells[v]
        if lv >= lu:
            labels[u] = lv + 1
            cells[u] = (u, v, cv)
        if lu >= lv:
            labels[v] = lu + 1
            cells[v] = (v, u, cu)
    return labels, cells


def _unroll(cell) -> Trail:
    """The trail a witness cell stands for, first step first."""
    trail = []
    while cell is not None:
        a, b, cell = cell
        trail.append((a, b))
    return trail


def label_state_at(g: WeightedGraph, i: int) -> LabelState:
    """State after i applications of propagate_step from the zero state,
    computed by one fold over the i lowest-ranked edges of a valid graph."""
    if not 0 <= i <= g.q:
        raise RankOutOfRangeError(f"step {i} outside 0..{g.q}")
    labels, cells = _fold(g.n, ranked_edges(g.checked())[:i])
    return LabelState(step=i, labels=labels, witnesses=[_unroll(c) for c in cells])


def get_label(g: WeightedGraph, i: int, v: int) -> int:
    """Length of a longest strictly decreasing trail from v among the i
    lowest-weighted edges."""
    if not 0 <= v < g.n:
        raise RankOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    if not 0 <= i <= g.q:
        raise RankOutOfRangeError(f"step {i} outside 0..{g.q}")
    return _fold(g.n, ranked_edges(g.checked())[:i])[0][v]


def run_labeling_sorted(g: WeightedGraph) -> LabelState:
    """Full labeling of a valid graph in a single pass: label_state_at(g, q).
    Produces a state identical to q applications of propagate_step (which
    re-ranks at every step)."""
    return label_state_at(g, g.q)


def final_label_lengths(n: int, edges_in_order: Iterable[Sequence[int]]) -> list[int]:
    """Label lengths only: the update folded over edges given already in
    ascending weight order."""
    return _fold(n, edges_in_order)[0]


def longest_ordered_trail(g: WeightedGraph, kind: Order) -> TrailReport:
    """Optimum ordered-trail length with a witness, the final labels and
    the two floor-form lower bounds, which are computed here and nowhere
    else (check_lower_bound returns this report).

    The optimum is the maximum final label; the reported witness starts at
    the smallest vertex attaining it (for increasing trails, the dual of
    that vertex's decreasing witness, which therefore ends there).
    """
    labels, cells = _fold(g.n, ranked_edges(g.checked()))
    optimum = max(labels)
    best_v = labels.index(optimum)
    witness = _unroll(cells[best_v])
    if kind is Order.INCREASING:
        witness = reverse_dual(witness)
    start = witness[0][0] if witness else best_v
    return TrailReport(
        kind=kind,
        optimum=optimum,
        start=start,
        witness=witness,
        labels=labels,
        bound_two_floor_q_over_n=2 * (g.q // g.n),
        bound_floor_two_q_over_n=(2 * g.q) // g.n,
    )


def check_lower_bound(g: WeightedGraph) -> TrailReport:
    """Longest-trail length against both floor-form guarantees, as
    longest_ordered_trail reports them.

    bound a = 2*floor(q/n); bound b = floor(2q/n), never smaller than a.
    Both must hold on every valid graph: the label sum grows by at least 2
    per processed edge, so the final sum is >= 2q and some vertex carries a
    label of at least floor(2q/n).  A failure signals an implementation bug
    and is reported, not raised.  An invalid graph raises InvalidGraphError.
    """
    return longest_ordered_trail(g, Order.DECREASING)


def trail_report_json(report: TrailReport, g: WeightedGraph) -> dict:
    return {
        "schema": "trail-report/1",
        "kind": report.kind.value,
        "optimum": report.optimum,
        "start": report.start + 1,
        "trail": trail_json(g, report.witness, start=report.start),
        "labels": list(report.labels),
        "bound_2_floor_q_over_n": report.bound_two_floor_q_over_n,
        "bound_floor_2q_over_n": report.bound_floor_two_q_over_n,
    }
