"""Brute-force enumeration: goldens, maximality, and differential checks."""

import gc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Mode,
    Order,
    WeightedGraph,
    add_edge,
    brute_force_longest,
    complete_graph,
    enumerate_dec_trails_from,
    is_ordered_trail,
    new_graph,
    random_graph,
    ranked_edges,
    run_labeling_sorted,
    weighted_subgraph,
)
from monotrails.errors import InvalidGraphError, RankOutOfRangeError

from strategies import any_graphs, float_trap_graphs, strict_graphs


def plain_longest(g):
    """The specification of brute_force_longest: a plain recursive search
    in which every call is one trail prefix and tries every lighter edge at
    its end.  Returns (per_vertex, optimum, nodes_explored)."""
    adj = [[] for _ in range(g.n)]
    for (a, b), w in g.checked().edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    nodes = 0

    def longest(u, last_w):
        nonlocal nodes
        nodes += 1
        best = 0
        for nbr, w in adj[u]:
            if last_w is None or w < last_w:
                best = max(best, 1 + longest(nbr, w))
        return best

    per_vertex = [longest(v, None) for v in range(g.n)]
    return per_vertex, max(per_vertex), nodes


def folded_prefix_count(g):
    """The specification of nodes_explored on graphs too big for
    plain_longest: cnt[u] counts the decreasing trail prefixes from u, the
    empty one included, over the edges folded so far.  Each edge is heavier
    than all before it, so it can only be a prefix's first step: u -> v
    followed by any prefix from v, and v -> u likewise."""
    cnt = [1] * g.n
    for u, v in ranked_edges(g):
        cnt[u], cnt[v] = cnt[u] + cnt[v], cnt[v] + cnt[u]
    return sum(cnt)


def plain_trails(g, v, cap=100_000):
    """The specification of enumerate_dec_trails_from: a plain recursive
    search that tries the lighter edges at a trail's end in ascending
    neighbour order and lists each trail it cannot extend.  Returns the
    first cap of them and whether there were more."""
    adj = [[] for _ in range(g.n)]
    for (a, b), w in g.checked().edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    maximal = []

    def walk(u, last_w, trail):
        steps = sorted((nbr, w) for nbr, w in adj[u] if last_w is None or w < last_w)
        for nbr, w in steps:
            walk(nbr, w, trail + [(u, nbr)])
        if not steps and trail:
            maximal.append(trail)

    walk(v, None, [])
    return maximal[:cap], len(maximal) > cap


def falling_path(n):
    """The path v1-v2-...-vn weighted n-1 down to 1: one decreasing trail
    of n-1 steps from v1, longer than Python's default recursion limit."""
    edges = {(i, i + 1): n - 1 - i for i in range(n - 1)}
    return WeightedGraph(n=n, edges=edges, mode=Mode.STRICT)


class TestEnumerateDecTrailsFrom:
    def test_four_trails_from_v3_in_pruned_k4(self, k4_sub5):
        result = enumerate_dec_trails_from(k4_sub5, 2)
        assert not result.truncated
        expected = {
            ((2, 3),),                    # v3-v4
            ((2, 0), (0, 1)),             # v3-v1-v2
            ((2, 1), (1, 0)),             # v3-v2-v1
            ((2, 1), (1, 3), (3, 2)),     # v3-v2-v4-v3
        }
        assert {tuple(t) for t in result.trails} == expected

    def test_two_trails_from_v1_in_pruned_k4(self, k4_sub5):
        result = enumerate_dec_trails_from(k4_sub5, 0)
        assert {tuple(t) for t in result.trails} == {
            ((0, 1),),                    # v1-v2
            ((0, 2), (2, 3)),             # v1-v3-v4
        }

    def test_depth_first_order_is_deterministic(self, k4_sub5):
        result = enumerate_dec_trails_from(k4_sub5, 2)
        assert result.trails == [
            [(2, 0), (0, 1)],
            [(2, 1), (1, 0)],
            [(2, 1), (1, 3), (3, 2)],
            [(2, 3)],
        ]

    def test_edgeless_graph_has_no_trails(self):
        result = enumerate_dec_trails_from(new_graph(3), 1)
        assert result.trails == [] and not result.truncated

    def test_cap_truncates_with_flag(self, k4_sub5):
        result = enumerate_dec_trails_from(k4_sub5, 2, cap=2)
        assert len(result.trails) == 2 and result.truncated

    def test_cap_must_be_positive(self, k4_sub5):
        with pytest.raises(ValueError):
            enumerate_dec_trails_from(k4_sub5, 2, cap=0)

    def test_rejects_an_out_of_range_vertex(self):
        bad = WeightedGraph(n=3, edges={(0, 1): 1, (1, 5): 2}, mode=Mode.STRICT)
        with pytest.raises(InvalidGraphError, match="vertex-out-of-range"):
            enumerate_dec_trails_from(bad, 0)

    def test_rejects_duplicate_weights(self):
        bad = WeightedGraph(n=3, edges={(0, 1): 1, (1, 2): 1}, mode=Mode.RELAXED)
        with pytest.raises(InvalidGraphError, match="duplicate-weight"):
            enumerate_dec_trails_from(bad, 0)

    @pytest.mark.parametrize("v", [-1, 3, 7])
    def test_start_outside_the_graph_is_refused(self, v):
        # -1 would read vertex 2's edges through Python's negative index.
        with pytest.raises(RankOutOfRangeError, match=f"vertex {v} outside 0..2"):
            enumerate_dec_trails_from(complete_graph(3, [1, 2, 3]), v)

    @given(strict_graphs(max_n=6))
    def test_enumerated_trails_are_valid_maximal_and_cover_the_optimum(self, g):
        adj = {v: [] for v in range(g.n)}
        for (a, b), w in g.edges.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        per_vertex = brute_force_longest(g).per_vertex
        for v in range(g.n):
            result = enumerate_dec_trails_from(g, v)
            assert not result.truncated
            best = 0
            for trail in result.trails:
                assert is_ordered_trail(g, trail, Order.DECREASING)
                assert trail[0][0] == v
                last_u, last_v = trail[-1]
                key = (last_u, last_v) if last_u < last_v else (last_v, last_u)
                last_w = g.edges[key]
                assert all(w >= last_w for (_, w) in adj[last_v])  # not extendable
                best = max(best, len(trail))
            assert best == per_vertex[v]

    @settings(max_examples=100)
    @given(
        st.one_of(any_graphs(max_n=6), float_trap_graphs(max_n=6)),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_same_order_and_truncation_as_the_plain_search(self, g, cap):
        for v in range(g.n):
            if cap is None:
                result = enumerate_dec_trails_from(g, v)
            else:
                result = enumerate_dec_trails_from(g, v, cap=cap)
            assert (result.trails, result.truncated) == plain_trails(g, v, cap or 100_000)

    def test_a_trail_longer_than_the_recursion_limit(self):
        result = enumerate_dec_trails_from(falling_path(1200), 0)
        assert not result.truncated
        assert result.trails == [[(i, i + 1) for i in range(1199)]]


class TestBruteForceLongest:
    def test_worked_example(self, k4):
        result = brute_force_longest(k4)
        assert result.optimum == 3
        assert result.per_vertex == [3, 3, 3, 3]
        assert result.nodes_explored > 0

    def test_pruned_k4_per_vertex(self, k4_sub5):
        result = brute_force_longest(k4_sub5)
        assert result.per_vertex[2] == 3
        assert result.per_vertex[0] == 2

    def test_single_edge(self):
        g = add_edge(new_graph(2), 0, 1, 1)
        assert brute_force_longest(g).optimum == 1

    def test_single_vertex(self):
        result = brute_force_longest(new_graph(1))
        assert result.optimum == 0 and result.per_vertex == [0]

    def test_rejects_invalid_graph(self):
        bad = WeightedGraph(n=2, edges={(0, 1): 0}, mode=Mode.RELAXED)
        with pytest.raises(InvalidGraphError):
            brute_force_longest(bad)

    def test_deterministic(self, k4):
        assert brute_force_longest(k4) == brute_force_longest(k4)

    @settings(max_examples=80)
    @given(any_graphs(max_n=6))
    def test_agrees_with_label_propagation(self, g):
        result = brute_force_longest(g)
        labels = run_labeling_sorted(g).labels
        assert result.per_vertex == labels
        assert result.optimum == max(labels)

    @settings(max_examples=40)
    @given(strict_graphs(max_n=6))
    def test_optimum_monotone_under_weighted_subgraphs(self, g):
        values = [
            brute_force_longest(weighted_subgraph(g, i)).optimum for i in range(g.q + 1)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestAgainstThePlainSearch:
    """The one pass over the arcs finds what the plain search visits: same
    lengths, same number of trail prefixes."""

    @settings(max_examples=150)
    @given(st.one_of(any_graphs(max_n=7), float_trap_graphs(max_n=7)))
    def test_same_lengths_and_node_count(self, g):
        result = brute_force_longest(g)
        assert (result.per_vertex, result.optimum, result.nodes_explored) == plain_longest(g)

    @pytest.mark.parametrize(
        "edges, nodes",
        [
            ({}, 3),  # three empty prefixes
            ({(0, 1): 1, (0, 2): 2}, 8),  # every step out of v1 ends at once
            ({(0, 1): 2, (1, 2): 1}, 8),  # every step into v3 ends there
        ],
    )
    def test_small_counts(self, edges, nodes):
        g = WeightedGraph(n=3, edges=edges, mode=Mode.STRICT)
        assert brute_force_longest(g).nodes_explored == plain_longest(g)[2] == nodes

    @pytest.mark.parametrize(
        "heavy", [1e16, float("inf"), Decimal("1e30"), Decimal("Infinity")], ids=repr
    )
    def test_heaviest_weight_without_a_successor(self, heavy):
        # heavy + 1 == heavy for each of these, so no bound computed from the
        # weights would let a start vertex take its heaviest edge.
        g = WeightedGraph(n=3, edges={(0, 1): heavy, (1, 2): 1}, mode=Mode.RELAXED)
        result = brute_force_longest(g)
        assert (result.per_vertex, result.optimum, result.nodes_explored) == plain_longest(g)
        assert result.per_vertex == [2, 1, 1]


class TestAgainstTheCountFold:
    """The one pass on graphs whose prefixes the plain search could not
    walk: lengths from label propagation, the count from the fold."""

    @settings(max_examples=150)
    @given(st.one_of(any_graphs(max_n=7), float_trap_graphs(max_n=7)))
    def test_the_fold_counts_what_the_plain_search_visits(self, g):
        assert folded_prefix_count(g) == plain_longest(g)[2]

    @settings(max_examples=60)
    @given(st.one_of(any_graphs(max_n=20), float_trap_graphs(max_n=20)))
    def test_lengths_and_count_up_to_twenty_vertices(self, g):
        result = brute_force_longest(g)
        assert result.per_vertex == run_labeling_sorted(g).labels
        assert result.nodes_explored == folded_prefix_count(g)

    def test_dense_twenty_vertex_graph(self):
        g = random_graph(20, 190, 1)
        result = brute_force_longest(g)
        assert result.nodes_explored == folded_prefix_count(g) == 883_953_718
        assert result.per_vertex == run_labeling_sorted(g).labels

    def test_a_trail_longer_than_the_recursion_limit(self):
        g = falling_path(1200)
        result = brute_force_longest(g)
        assert result.optimum == 1199
        assert result.per_vertex == run_labeling_sorted(g).labels
        assert result.nodes_explored == folded_prefix_count(g)


def test_searches_leave_no_cyclic_garbage():
    # Neither search keeps a closure or any other object that refers back
    # to itself, so everything a call builds is freed without gc.
    k4 = complete_graph(4, [1, 3, 6, 5, 4, 2])
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            brute_force_longest(k4)
            enumerate_dec_trails_from(k4, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()
