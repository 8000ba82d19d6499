"""Label propagation: step semantics, witnesses, and the full algorithm."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Mode,
    Order,
    WeightedGraph,
    add_edge,
    complete_graph,
    find_edge_by_rank,
    get_label,
    initial_state,
    is_ordered_trail,
    label_state_at,
    longest_ordered_trail,
    new_graph,
    propagate_step,
    run_labeling_sorted,
    weighted_subgraph,
)
from monotrails.errors import (
    InvalidGraphError,
    RankOutOfRangeError,
    StepExhaustedError,
)
from monotrails.labeling import final_label_lengths, trail_report_json

from strategies import any_graphs, strict_graphs

# Hand-traced label table for the worked K4 example, one row per step.
K4_LABEL_TRACE = [
    [0, 0, 0, 0],
    [1, 1, 0, 0],  # edge v1-v2 (weight 1)
    [1, 1, 1, 1],  # edge v3-v4 (weight 2)
    [2, 1, 2, 1],  # edge v1-v3 (weight 3)
    [2, 2, 2, 2],  # edge v2-v4 (weight 4)
    [2, 3, 3, 2],  # edge v2-v3 (weight 5)
    [3, 3, 3, 3],  # edge v1-v4 (weight 6)
]


class TestFindEdgeByRank:
    def test_goldens(self, k4):
        assert find_edge_by_rank(k4, 5) == (1, 2)
        assert find_edge_by_rank(k4, 1) == (0, 1)
        assert find_edge_by_rank(k4, 6) == (0, 3)

    def test_rank_out_of_range(self, k4):
        for rank in (0, 7, -2):
            with pytest.raises(RankOutOfRangeError):
                find_edge_by_rank(k4, rank)

    def test_relaxed_graphs_rank_by_weight_order(self):
        g = WeightedGraph(
            n=3,
            edges={(0, 1): Fraction(5, 4), (1, 2): Fraction(1, 2), (0, 2): 7},
            mode=Mode.RELAXED,
        )
        assert find_edge_by_rank(g, 1) == (1, 2)
        assert find_edge_by_rank(g, 3) == (0, 2)


class TestPropagateStep:
    def test_full_trace_of_worked_example(self, k4):
        state = initial_state(k4)
        assert state.labels == K4_LABEL_TRACE[0]
        for i in range(1, 7):
            state = propagate_step(state, k4)
            assert state.step == i
            assert state.labels == K4_LABEL_TRACE[i]

    def test_first_step_labels_both_endpoints(self, k4):
        state = propagate_step(initial_state(k4), k4)
        assert state.labels == [1, 1, 0, 0]
        assert state.witnesses[0] == [(0, 1)]
        assert state.witnesses[1] == [(1, 0)]

    def test_equal_labels_both_rise_by_one(self, k4):
        before = label_state_at(k4, 4)
        assert before.labels == [2, 2, 2, 2]
        after = propagate_step(before, k4)  # rank-5 edge is v2-v3
        assert after.labels == [2, 3, 3, 2]
        assert sum(after.labels) == sum(before.labels) + 2
        # v3's new witness prepends the rank-5 edge onto v2's old trail:
        # v3-v2-v4-v3 with weights 5, 4, 2 (hand trace).
        assert after.witnesses[2] == [(2, 1), (1, 3), (3, 2)]

    def test_unequal_labels_smaller_jumps_larger_unchanged(self):
        # Path v1-v2-v3 with weights 1, 2: before edge (v2,v3), labels are
        # (1, 1, 0); the new edge lifts v3 to L(v2)+1 = 2 and leaves v2 at 1.
        g = add_edge(add_edge(new_graph(3), 0, 1, 1), 1, 2, 2)
        before = label_state_at(g, 1)
        assert before.labels == [1, 1, 0]
        after = propagate_step(before, g)
        assert after.labels == [1, 1, 2]
        assert after.witnesses[2] == [(2, 1), (1, 0)]

    def test_tie_keeps_incumbent_witness(self):
        g = add_edge(add_edge(new_graph(3), 0, 1, 1), 1, 2, 2)
        after = label_state_at(g, 2)
        # L(v2) stays 1 on the second step: its witness must remain v2-v1.
        assert after.labels[1] == 1
        assert after.witnesses[1] == [(1, 0)]

    def test_updates_read_old_labels_simultaneously(self):
        # Star at v2: weights 1 then 2. When (v2,v3) arrives, v2 has label 1
        # and v3 has 0: sequential updates would give v3 = 2 via the *new*
        # v2 value only if v2 changed first; here v2 = max(0+1, 1) = 1.
        g = add_edge(add_edge(new_graph(3), 0, 1, 1), 1, 2, 2)
        after = label_state_at(g, 2)
        assert after.labels == [1, 1, 2]

    def test_step_exhausted(self, k4):
        state = label_state_at(k4, 6)
        with pytest.raises(StepExhaustedError):
            propagate_step(state, k4)

    @given(strict_graphs(min_m=1))
    def test_locality_and_monotonicity_each_step(self, g):
        state = initial_state(g)
        for i in range(g.q):
            u, v = find_edge_by_rank(g, i + 1)
            nxt = propagate_step(state, g)
            for x in range(g.n):
                assert nxt.labels[x] >= state.labels[x]
                if x not in (u, v):
                    assert nxt.labels[x] == state.labels[x]
                    assert nxt.witnesses[x] == state.witnesses[x]
            assert sum(nxt.labels) >= sum(state.labels) + 2
            state = nxt

    @given(strict_graphs())
    def test_witnesses_live_in_the_processed_subgraph(self, g):
        state = initial_state(g)
        for i in range(g.q + 1):
            sub = weighted_subgraph(g, i)
            for v in range(g.n):
                w = state.witnesses[v]
                assert len(w) == state.labels[v]
                assert is_ordered_trail(sub, w, Order.DECREASING)
                if w:
                    assert w[0][0] == v
            if i < g.q:
                state = propagate_step(state, g)


class TestGetLabel:
    def test_goldens_after_five_steps(self, k4):
        assert get_label(k4, 5, 2) == 3
        assert get_label(k4, 5, 0) == 2

    def test_zero_state(self, k4):
        assert all(get_label(k4, 0, v) == 0 for v in range(4))

    def test_step_out_of_range(self, k4):
        with pytest.raises(RankOutOfRangeError):
            get_label(k4, 7, 0)
        with pytest.raises(RankOutOfRangeError):
            get_label(k4, -1, 0)
        with pytest.raises(RankOutOfRangeError):
            get_label(k4, 3, 9)


class TestFoldMatchesSteps:
    @settings(max_examples=60)
    @given(any_graphs())
    def test_label_state_at_is_repeated_propagate_step(self, g):
        state = initial_state(g)
        assert label_state_at(g, 0) == state
        for i in range(1, g.q + 1):
            state = propagate_step(state, g)
            assert label_state_at(g, i) == state
            assert [get_label(g, i, v) for v in range(g.n)] == state.labels


class TestRunLabelingSorted:
    def test_matches_stepwise_on_worked_example(self, k4):
        final = run_labeling_sorted(k4)
        assert final.labels == [3, 3, 3, 3]
        assert final == label_state_at(k4, 6)

    @settings(max_examples=60)
    @given(any_graphs())
    def test_matches_stepwise_everywhere(self, g):
        assert run_labeling_sorted(g) == label_state_at(g, g.q)

    def test_relaxed_weights_only_order_matters(self):
        relaxed = WeightedGraph(
            n=3,
            edges={(0, 1): Fraction(1, 2), (1, 2): Fraction(5, 4), (0, 2): 7},
            mode=Mode.RELAXED,
        )
        strict = WeightedGraph(
            n=3, edges={(0, 1): 1, (1, 2): 2, (0, 2): 3}, mode=Mode.STRICT
        )
        assert run_labeling_sorted(relaxed).labels == run_labeling_sorted(strict).labels

    def test_edgeless_graph(self):
        state = run_labeling_sorted(new_graph(5))
        assert state.labels == [0] * 5
        assert state.witnesses == [[]] * 5

    def test_rejects_invalid_graph(self):
        bad = WeightedGraph(n=2, edges={(0, 1): 1, (0, 5): 2}, mode=Mode.RELAXED)
        with pytest.raises(InvalidGraphError):
            run_labeling_sorted(bad)

    @given(any_graphs())
    def test_final_label_lengths_fast_path_agrees(self, g):
        from monotrails import ranked_edges

        assert final_label_lengths(g.n, ranked_edges(g)) == run_labeling_sorted(g).labels


class TestLongestOrderedTrail:
    def test_worked_example_decreasing(self, k4):
        report = longest_ordered_trail(k4, Order.DECREASING)
        assert report.optimum == 3
        assert report.labels == [3, 3, 3, 3]
        assert report.start == 0  # smallest vertex attaining the maximum
        assert len(report.witness) == 3
        assert is_ordered_trail(k4, report.witness, Order.DECREASING)
        assert report.bound_two_floor_q_over_n == 2
        assert report.bound_floor_two_q_over_n == 3

    def test_worked_example_increasing_via_duality(self, k4):
        report = longest_ordered_trail(k4, Order.INCREASING)
        assert report.optimum == 3
        assert is_ordered_trail(k4, report.witness, Order.INCREASING)
        assert report.witness[0][0] == report.start

    def test_single_edge(self):
        g = add_edge(new_graph(2), 0, 1, 1)
        report = longest_ordered_trail(g, Order.DECREASING)
        assert report.optimum == 1 and report.witness == [(0, 1)]

    def test_single_vertex(self):
        report = longest_ordered_trail(new_graph(1), Order.DECREASING)
        assert report.optimum == 0 and report.witness == [] and report.start == 0

    def test_invalid_graph_rejected(self):
        bad = WeightedGraph(n=3, edges={(0, 1): 1, (0, 2): 1}, mode=Mode.RELAXED)
        with pytest.raises(InvalidGraphError):
            longest_ordered_trail(bad, Order.DECREASING)

    def test_deterministic(self, k4):
        a = longest_ordered_trail(k4, Order.DECREASING)
        b = longest_ordered_trail(k4, Order.DECREASING)
        assert a == b

    @given(any_graphs(), st.sampled_from([Order.DECREASING, Order.INCREASING]))
    def test_witness_is_always_valid_with_optimum_length(self, g, kind):
        report = longest_ordered_trail(g, kind)
        assert is_ordered_trail(g, report.witness, kind)
        assert len(report.witness) == report.optimum
        assert report.optimum == max(report.labels)

    @given(any_graphs())
    def test_increasing_equals_decreasing_optimum(self, g):
        dec = longest_ordered_trail(g, Order.DECREASING)
        inc = longest_ordered_trail(g, Order.INCREASING)
        assert dec.optimum == inc.optimum

    @given(strict_graphs())
    def test_label_sum_at_least_twice_edge_count(self, g):
        report = longest_ordered_trail(g, Order.DECREASING)
        assert sum(report.labels) >= 2 * g.q

    def test_json_shape(self, k4):
        report = longest_ordered_trail(k4, Order.DECREASING)
        doc = trail_report_json(report, k4)
        assert doc["schema"] == "trail-report/1"
        assert doc["kind"] == "dec"
        assert doc["optimum"] == 3
        assert doc["labels"] == [3, 3, 3, 3]
        assert doc["trail"]["length"] == 3
        assert doc["bound_2_floor_q_over_n"] == 2
        assert doc["bound_floor_2q_over_n"] == 3


def test_complete_graph_labels_reach_n_minus_one():
    # Guaranteed trail length in complete graphs: at least n-1.
    for n in range(2, 7):
        q = n * (n - 1) // 2
        for seed in range(3):
            import random

            weights = list(range(1, q + 1))
            random.Random(seed).shuffle(weights)
            g = complete_graph(n, weights)
            assert longest_ordered_trail(g, Order.DECREASING).optimum >= n - 1
