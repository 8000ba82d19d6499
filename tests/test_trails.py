"""Ordered-trail predicates, duality, and subtrail closure."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monotrails import (
    Mode,
    Order,
    WeightedGraph,
    drop_prefix,
    is_ordered_trail,
    reverse_dual,
    trail_json,
)
from monotrails.trails import trail_weights

from strategies import graph_and_arbitrary_steps, graph_and_decreasing_trail

K4_DEC_TRAIL = [(2, 1), (1, 3), (3, 2)]  # v3-v2-v4-v3, weights 5, 4, 2


class TestIsOrderedTrail:
    def test_k4_decreasing_golden(self, k4):
        assert is_ordered_trail(k4, K4_DEC_TRAIL, Order.DECREASING)
        assert not is_ordered_trail(k4, K4_DEC_TRAIL, Order.INCREASING)

    def test_k3_increasing_golden(self, k3):
        # weights along v3-v2, v2-v1, v1-v3 are 1, 2, 3
        assert is_ordered_trail(k3, [(2, 1), (1, 0), (0, 2)], Order.INCREASING)

    def test_empty_trail_is_ordered(self, k4):
        assert is_ordered_trail(k4, [], Order.DECREASING)
        assert is_ordered_trail(k4, [], Order.INCREASING)

    def test_single_step_requires_edge_presence(self, k4, k4_sub5):
        assert is_ordered_trail(k4, [(0, 3)], Order.DECREASING)
        assert not is_ordered_trail(k4_sub5, [(0, 3)], Order.DECREASING)

    def test_broken_chain_rejected(self, k4):
        assert not is_ordered_trail(k4, [(2, 1), (3, 2)], Order.DECREASING)

    def test_self_loop_step_rejected(self, k4):
        assert not is_ordered_trail(k4, [(1, 1)], Order.DECREASING)

    def test_repeated_edge_rejected_via_equal_weights(self, k4):
        assert not is_ordered_trail(k4, [(0, 1), (1, 0)], Order.DECREASING)
        assert not is_ordered_trail(k4, [(0, 1), (1, 0)], Order.INCREASING)

    def test_non_monotone_rejected(self, k4):
        # weights 1 then 5
        assert not is_ordered_trail(k4, [(0, 1), (1, 2)], Order.DECREASING)


class TestReverseDual:
    def test_golden(self):
        assert reverse_dual(K4_DEC_TRAIL) == [(2, 3), (3, 1), (1, 2)]

    def test_empty(self):
        assert reverse_dual([]) == []

    def test_golden_dual_is_increasing(self, k4):
        assert is_ordered_trail(k4, reverse_dual(K4_DEC_TRAIL), Order.INCREASING)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=8))
    def test_involution_and_length(self, steps):
        assert reverse_dual(reverse_dual(steps)) == steps
        assert len(reverse_dual(steps)) == len(steps)

    @given(graph_and_arbitrary_steps())
    def test_duality_for_arbitrary_step_lists(self, pair):
        g, steps = pair
        assert is_ordered_trail(g, steps, Order.DECREASING) == is_ordered_trail(
            g, reverse_dual(steps), Order.INCREASING
        )
        assert is_ordered_trail(g, steps, Order.INCREASING) == is_ordered_trail(
            g, reverse_dual(steps), Order.DECREASING
        )


class TestDropPrefix:
    def test_basic(self):
        assert drop_prefix(K4_DEC_TRAIL, 1) == [(1, 3), (3, 2)]
        assert drop_prefix(K4_DEC_TRAIL, 0) == K4_DEC_TRAIL
        assert drop_prefix(K4_DEC_TRAIL, 3) == []

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            drop_prefix(K4_DEC_TRAIL, 4)
        with pytest.raises(IndexError):
            drop_prefix(K4_DEC_TRAIL, -1)

    @given(graph_and_decreasing_trail())
    def test_suffixes_remain_decreasing(self, pair):
        g, trail = pair
        for k in range(len(trail) + 1):
            assert is_ordered_trail(g, drop_prefix(trail, k), Order.DECREASING)

    @given(graph_and_decreasing_trail())
    def test_prefixes_remain_decreasing(self, pair):
        g, trail = pair
        for k in range(len(trail) + 1):
            assert is_ordered_trail(g, trail[:k], Order.DECREASING)

    @given(graph_and_decreasing_trail())
    def test_suffixes_of_increasing_duals_remain_increasing(self, pair):
        g, trail = pair
        inc = reverse_dual(trail)
        for k in range(len(inc) + 1):
            assert is_ordered_trail(g, drop_prefix(inc, k), Order.INCREASING)


class TestTrailWeights:
    def test_weights_in_trail_order_either_direction(self):
        g = WeightedGraph(n=3, edges={(0, 1): 1, (1, 2): 2}, mode=Mode.STRICT)
        assert trail_weights(g, [(2, 1), (1, 0)]) == [2, 1]
        assert trail_weights(g, [(0, 1), (1, 2)]) == [1, 2]

    def test_a_step_that_is_not_an_edge_raises_key_error(self):
        g = WeightedGraph(n=3, edges={(0, 1): 1, (1, 2): 2}, mode=Mode.STRICT)
        with pytest.raises(KeyError, match=r"step \(2, 0\) is not an edge of the graph"):
            trail_weights(g, [(2, 1), (2, 0)])


class TestTrailJson:
    def test_golden(self, k4):
        doc = trail_json(k4, K4_DEC_TRAIL)
        assert doc == {
            "start": 3,
            "vertices": [3, 2, 4, 3],
            "weights": [5, 4, 2],
            "length": 3,
        }

    def test_empty_needs_start(self, k4):
        assert trail_json(k4, [], start=1) == {
            "start": 2,
            "vertices": [2],
            "weights": [],
            "length": 0,
        }
        with pytest.raises(ValueError):
            trail_json(k4, [])

    def test_weight_whose_float_is_zero_is_refused(self):
        # 3e-324 rounds up to the smallest subnormal double, 2e-324 down to 0.0.
        g = WeightedGraph(
            n=3, edges={(0, 1): Fraction(3, 10**324), (1, 2): 2}, mode=Mode.RELAXED
        )
        assert trail_json(g, [(2, 1), (1, 0)])["weights"] == [2, 5e-324]
        g = WeightedGraph(
            n=3, edges={(0, 1): Fraction(2, 10**324), (1, 2): 2}, mode=Mode.RELAXED
        )
        with pytest.raises(ValueError, match="below the smallest float"):
            trail_json(g, [(2, 1), (1, 0)])
