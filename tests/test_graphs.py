"""Graph construction, validation, generators, and the edge-list format."""

import random
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Mode,
    Order,
    WeightedGraph,
    add_edge,
    brute_force_longest,
    check_lower_bound,
    complete_graph,
    longest_ordered_trail,
    new_graph,
    parse_edge_list,
    random_graph,
    ranked_edges,
    render_edge_list,
    run_labeling_sorted,
    validate,
    weighted_subgraph,
)
from monotrails.errors import (
    EdgeListParseError,
    GraphValidationError,
    InvalidGraphError,
    MonotrailsError,
    RankOutOfRangeError,
)

from monotrails import graphs
from monotrails.graphs import MAX_WEIGHT_DIGITS, _parse_weight, _weight_str

from strategies import any_graphs, float_trap_graphs, strict_graphs


class TestConstruction:
    def test_new_graph_empty(self):
        g = new_graph(4)
        assert g.n == 4 and g.q == 0 and g.mode is Mode.STRICT

    def test_new_graph_rejects_zero_vertices(self):
        with pytest.raises(MonotrailsError, match=r"^vertex count must be >= 1, got 0$"):
            new_graph(0)

    def test_single_vertex_graph_is_valid(self):
        g = new_graph(1, Mode.RELAXED)
        assert g.q == 0 and validate(g) == []

    def test_add_edge_canonicalizes(self):
        g = add_edge(new_graph(4), 1, 0, 1)
        assert g.edges == {(0, 1): 1}

    def test_add_edge_is_functional(self):
        g0 = new_graph(3)
        g1 = add_edge(g0, 0, 1, 1)
        assert g0.q == 0 and g1.q == 1

    @staticmethod
    def refused(g, u, v, w):
        """The violation kinds add_edge refuses the edge with."""
        with pytest.raises(InvalidGraphError) as exc:
            add_edge(g, u, v, w)
        return [violation.kind for violation in exc.value.violations]

    def test_duplicate_edge_rejected_in_either_orientation(self):
        g = add_edge(new_graph(4), 0, 1, 1)
        for u, v in ((0, 1), (1, 0)):
            assert self.refused(g, u, v, 2) == ["duplicate-edge"]

    def test_duplicate_edge_is_worded_as_the_parser_words_it(self):
        g = add_edge(new_graph(4), 1, 3, 1)
        message = r"^invalid graph: duplicate-edge: edge v2-v4 repeated$"
        with pytest.raises(InvalidGraphError, match=message):
            add_edge(g, 3, 1, 2)
        with pytest.raises(GraphValidationError, match=r"duplicate-edge: edge v2-v4 repeated$"):
            parse_edge_list("p 4 2\ne 2 4 1\ne 4 2 2\n")

    def test_self_loop_rejected(self):
        assert self.refused(new_graph(4), 2, 2, 7) == ["self-loop"]

    def test_duplicate_weight_rejected(self):
        g = add_edge(new_graph(4), 0, 1, 3)
        assert self.refused(g, 1, 2, 3) == ["duplicate-weight"]

    def test_non_positive_weight_rejected(self):
        assert self.refused(new_graph(3), 0, 1, 0) == ["non-positive-weight"]
        assert self.refused(new_graph(3), 0, 1, Fraction(-1, 2)) == ["non-positive-weight"]

    def test_out_of_range_endpoint_rejected(self):
        assert self.refused(new_graph(3), 0, 3, 1) == ["vertex-out-of-range"]
        assert self.refused(new_graph(3), -1, 0, 1) == ["vertex-out-of-range"]

    def test_a_refused_edge_leaves_the_graph_as_it_was(self):
        g = add_edge(new_graph(3), 0, 1, 1)
        self.refused(g, 1, 2, 1)
        assert g.edges == {(0, 1): 1} and g.violations == ()

    def test_a_strict_graph_may_be_built_with_weights_not_yet_one_to_q(self):
        # Read as relaxed, weight 3 before 1 and 2 is no fault; validate
        # then says only not-surjective.
        g = add_edge(new_graph(3), 0, 1, 3)
        assert g.mode is Mode.STRICT
        assert [v.kind for v in g.violations] == ["not-surjective"]
        g = add_edge(add_edge(g, 1, 2, 1), 0, 2, 2)
        assert g.violations == ()


class TestValidate:
    def test_worked_example_is_valid(self, k4):
        assert validate(k4) == []

    def test_duplicate_weight_detected(self, k4):
        edges = dict(k4.edges)
        edges[(2, 3)] = 5  # collides with (1,2)
        bad = WeightedGraph(n=4, edges=edges, mode=Mode.STRICT)
        assert any(v.kind == "duplicate-weight" for v in validate(bad))

    def test_strict_weights_must_cover_one_to_q(self):
        bad = WeightedGraph(n=3, edges={(0, 1): 1, (0, 2): 2, (1, 2): 4}, mode=Mode.STRICT)
        assert any(v.kind == "not-surjective" for v in validate(bad))
        ok = WeightedGraph(n=3, edges={(0, 1): 1, (0, 2): 2, (1, 2): 4}, mode=Mode.RELAXED)
        assert validate(ok) == []

    @pytest.mark.parametrize("two", [Fraction(2), 2.0], ids=repr)
    def test_strict_weights_must_be_ints(self, two):
        # Equal to 2 but not the int: strict has no rank order for it.
        bad = WeightedGraph(n=3, edges={(0, 1): two, (1, 2): 1}, mode=Mode.STRICT)
        assert [v.kind for v in validate(bad)] == ["not-surjective"]
        assert validate(WeightedGraph(n=3, edges=bad.edges, mode=Mode.RELAXED)) == []

    def test_self_loop_and_non_canonical_keys_detected(self):
        bad = WeightedGraph(n=3, edges={(1, 1): 1, (2, 0): 2}, mode=Mode.RELAXED)
        kinds = {v.kind for v in validate(bad)}
        assert "self-loop" in kinds and "non-canonical-edge" in kinds

    def test_vertex_out_of_range_detected(self):
        bad = WeightedGraph(n=2, edges={(0, 5): 1}, mode=Mode.RELAXED)
        assert any(v.kind == "vertex-out-of-range" for v in validate(bad))

    @given(any_graphs())
    def test_generated_graphs_are_always_valid(self, g):
        assert validate(g) == []


class TestValidatedOnce:
    @pytest.fixture
    def validate_calls(self, monkeypatch):
        """Every call of validate, through any module that binds the name."""
        calls = []

        def counting(g):
            calls.append(g)
            return validate(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("monotrails") and vars(module).get("validate") is validate:
                monkeypatch.setattr(module, "validate", counting)
        return calls

    def test_check_sequence_validates_once(self, validate_calls, k4_file):
        # The calls `monotrails check` makes on one graph.
        g = parse_edge_list(k4_file.read_text())
        assert check_lower_bound(g).p_d == 3
        assert brute_force_longest(g).optimum == 3
        assert longest_ordered_trail(g, Order.DECREASING).optimum == 3
        assert len(validate_calls) == 1 and validate_calls[0] is g

    def test_invalid_graph_is_refused_on_every_use_and_validated_once(self, validate_calls):
        bad = WeightedGraph(n=3, edges={(0, 1): 1, (0, 2): 1, (1, 4): 0}, mode=Mode.RELAXED)
        expected = validate(bad)
        for use in (run_labeling_sorted, brute_force_longest, check_lower_bound):
            with pytest.raises(InvalidGraphError) as exc:
                use(bad)
            assert exc.value.violations == expected
        assert len(validate_calls) == 1 and validate_calls[0] is bad


_PATH_2000 = "p 2001 2000\n" + "".join(f"e {i} {i + 1} {i}\n" for i in range(1, 2001))
# Weights 2..2001: placing them fails only at the last edge.
_GAP_2000 = "p 2001 2000\n" + "".join(f"e {i} {i + 1} {i + 1}\n" for i in range(1, 2001))


def _count_rank_placements(monkeypatch) -> list:
    """Patch graphs._placed to record each edge dictionary it places."""
    calls = []
    place = graphs._placed
    monkeypatch.setattr(graphs, "_placed", lambda edges: calls.append(edges) or place(edges))
    return calls


def _count_sorts(monkeypatch) -> list:
    """Patch the sorted that graphs calls to record each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(graphs, "sorted", counted, raising=False)
    return calls


class TestRanksCheckedOnce:
    """Mode inference, validate and ranking share one rank placement per
    parse, and a graph whose weights are not the ints 1..q is sorted once,
    by validate, for every later ranked_edges and longest_ordered_trail.

    Each case gives the inferred mode, or the violations of a file that
    fails, as the parse gave them before the verdict was shared, and the
    number of sorts."""

    CASES = {
        "k4": ("p 4 6\ne 1 2 1\ne 1 3 3\ne 1 4 6\ne 2 3 5\ne 2 4 4\ne 3 4 2\n", Mode.STRICT, 0),
        "strict_path_2000": (_PATH_2000, Mode.STRICT, 0),
        "edgeless": ("p 2 0\n", Mode.STRICT, 0),
        "decimal": ("p 2 1\ne 1 2 0.5\n", Mode.RELAXED, 1),
        "int_gap": ("p 2 1\ne 1 2 7\n", Mode.RELAXED, 1),
        "int_gap_2000": (_GAP_2000, Mode.RELAXED, 1),
        "ranks_vertex_out_of_range": (
            "p 2 2\ne 1 2 1\ne 2 3 2\n", [("vertex-out-of-range", "edge (2,3) vs n=2")], 0,
        ),
        "duplicate_weight": (
            "p 3 2\ne 1 2 1\ne 2 3 1\n", [("duplicate-weight", "weight 1 used more than once")], 1,
        ),
        "self_loop": ("p 3 2\ne 1 1 1\ne 2 3 2\n", [("self-loop", "edge at vertex 1")], 1),
        "zero_weight": (
            "p 3 2\ne 1 2 0\ne 2 3 1\n", [("non-positive-weight", "edge (1,2) has weight 0")], 1,
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_rank_check_per_parse(self, monkeypatch, name):
        text, expected, sorts = self.CASES[name]
        placements, sorted_calls = _count_rank_placements(monkeypatch), _count_sorts(monkeypatch)
        try:
            g = parse_edge_list(text)
        except GraphValidationError as exc:
            result = [(v.kind, v.detail) for v in exc.violations]
        else:
            result = g.mode
            ranked = ranked_edges(g)
            for kind in Order:
                longest_ordered_trail(g, kind)
            assert ranked_edges(g) == ranked == sorted(g.edges, key=g.edges.__getitem__)
        assert result == expected
        assert len(placements) == 1
        assert len(sorted_calls) == sorts


class TestWeightedSubgraph:
    def test_drops_heaviest_edge(self, k4, k4_sub5):
        assert (0, 3) not in k4_sub5.edges
        assert k4_sub5.q == 5
        assert all(k4_sub5.edges[k] == k4.edges[k] for k in k4_sub5.edges)

    def test_zero_keeps_no_edges(self, k4):
        assert weighted_subgraph(k4, 0).edges == {}

    def test_full_rank_is_identity(self, k4):
        assert weighted_subgraph(k4, 6) == k4

    def test_rank_out_of_range(self, k4):
        with pytest.raises(RankOutOfRangeError):
            weighted_subgraph(k4, 7)
        with pytest.raises(RankOutOfRangeError):
            weighted_subgraph(k4, -1)

    @given(any_graphs())
    def test_edge_counts_and_nesting(self, g):
        previous = set()
        for i in range(g.q + 1):
            sub = weighted_subgraph(g, i)
            assert sub.q == i
            assert previous <= set(sub.edges)
            assert validate(sub) == []
            previous = set(sub.edges)


class TestCompleteGraph:
    def test_worked_example_weights(self, k4):
        assert k4.edges == {
            (0, 1): 1,
            (0, 2): 3,
            (0, 3): 6,
            (1, 2): 5,
            (1, 3): 4,
            (2, 3): 2,
        }

    def test_two_vertices(self):
        g = complete_graph(2, [1])
        assert g.edges == {(0, 1): 1}

    def test_wrong_length(self):
        with pytest.raises(MonotrailsError, match=r"^K_3 has 3 edges, got 2 weights$"):
            complete_graph(3, [1, 2])

    def test_not_a_permutation(self):
        # Only the ints 1..q are a permutation: equal values of other types are not.
        cases = [(3, [1, 2, 2]), (3, [1, 2, None]), (3, [True, 2, 3.0]), (2, [Fraction(1)])]
        for n, weights in cases:
            message = rf"^weights are not a permutation of 1\.\.{len(weights)}$"
            with pytest.raises(MonotrailsError, match=message):
                complete_graph(n, weights)

    def test_every_permutation_builds_a_valid_k4(self):
        for weights in permutations(range(1, 7)):
            assert complete_graph(4, list(weights)).violations == ()

    def test_rejects_zero_vertices(self):
        with pytest.raises(MonotrailsError, match=r"^vertex count must be >= 1, got 0$"):
            complete_graph(0, [])

    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    def test_degrees_and_edge_count(self, n, rng):
        q = n * (n - 1) // 2
        weights = list(range(1, q + 1))
        rng.shuffle(weights)
        g = complete_graph(n, weights)
        assert g.q == q
        degree = [0] * n
        for a, b in g.edges:
            degree[a] += 1
            degree[b] += 1
        assert all(d == n - 1 for d in degree)


class TestRandomGraph:
    def test_reproducible(self):
        assert random_graph(6, 9, 42) == random_graph(6, 9, 42)

    def test_requested_edge_count(self):
        g = random_graph(6, 9, 0)
        assert g.q == 9 and validate(g) == []

    def test_max_edges_gives_complete(self):
        g = random_graph(4, 6, 5)
        assert set(g.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_zero_edges(self):
        assert random_graph(3, 0, 1).edges == {}

    def test_too_many_edges(self):
        with pytest.raises(MonotrailsError, match=r"^4 edges requested, K_3 has only 3$"):
            random_graph(3, 4, 0)

    def test_rejects_more_than_max_edges_before_drawing(self, monkeypatch):
        # K_4473 has 10,001,628 pairs, so only MAX_EDGES refuses 10**7 + 1.
        def no_draw(*args):
            raise AssertionError("random_graph drew before refusing")

        monkeypatch.setattr(graphs.random, "Random", no_draw)
        with pytest.raises(
            MonotrailsError, match=r"^10000001 edges requested, above the limit of 10000000$"
        ):
            random_graph(4473, graphs.MAX_EDGES + 1, 0)

    def test_rejects_zero_vertices(self):
        with pytest.raises(MonotrailsError, match=r"^vertex count must be >= 1, got 0$"):
            random_graph(0, 0, 0)

    def test_rejects_a_negative_edge_count(self):
        with pytest.raises(MonotrailsError, match=r"^edge count must be >= 0, got -1$"):
            random_graph(5, -1, 0)

    def test_different_seeds_usually_differ(self):
        assert any(random_graph(6, 9, 0) != random_graph(6, 9, s) for s in range(1, 5))

    def test_same_graph_as_sampling_the_pair_list(self):
        for n in range(1, 14):
            possible = list(combinations(range(n), 2))
            for m in range(len(possible) + 1):
                for seed in range(5):
                    rng = random.Random(seed)
                    chosen = sorted(rng.sample(possible, m))
                    weights = list(range(1, m + 1))
                    rng.shuffle(weights)
                    expected = dict(zip(chosen, weights))
                    g = random_graph(n, m, seed)
                    assert list(g.edges.items()) == list(expected.items())


class TestRankedEdges:
    def test_strict_rank_equals_weight(self, k4):
        ranked = ranked_edges(k4)
        assert [k4.edges[k] for k in ranked] == [1, 2, 3, 4, 5, 6]

    @given(any_graphs())
    def test_ascending_weight_order(self, g):
        ranked = ranked_edges(g)
        weights = [g.edges[k] for k in ranked]
        assert weights == sorted(weights)
        assert set(ranked) == set(g.edges)

    @settings(max_examples=200)
    @given(st.one_of(float_trap_graphs(), float_trap_graphs(distinct=False)))
    def test_float_first_key_is_the_exact_sort(self, g):
        assert ranked_edges(g) == sorted(g.edges, key=g.edges.__getitem__)

    def test_weights_whose_floats_tie(self):
        g = parse_edge_list(
            "p 3 3\n"
            "e 1 2 1.00000000000000000002\n"
            "e 2 3 1.00000000000000000001\n"
            "e 1 3 1\n"
        )
        assert float(g.edges[(0, 1)]) == float(g.edges[(1, 2)])
        assert ranked_edges(g) == [(0, 2), (1, 2), (0, 1)]

    def test_weight_beyond_float_range(self):
        g = parse_edge_list("p 3 3\ne 1 2 1e400\ne 2 3 2.5\ne 1 3 1e399\n")
        assert g.mode is Mode.RELAXED and g.edges[(0, 1)] == 10**400
        assert ranked_edges(g) == [(1, 2), (0, 2), (0, 1)]

    # Graphs whose weights are the ints 1..q whatever their mode, and
    # strict-mode graphs whose weights are not: a repeat, a gap, an integral
    # Fraction, a bool and an int beyond float range.
    RANKS = {
        "k4": complete_graph(4, [1, 3, 6, 5, 4, 2]),
        "edgeless": new_graph(3),
        "forced_relaxed": WeightedGraph(
            n=3, edges={(0, 1): 2, (1, 2): 3, (0, 2): 1}, mode=Mode.RELAXED
        ),
    }
    NOT_RANKS = {
        "duplicate_weight": {(0, 1): 1, (1, 2): 1},
        "gap": {(0, 1): 3, (1, 2): 1},
        "integral_fraction": {(0, 1): Fraction(2), (1, 2): 1},
        "bool": {(0, 1): 2, (1, 2): True},
        "beyond_float_range": {(0, 1): 10**400, (1, 2): 1, (0, 2): 2},
    }

    @pytest.mark.parametrize("name", list(RANKS) + list(NOT_RANKS))
    def test_rank_order_is_the_exact_sort_in_either_mode(self, name):
        if name in self.RANKS:
            g = self.RANKS[name]
        else:
            g = WeightedGraph(n=3, edges=self.NOT_RANKS[name], mode=Mode.STRICT)
        assert ranked_edges(g) == sorted(g.edges, key=g.edges.__getitem__)
        assert (g._rank_order is not None) == (name in self.RANKS)

    @given(strict_graphs())
    def test_valid_strict_graph_is_never_sorted(self, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "sorted", lambda *a, **k: pytest.fail("sorted"), raising=False)
            ranked = ranked_edges(g)
        assert [g.edges[e] for e in ranked] == list(range(1, g.q + 1))

    def test_rank_order_is_placed_once_and_copied(self, monkeypatch):
        calls = _count_rank_placements(monkeypatch)
        g = parse_edge_list(_PATH_2000)
        first = ranked_edges(g)
        first.reverse()
        assert ranked_edges(g) == [(i, i + 1) for i in range(2000)]
        assert len(calls) == 1


def _assert_parses_like_fraction(token):
    """_parse_weight gives the value Fraction reads from the token with its
    "_" removed (every Python reads that), as an int when whole, else as a
    Decimal."""
    expected = Fraction(token.replace("_", ""))
    w = _parse_weight(token, 1)
    assert w == expected and type(w) is (int if expected.denominator == 1 else Decimal)


class TestParseWeight:
    @settings(max_examples=300)
    @given(st.from_regex(r"\A[0-9]{1,30}\.[0-9]{1,30}\Z"))
    def test_decimal_tokens_match_fraction(self, token):
        # Held exactly as Decimal(token), an int when integral, by both
        # readers: the value Fraction(token) has, with no Fraction built.
        expected = Fraction(token)
        w = _parse_weight(token, 1)
        assert w == expected and type(w) is (int if expected.denominator == 1 else Decimal)
        [column_w] = graphs._decimal_column([token])
        assert column_w == w and type(column_w) is type(w)

    @pytest.mark.parametrize(
        "token", ["5.", ".5", "+1.5", "1_0.5", "1e3", "2.50e-1", "\u0661.\u0665", " 1.5", "0.0"]
    )
    def test_other_forms_take_the_fraction_path(self, token):
        _assert_parses_like_fraction(token)

    # Decimal reads the last nine (it skips every "_"); Fraction reads none.
    @pytest.mark.parametrize(
        "token",
        ["\u00b2.5", "1.2.3", "1..5", "x.5", ".", "inf", "-Infinity", "nan", "sNaN"]
        + ["1__0.5", "_1.5", "1_.5", "1.5_", "1e_5"],
    )
    def test_malformed_decimals_are_parse_errors(self, token):
        with pytest.raises(EdgeListParseError):
            _parse_weight(token, 7)

    # The limit is on len(mantissa) + |exponent|: 4300 for each token here.
    @pytest.mark.parametrize(
        "token",
        [
            "1e4299", "1E-4_299", "5.5e+\u0664\u0662\u0669\u0667",
            pytest.param("." + "0" * 4298 + "1", id="point-4299-digits"),
        ],
    )
    def test_exponents_up_to_the_limit_parse(self, token):
        _assert_parses_like_fraction(token)

    @pytest.mark.parametrize(
        "token",
        [
            "1e4300", "1E-4_300", "5.5e+\u0664\u0662\u0669\u0668",
            pytest.param("." + "0" * 4299 + "1", id="point-4300-digits"),
            "1e10001", "1E-10_001", "5.5e+\u0661\u0660\u0660\u0660\u0661",
            # Not a plain number, so measured by length, even where int()
            # would refuse its 4301-digit whole part.
            pytest.param("+" + "1" * 4301 + ".5", id="signed-4302-digits"),
        ],
    )
    def test_exponents_above_the_limit_are_parse_errors(self, token):
        with pytest.raises(EdgeListParseError, match="beyond the limit of 4300 digits"):
            _parse_weight(token, 7)

    @settings(max_examples=300)
    @given(
        st.from_regex(r"\A[+]?[0-9]{0,3}(\.[0-9]{0,3})?\Z").filter(lambda m: any(map(str.isdigit, m))),
        st.integers(-MAX_WEIGHT_DIGITS, MAX_WEIGHT_DIGITS),
    )
    def test_every_accepted_weight_prints(self, mantissa, exponent):
        # Python converts at most 4300 digits between int and str: an
        # accepted weight stays within that as an int, as a fraction and as
        # the decimal render_edge_list writes.
        token = f"{mantissa}e{exponent}"
        try:
            w = _parse_weight(token, 1)
        except EdgeListParseError:
            assert len(mantissa) + abs(exponent) > MAX_WEIGHT_DIGITS
            return
        assert Fraction(str(w)) == w
        assert Fraction(_weight_str(w)) == w

    @pytest.mark.parametrize("token", ["1e5e99999", "xe99999", "1.5.e99999", "e99999"])
    def test_a_bad_mantissa_is_named_before_the_exponent(self, token):
        with pytest.raises(EdgeListParseError, match="cannot parse weight"):
            _parse_weight(token, 7)


class TestEdgeListFormat:
    def test_worked_example_file(self, k4):
        text = (
            "c example\n"
            "p 4 6\n"
            "e 1 2 1\ne 1 3 3\ne 1 4 6\ne 2 3 5\ne 2 4 4\ne 3 4 2\n"
        )
        assert parse_edge_list(text) == k4

    @settings(max_examples=60)
    @given(strict_graphs())
    def test_round_trip_strict(self, g):
        assert parse_edge_list(render_edge_list(g)) == g

    def test_round_trip_relaxed_decimals(self):
        g = WeightedGraph(
            n=3,
            edges={(0, 1): Fraction(1, 2), (0, 2): Fraction(5, 4), (1, 2): 7},
            mode=Mode.RELAXED,
        )
        text = render_edge_list(g)
        assert "0.5" in text and "1.25" in text
        assert parse_edge_list(text) == g

    def test_mode_inference(self):
        strict = parse_edge_list("p 2 1\ne 1 2 1\n")
        assert strict.mode is Mode.STRICT
        relaxed = parse_edge_list("p 2 1\ne 1 2 0.5\n")
        assert relaxed.mode is Mode.RELAXED and relaxed.edges[(0, 1)] == Fraction(1, 2)
        gaps = parse_edge_list("p 2 1\ne 1 2 7\n")
        assert gaps.mode is Mode.RELAXED  # integer but not {1..q}

    def test_mode_has_no_override(self):
        # The mode is read from the weights; the parser takes none.
        with pytest.raises(TypeError):
            parse_edge_list("p 2 1\ne 1 2 1\n", mode=Mode.RELAXED)
        with pytest.raises(TypeError):
            parse_edge_list("p 2 1\ne 1 2 7\n", Mode.STRICT)

    @pytest.mark.parametrize("q", [1, 2000])  # a one-edge file and a large one
    @pytest.mark.parametrize("dot", ["", "."])
    def test_weight_past_the_int_digit_limit_is_a_parse_error(self, q, dot):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() converts any number of digits here")
        token = "1" + dot + "5" * limit
        lines = [f"p {q + 1} {q}"] + [f"e {i} {i + 1} {i}" for i in range(1, q + 1)]
        k = (q + 1) // 2
        lines[k] = f"e {k} {k + 1} {token}"
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("\n".join(lines) + "\n")
        assert (exc.value.line_no, exc.value.reason) == (k + 1, f"cannot parse weight {token!r}")

    def test_unknown_line_type_names_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("c fine\np 2 1\nz 1 2 3\ne 1 2 1\n")
        assert exc.value.line_no == 3

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("e 1 2 1\n")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("c only a comment\n")

    def test_duplicate_header(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("p 2 1\np 2 1\ne 1 2 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("p 3 2\ne 1 2 1\n")

    def test_malformed_tokens(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("p 2 1\ne 1 2\n")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("p 2 1\ne one 2 1\n")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("p 2 1\ne 1 2 x\n")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("p 2 1\ne 1 2 1/3\n")

    def test_self_loop_is_a_validation_error(self):
        with pytest.raises(GraphValidationError) as exc:
            parse_edge_list("p 3 1\ne 2 2 5\n")
        assert any(v.kind == "self-loop" for v in exc.value.violations)

    def test_duplicate_weight_is_a_validation_error(self):
        with pytest.raises(GraphValidationError) as exc:
            parse_edge_list("p 3 2\ne 1 2 4\ne 1 3 4\n")
        assert any(v.kind == "duplicate-weight" for v in exc.value.violations)

    def test_a_validation_error_is_an_invalid_graph_error(self):
        with pytest.raises(InvalidGraphError) as exc:
            parse_edge_list("p 3 1\ne 2 2 5\n")
        assert type(exc.value) is GraphValidationError
        assert str(exc.value).startswith("edge list fails validation: self-loop: ")

    def test_duplicate_edge_is_a_validation_error(self):
        with pytest.raises(GraphValidationError) as exc:
            parse_edge_list("p 3 2\ne 1 2 1\ne 2 1 2\n")
        assert any(v.kind == "duplicate-edge" for v in exc.value.violations)

    def test_blank_lines_are_ignored(self, k4):
        text = "\np 4 6\n\ne 1 2 1\ne 1 3 3\ne 1 4 6\ne 2 3 5\ne 2 4 4\n\ne 3 4 2\n\n"
        assert parse_edge_list(text) == k4

    def test_fraction_without_decimal_form_rejected_on_render(self):
        g = WeightedGraph(n=2, edges={(0, 1): Fraction(1, 3)}, mode=Mode.RELAXED)
        with pytest.raises(ValueError):
            render_edge_list(g)


@given(any_graphs())
def test_edge_count_never_exceeds_max(g):
    assert g.q <= g.n * (g.n - 1) // 2
