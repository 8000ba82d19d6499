"""Graph construction, validation, generators, and the edge-list format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Mode,
    WeightedGraph,
    add_edge,
    complete_graph,
    is_valid,
    new_graph,
    parse_edge_list,
    random_graph,
    ranked_edges,
    render_edge_list,
    validate,
    weighted_subgraph,
)
from monotrails.errors import (
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

from monotrails.graphs import _parse_weight

from strategies import any_graphs, float_trap_graphs, strict_graphs


class TestConstruction:
    def test_new_graph_empty(self):
        g = new_graph(4)
        assert g.n == 4 and g.q == 0 and g.mode is Mode.STRICT

    def test_new_graph_rejects_zero_vertices(self):
        with pytest.raises(InvalidVertexCountError):
            new_graph(0)

    def test_single_vertex_graph_is_valid(self):
        g = new_graph(1, Mode.RELAXED)
        assert g.q == 0 and is_valid(g)

    def test_add_edge_canonicalizes(self):
        g = add_edge(new_graph(4), 1, 0, 1)
        assert g.edges == {(0, 1): 1}

    def test_add_edge_is_functional(self):
        g0 = new_graph(3)
        g1 = add_edge(g0, 0, 1, 1)
        assert g0.q == 0 and g1.q == 1

    def test_duplicate_edge_rejected_in_either_orientation(self):
        g = add_edge(new_graph(4), 0, 1, 1)
        with pytest.raises(DuplicateEdgeError):
            add_edge(g, 1, 0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            add_edge(new_graph(4), 2, 2, 7)

    def test_duplicate_weight_rejected(self):
        g = add_edge(new_graph(4), 0, 1, 3)
        with pytest.raises(DuplicateWeightError):
            add_edge(g, 1, 2, 3)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            add_edge(new_graph(3), 0, 1, 0)
        with pytest.raises(NonPositiveWeightError):
            add_edge(new_graph(3), 0, 1, Fraction(-1, 2))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            add_edge(new_graph(3), 0, 3, 1)


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
        with pytest.raises(WrongPermutationLengthError):
            complete_graph(3, [1, 2])

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutationError):
            complete_graph(3, [1, 2, 2])

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
        assert g.q == 9 and is_valid(g)

    def test_max_edges_gives_complete(self):
        g = random_graph(4, 6, 5)
        assert set(g.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_zero_edges(self):
        assert random_graph(3, 0, 1).edges == {}

    def test_too_many_edges(self):
        with pytest.raises(TooManyEdgesError):
            random_graph(3, 4, 0)

    def test_different_seeds_usually_differ(self):
        assert any(random_graph(6, 9, 0) != random_graph(6, 9, s) for s in range(1, 5))


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


def _assert_parses_like_fraction(token):
    """_parse_weight gives Fraction(token), normalised to int when whole."""
    expected = Fraction(token)
    if expected.denominator == 1:
        expected = int(expected)
    w = _parse_weight(token, 1)
    assert w == expected and type(w) is type(expected)


class TestParseWeight:
    @settings(max_examples=300)
    @given(st.from_regex(r"\A[0-9]{1,30}\.[0-9]{1,30}\Z"))
    def test_decimal_tokens_match_fraction(self, token):
        _assert_parses_like_fraction(token)

    @pytest.mark.parametrize(
        "token", ["5.", ".5", "+1.5", "1_0.5", "1e3", "2.50e-1", "\u0661.\u0665", " 1.5", "0.0"]
    )
    def test_other_forms_take_the_fraction_path(self, token):
        _assert_parses_like_fraction(token)

    @pytest.mark.parametrize("token", ["\u00b2.5", "1.2.3", "1..5", "x.5", "."])
    def test_malformed_decimals_are_parse_errors(self, token):
        with pytest.raises(EdgeListParseError):
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

    def test_mode_override(self):
        g = parse_edge_list("p 2 1\ne 1 2 1\n", mode=Mode.RELAXED)
        assert g.mode is Mode.RELAXED
        with pytest.raises(GraphValidationError):
            parse_edge_list("p 2 1\ne 1 2 7\n", mode=Mode.STRICT)

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
