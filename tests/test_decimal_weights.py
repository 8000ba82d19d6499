"""Decimal weights.

A non-integral weight token ("123.456", ".5", "2.5e-1") is parsed to
Decimal(token), an int when integral, by both readers, and never to a
Fraction.  Every answer must be the one the same graph gives with each
Decimal replaced by its Fraction: validation with its messages, the rank
order, both trails, the oracle, the JSON trail, the text trail and the
rendered edge list.
"""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Mode,
    Order,
    WeightedGraph,
    brute_force_longest,
    graphs,
    longest_ordered_trail,
    parse_edge_list,
    ranked_edges,
    render_edge_list,
    validate,
)
from monotrails.cli import _trail_text
from monotrails.errors import EdgeListParseError, GraphValidationError
from monotrails.graphs import MAX_WEIGHT_DIGITS, _parse_weight
from monotrails.trails import trail_json

FIXTURES = Path(__file__).parent / "fixtures"


def as_fractions(g: WeightedGraph) -> WeightedGraph:
    """g with every Decimal weight replaced by the equal Fraction."""
    edges = {k: Fraction(w) if type(w) is Decimal else w for k, w in g.edges.items()}
    return WeightedGraph(n=g.n, edges=edges, mode=g.mode)


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def line_loop(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_parse_columns", lambda lines, start: None)
        return parse_edge_list(text)


def sort_check_answers(monkeypatch) -> list:
    """Record what each call of graphs._distinct_positive answers."""
    answers = []
    check = graphs._distinct_positive
    monkeypatch.setattr(graphs, "_distinct_positive", lambda g: answers.append(check(g)) or answers[-1])
    return answers


# Plain decimal tokens: ordinary ones, integral ones written with a point,
# plain integers, decimals whose floats tie, one beyond float range, and
# zero.  Drawn with repeats, so some files fail validation.
_TOKENS = st.one_of(
    st.builds(
        lambda whole, frac: f"{whole}.{frac}",
        st.integers(0, 999),
        st.from_regex(r"\A[0-9]{1,4}\Z"),
    ),
    st.integers(1, 999).map(lambda k: f"{k}.000"),
    st.integers(1, 999).map(str),
    st.integers(1, 9).map(lambda k: f"1.0000000000000000000{k}"),
    st.just("1" + "0" * 400 + ".5"),
    st.just("0.0"),
)


@st.composite
def decimal_files(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pairs = draw(
        st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2))), unique=True, min_size=1)
    )
    tokens = draw(st.lists(_TOKENS, min_size=len(pairs), max_size=len(pairs)))
    lines = [f"p {n} {len(pairs)}"] + [f"e {u} {v} {w}" for (u, v), w in zip(pairs, tokens)]
    return "\n".join(lines) + "\n"


def parsed(text) -> WeightedGraph:
    """The graph of a file, valid or not, with the mode parse_edge_list reads."""
    n, edges, violations = graphs._parse_lines(text.splitlines())
    assert violations == []
    g = WeightedGraph(n=n, edges=edges, mode=Mode.STRICT)
    return g if g._rank_order is not None else WeightedGraph(n=n, edges=edges, mode=Mode.RELAXED)


class TestSameAnswersAsFraction:
    @settings(max_examples=200)
    @given(decimal_files())
    def test_every_answer_matches(self, text):
        g = parsed(text)
        f = as_fractions(g)
        assert set(map(type, g.edges.values())) <= {int, Decimal}
        assert validate(g) == validate(f)
        assert ranked_edges(g) == ranked_edges(f)
        if validate(g):
            with pytest.raises(GraphValidationError) as exc:
                parse_edge_list(text)
            assert exc.value.violations == validate(f)
            return
        for kind in Order:
            dec, frac = longest_ordered_trail(g, kind), longest_ordered_trail(f, kind)
            assert dec == frac
            trail = (dec.witness, dec.start)
            assert outcome(trail_json, g, *trail) == outcome(trail_json, f, *trail)
            assert _trail_text(g, *trail) == _trail_text(f, *trail)
        assert brute_force_longest(g) == brute_force_longest(f)
        assert render_edge_list(g) == render_edge_list(f)

    def test_a_duplicate_decimal_weight_keeps_its_message(self, monkeypatch):
        text = "p 3 3\ne 1 2 1.50\ne 2 3 1.5\ne 1 3 2.25\n"
        answers = sort_check_answers(monkeypatch)
        for parse in (parse_edge_list, line_loop):
            with pytest.raises(GraphValidationError) as exc:
                parse(text)
            assert str(exc.value) == (
                "edge list fails validation: duplicate-weight: weight 3/2 used more than once"
            )
        assert answers == [False, False]

    def test_a_zero_decimal_weight_keeps_its_message(self, monkeypatch):
        answers = sort_check_answers(monkeypatch)
        with pytest.raises(GraphValidationError) as exc:
            parse_edge_list("p 3 2\ne 1 2 0.000\ne 2 3 1.5\n")
        assert [v.detail for v in exc.value.violations] == ["edge (1,2) has weight 0"]
        assert answers == [False]

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ([Decimal("1.50"), Decimal("1.5"), Decimal("2.25")], False),
            ([Decimal("1.5"), Fraction(3, 2)], False),
            ([2, Decimal("0.5"), Fraction(4, 2)], False),
            ([Decimal("0.000"), Decimal("1.5")], False),
            ([Decimal("-0.5"), 2], False),
            ([Decimal("0.5"), 2, Fraction(7, 4), Decimal("1.75001")], True),
            ([], True),
        ],
    )
    def test_the_kept_order_decides_sign_and_distinctness(self, weights, expected):
        keys = list(combinations(range(len(weights) + 1), 2))[: len(weights)]
        g = WeightedGraph(n=len(weights) + 1, edges=dict(zip(keys, weights)), mode=Mode.RELAXED)
        assert graphs._distinct_positive(g) is expected
        assert expected == (len(set(weights)) == len(weights) and min(weights, default=1) > 0)
        assert g._weight_order == sorted(g.edges, key=g.edges.__getitem__)

    def test_an_integral_decimal_is_an_int(self):
        w = _parse_weight("3.000", 1)
        assert w == 3 and type(w) is int
        assert [type(w) for w in graphs._decimal_column(["3.000", "51", "2.5"])] == [
            int, int, Decimal
        ]
        for parse in (parse_edge_list, line_loop):
            g = parse("p 3 2\ne 1 2 2.000\ne 2 3 1.0\n")
            assert g.mode is Mode.STRICT and g.edges == {(0, 1): 2, (1, 2): 1}
            assert set(map(type, g.edges.values())) == {int}

    @pytest.mark.parametrize("parse", [parse_edge_list, line_loop], ids=["columns", "lines"])
    def test_the_digit_limit_holds_for_plain_decimals(self, parse):
        at_limit = "1" * (MAX_WEIGHT_DIGITS - 1) + ".5"
        g = parse(f"p 3 2\ne 1 2 {at_limit}\ne 2 3 1.5\n")
        assert g.edges[(0, 1)] == Decimal(at_limit)
        above = "1" * MAX_WEIGHT_DIGITS + ".5"
        with pytest.raises(EdgeListParseError) as exc:
            parse(f"p 3 2\ne 1 2 {above}\ne 2 3 1.5\n")
        assert str(exc.value) == f"line 2: cannot parse weight {above!r}"

    def test_the_column_reader_counts_the_digits_of_a_plain_decimal(self):
        at_limit = "1" * (MAX_WEIGHT_DIGITS - 1) + ".5"  # one character more than digits
        assert graphs._decimal_column([at_limit, "1.5"]) == [Decimal(at_limit), Decimal("1.5")]
        # An integer, or a point at either end, is measured by its length, as
        # _parse_weight measures it, so the line loop reads and refuses it.
        digits = "1" * MAX_WEIGHT_DIGITS
        for above in [digits + "1", digits + ".", "." + digits]:
            assert graphs._decimal_column([above, "1.5"]) is None

    @pytest.mark.parametrize("parse", [parse_edge_list, line_loop], ids=["columns", "lines"])
    @pytest.mark.parametrize(
        "token, message",
        [
            ("1" * (MAX_WEIGHT_DIGITS + 1), "cannot parse weight {!r}"),
            ("1" * MAX_WEIGHT_DIGITS + ".", "weight {!r} is beyond the limit of 4300 digits"),
        ],
        ids=["integer-4301-digits", "trailing-point-4301-characters"],
    )
    def test_tokens_over_the_limit_keep_the_line_loop_message(self, parse, token, message):
        with pytest.raises(EdgeListParseError) as exc:
            parse(f"p 3 2\ne 1 2 {token}\ne 2 3 1.5\n")
        assert str(exc.value) == "line 2: " + message.format(token)

    @pytest.mark.parametrize("token", [".5", "5.", "1.", "0.50", "1e3", "+1.5", "1_0.5"])
    def test_both_readers_give_the_same_type(self, token):
        # Every non-integral weight is a Decimal and every integral one an
        # int, "5." and "1e3" too, in either reader.
        text = f"p 3 2\ne 1 2 {token}\ne 2 3 1234.5678\n"
        by_columns, by_lines = parse_edge_list(text), line_loop(text)
        assert by_columns == by_lines
        assert list(map(type, by_columns.edges.values())) == list(map(type, by_lines.edges.values()))
        expected = Fraction(token.replace("_", ""))
        w = by_columns.edges[(0, 1)]
        assert w == expected and type(w) is (int if expected.denominator == 1 else Decimal)

    def test_a_hand_built_mix_of_decimal_fraction_and_int(self):
        # A 4-cycle weighted 2, 7/4, 1.5, 0.5 around: one decreasing trail of 4.
        mix = {(0, 1): 2, (1, 2): Fraction(7, 4), (2, 3): Decimal("1.5"), (0, 3): Decimal("0.5")}
        g = WeightedGraph(n=4, edges=mix, mode=Mode.RELAXED)
        f = as_fractions(g)
        assert validate(g) == validate(f) == []
        assert ranked_edges(g) == ranked_edges(f) == [(0, 3), (2, 3), (1, 2), (0, 1)]
        for kind in Order:
            dec = longest_ordered_trail(g, kind)
            assert dec == longest_ordered_trail(f, kind) and dec.optimum == 4
            trail = (dec.witness, dec.start)
            assert _trail_text(g, *trail) == _trail_text(f, *trail)
            assert trail_json(g, *trail) == trail_json(f, *trail)
        assert brute_force_longest(g) == brute_force_longest(f)
        twin = WeightedGraph(n=4, edges={**mix, (0, 3): Decimal("1.75")}, mode=Mode.RELAXED)
        assert [v.detail for v in validate(twin)] == ["weight 7/4 used more than once"]


def _perfbench_style_file(n=200, q=5000, seed=1):
    """Weights written k // 1000 . k % 1000 as the benchmark's relaxed file
    writes them, with a few integral "x.000" tokens among them."""
    rng = random.Random(seed)
    pairs = rng.sample(list(combinations(range(1, n + 1), 2)), q)
    keys = rng.sample(range(1, 10**9), q - 5) + [1000 * k for k in range(1, 6)]
    lines = [f"p {n} {q}"] + [
        f"e {u} {v} {k // 1000}.{k % 1000:03d}" for (u, v), k in zip(pairs, keys)
    ]
    return "\n".join(lines) + "\n"


# Forms other than plain decimals, each in its own file (two are 1.5); the
# comment after the header sends each file to the line loop.
_OTHER_FORMS = [".5", "+1.5", "5.", "2.5e-1", "\u0661.\u0665", "1_0.5", "1E-4_299"]


@pytest.mark.parametrize(
    "texts, by_columns",
    [
        pytest.param([(FIXTURES / "relaxed_decimal.txt").read_text()], True, id="fixture"),
        pytest.param([_perfbench_style_file()], True, id="perfbench-style"),
        pytest.param(
            [f"p 3 2\nc other forms\ne 1 2 {token}\ne 2 3 1234.5678\n" for token in _OTHER_FORMS],
            False,
            id="other-forms",
        ),
    ],
)
def test_plain_decimal_files_build_no_fraction(monkeypatch, texts, by_columns):
    built, answers = [], []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def no_token_by_token(token, line_no):
        raise AssertionError(f"{token!r} parsed token by token")

    parse_columns = graphs._parse_columns
    monkeypatch.setattr(graphs, "Fraction", CountingFraction)
    if by_columns:
        monkeypatch.setattr(graphs, "_parse_weight", no_token_by_token)
    monkeypatch.setattr(
        graphs, "_parse_columns", lambda *a: answers.append(parse_columns(*a)) or answers[-1]
    )
    types = set()
    for text in texts:
        g = parse_edge_list(text)
        ranked_edges(g)
        assert g.mode is Mode.RELAXED
        types.update(map(type, g.edges.values()))
    assert (answers[0] is not None) if by_columns else answers == []
    assert types == {int, Decimal}
    assert built == []
