"""The bulk paths of the graph front end against the loops they stand in for.

parse_edge_list's line loop hands a body of the declared length to the
column reader and reads on by itself only when that answers None; validate
decides the valid case in bulk and falls back to the per-edge loop.  Each
bulk path must give exactly what its loop gives: the same graph, or the
same exception with the same line, message and violation list.
line_loop and per_edge_loop run the loops alone: they make the bulk paths
answer None and False.
"""

from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import pairwise, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Mode,
    WeightedGraph,
    complete_graph,
    graphs,
    parse_edge_list,
    random_graph,
    render_edge_list,
)
from monotrails.errors import EdgeListParseError, GraphValidationError

from strategies import any_graphs, relaxed_graphs, strict_graphs


@contextmanager
def patched(**values):
    """Attributes of graphs set for the block (small chunks put chunk
    boundaries inside tiny files)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(graphs, name, value)
        yield


def line_loop(text):
    with patched(_parse_columns=lambda lines, start: None):
        return parse_edge_list(text)


def per_edge_loop(g):
    with patched(_bulk_valid=lambda g: False):
        return graphs.validate(g)


@contextmanager
def column_reader_only():
    """Fail unless the block's one parse hands its body to the column reader
    and keeps what it answers.  An 'e' line that reaches the line loop's
    per-line branch fails at once: only that branch calls _parse_weight."""
    parse_columns = graphs._parse_columns
    answers = []

    def columns(lines, start):
        answers.append(parse_columns(lines, start))
        return answers[-1]

    def weight(token, line_no):
        raise AssertionError(f"line {line_no} reached the per-line branch")

    with patched(_parse_columns=columns, _parse_weight=weight):
        yield
    assert len(answers) == 1 and answers[0] is not None


def outcome(parse, text):
    """What a parse gives: the graph with its edge order, or the error.
    A graph's mode is the one its weights imply."""
    try:
        g = parse(text)
    except EdgeListParseError as exc:
        return type(exc), exc.line_no, str(exc)
    except GraphValidationError as exc:
        return type(exc), exc.violations, str(exc)
    assert (g.mode is Mode.STRICT) == (g._rank_order is not None)
    return g, [(key, w, type(w)) for key, w in g.edges.items()]


def assert_same_outcome(text):
    assert outcome(parse_edge_list, text) == outcome(line_loop, text)


def _int_reads(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def _fraction_reads(token):
    """Fraction(token) with its "_" removed, or None: also when a "_" lacks a
    digit on either side or the token holds a "/"."""
    if "/" in token or not all(
        a[-1:].isdecimal() and b[:1].isdecimal() for a, b in pairwise(token.split("_"))
    ):
        return None
    try:
        return Fraction(token.replace("_", ""))
    except ValueError:
        return None


# --- mutations of a well-formed file ---------------------------------------
#
# A file is (prefix lines, header [n, q], body lines); each mutation edits
# the body at a drawn position.

_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_BAD_TOKENS = ("x", "1/2", "e", "1.2.3", "-", "²", "1e", "..")


def _retoken(token, how):
    if how == "plus":
        return "+" + token
    if how == "underscore":
        return token[0] + "_" + token[1:] if len(token) > 1 and token[1].isdigit() else "1_0"
    if how == "arabic":
        return token.translate(_DIGITS)
    return how  # a bad token


def _fields(line):
    return line.split(" ")


def mutate(body, header, kind, i, pick):
    if not body and kind not in ("comment", "blank", "second_header", "repeat"):
        return
    i %= max(len(body), 1)
    if kind == "comment":
        body.insert(i, "c note " + str(pick))
    elif kind == "blank":
        body.insert(i, ["", "   ", "\t"][pick % 3])
    elif kind == "tab_after_kind":
        body[i] = body[i].replace(" ", "\t", 1)
    elif kind == "tab_inside":
        body[i] = body[i][::-1].replace(" ", "\t", 1)[::-1]
    elif kind == "leading_space":
        body[i] = [" ", "  ", "\t"][pick % 3] + body[i]
    elif kind == "three_fields":
        body[i] = body[i].rsplit(" ", 1)[0]
    elif kind == "five_fields":
        body[i] += " 7"
    elif kind == "glued":
        body[i] = body[i].replace("e ", "e", 1)
    elif kind == "eight_two_two" and len(body) >= 3:
        i = min(i, len(body) - 3)
        a, b, c = body[i : i + 3]
        c_fields = _fields(c)
        if len(c_fields) != 4:
            return
        merged = [a + " " + b, "e " + c_fields[1], "e " + c_fields[2]]
        body[i : i + 3] = merged if pick % 2 else merged[1:] + merged[:1]
    elif kind == "swap_endpoints":
        f = _fields(body[i])
        if len(f) == 4:
            body[i] = " ".join([f[0], f[2], f[1], f[3]])
    elif kind == "self_loop":
        f = _fields(body[i])
        if len(f) == 4:
            body[i] = " ".join([f[0], f[1], f[1], f[3]])
    elif kind == "repeat" and body:
        f = _fields(body[i % len(body)])
        if len(f) == 4:
            u, v = (f[2], f[1]) if pick % 2 else (f[1], f[2])
            body.insert(pick % (len(body) + 1), f"e {u} {v} {99 + pick}")
            header[1] += 1
    elif kind == "retoken":
        f = _fields(body[i])
        if len(f) == 4:
            col = 1 + pick % 3
            how = ["plus", "underscore", "arabic", *_BAD_TOKENS][pick % (3 + len(_BAD_TOKENS))]
            f[col] = _retoken(f[col], how)
            body[i] = " ".join(f)
    elif kind == "second_header":
        body.insert(i, f"p {header[0]} {header[1]}")
    elif kind == "edge_before_header":
        body.insert(0, "__before__" + body.pop(i))
    elif kind == "count":
        header[1] += [-1, 1, 2][pick % 3]


MUTATIONS = (
    "comment", "blank", "tab_after_kind", "tab_inside", "leading_space", "three_fields",
    "five_fields", "glued", "eight_two_two", "swap_endpoints", "self_loop", "repeat",
    "retoken", "second_header", "edge_before_header", "count",
)


def assemble(prefix, header, body):
    moved = [line[len("__before__"):] for line in body if line.startswith("__before__")]
    body = [line for line in body if not line.startswith("__before__")]
    return "\n".join(prefix + moved + [f"p {header[0]} {header[1]}"] + body) + "\n"


@st.composite
def edge_list_files(draw):
    g = draw(st.one_of(strict_graphs(max_n=6), relaxed_graphs(max_n=6)))
    body = render_edge_list(g).splitlines()[1:]
    body = draw(st.permutations(body))
    header = [g.n, g.q]
    prefix = draw(st.sampled_from([[], ["c made by hand"], ["", "c two", "  "]]))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 40), st.integers(0, 40)),
            max_size=3,
        )
    )
    for kind, i, pick in steps:
        mutate(body, header, kind, i, pick)
    return assemble(prefix, header, body)


class TestParseDifferential:
    @settings(max_examples=400)
    @given(edge_list_files(), st.sampled_from([1, 2, 3, graphs._COLUMN_CHUNK]))
    def test_column_path_matches_the_line_loop(self, text, chunk):
        with patched(_COLUMN_CHUNK=chunk):
            assert_same_outcome(text)

    @pytest.mark.parametrize(
        "text",
        [
            # one 8-field line and two 2-field lines: 12 tokens on 3 lines
            "p 5 3\ne 1 2 1 e 2 3 2\ne 3\ne 4\n",
            "p 5 3\ne 3\ne 4\ne 1 2 1 e 2 3 2\n",
            "p 5 3\ne 1 2 1\ne\t2 3 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\n e 2 3 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 2 3 2\n\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\nc inside\ne 2 3 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne1 2 3 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 3 2 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 2 2 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 2 1 2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 1 2 2\ne 3 4 3\n",
            "p 5 3\ne +1 2 1\ne 1_0 2 2\ne ٣ 4 +3\n",
            "p 5 3\ne 1 2 1\ne 2 3 1/2\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 2 3 x\ne 3 4 3\n",
            "p 5 3\ne 1 2 1\ne 2 3 2\n",
            "p 5 3\ne 1 2 1\np 5 3\ne 2 3 2\ne 3 4 3\n",
            "e 1 2 1\np 5 2\ne 2 3 2\n",
            "c lead\n\np 5 3\ne 1 2 1.5\ne 2 3 2\ne 3 4 3.000\n",
            "p 3 1\ne 1 2 1\t\n",
            "p 20000000 1\ne 1 2 1\n",
            "p 3 2\ne 1 2 1e4299\ne 2 3 2\n",
            "p 3 2\ne 1 2 1e4300\ne 2 3 2\n",
            "p 3 2\ne 1 2 1e-4300\ne 2 3 2\n",
        ],
    )
    def test_hand_made_files(self, text):
        for chunk in (1, 2, graphs._COLUMN_CHUNK):
            with patched(_COLUMN_CHUNK=chunk):
                assert_same_outcome(text)

    def test_every_short_weight_token_reads_as_fraction_does(self):
        # Each token int() refuses of up to 4 characters over this alphabet
        # is read exactly when Fraction, on any Python, reads it with its "_"
        # removed, every "_" between two digits and no "/": as that value,
        # an int when whole, else a Decimal.  Both readers then agree; the
        # column reader reads each valid token of digits and points and
        # hands any other to the line loop, which names a bad token's line.
        tokens = [
            token
            for size in range(1, 5)
            for token in map("".join, product("01.+-eE_\u0661x/", repeat=size))
            if not _int_reads(token)
        ]
        for token in tokens:
            expected = _fraction_reads(token)
            try:
                w = graphs._parse_weight(token, 1)
            except EdgeListParseError:
                assert expected is None, token
                continue
            assert expected is not None, token
            assert w == expected and type(w) is (int if expected.denominator == 1 else Decimal), token
        texts = [f"p 4 3\ne 1 2 7\ne 2 3 {token}\ne 3 4 1234.5678\n" for token in tokens]
        for token, text in zip(tokens, texts):
            by_columns = not token.strip("0123456789.") and _fraction_reads(token) is not None
            assert (graphs._parse_columns(text.splitlines(), 1) is not None) == by_columns, token
        with patched(_parse_columns=lambda lines, start: None):
            by_lines = [outcome(parse_edge_list, text) for text in texts]
        for chunk in (1, graphs._COLUMN_CHUNK):
            with patched(_COLUMN_CHUNK=chunk):
                for text, expected in zip(texts, by_lines):
                    assert outcome(parse_edge_list, text) == expected, text

    @settings(max_examples=60)
    @given(
        st.one_of(strict_graphs(), relaxed_graphs()),
        st.sampled_from(["", "c lead\n"]),
        st.sampled_from([1, 3, graphs._COLUMN_CHUNK]),
    )
    def test_rendered_files_take_the_column_path(self, g, prefix, chunk):
        # A relaxed-labelled graph whose weights are 1..q comes back strict.
        with patched(_COLUMN_CHUNK=chunk), column_reader_only():
            parsed = parse_edge_list(prefix + render_edge_list(g))
        assert (parsed.n, parsed.edges) == (g.n, g.edges)

    @pytest.mark.parametrize("prefix", ["", "c lead\n"], ids=["bare", "comment"])
    @pytest.mark.parametrize(
        "g",
        [WeightedGraph(n=2, edges={}, mode=Mode.STRICT), complete_graph(4, [1, 3, 6, 5, 4, 2])],
        ids=["edgeless", "k4"],
    )
    def test_small_well_formed_files_skip_the_line_loop(self, g, prefix):
        with column_reader_only():
            assert parse_edge_list(prefix + render_edge_list(g)) == g

    def test_large_well_formed_files_skip_the_line_loop(self):
        g = random_graph(100, 2000, 3)
        for prefix in ("", "c lead\n"):
            with column_reader_only():
                assert parse_edge_list(prefix + render_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text, keys",
        [
            ("p 3 2\ne 01 2 1\ne 1 +3 2\n", [(0, 1), (0, 2)]),
            ("p 3 3\ne 1 +2 1\ne 01 3 2\ne 2 03 3\n", [(0, 1), (0, 2), (1, 2)]),
            ("p 3 2\ne 01 +2 1\ne 1 2 2\n", None),  # one edge written two ways
        ],
    )
    def test_a_vertex_written_two_ways_is_one_vertex(self, text, keys):
        with patched(_COLUMN_CHUNK=1):
            assert_same_outcome(text)
            if keys is None:
                assert graphs._parse_columns(text.splitlines(), 1) is None
            else:
                with column_reader_only():
                    assert list(parse_edge_list(text).edges) == keys

    @pytest.mark.parametrize("chunk", [97, graphs._COLUMN_CHUNK])
    def test_edge_keys_share_one_int_per_vertex(self, chunk):
        g = random_graph(400, 3000, 5)
        with patched(_COLUMN_CHUNK=chunk), column_reader_only():
            parsed = parse_edge_list(render_edge_list(g))
        assert parsed == g
        assert len({id(x) for key in parsed.edges for x in key}) <= g.n

    @pytest.mark.parametrize("header", ["p 10000001 0", "c lead\np 10000001 0\ne 1 2 1"])
    def test_vertex_count_limit_names_the_header_line(self, header):
        line = header.splitlines().index("p 10000001 0") + 1
        for parse in (parse_edge_list, line_loop):
            with pytest.raises(EdgeListParseError) as exc:
                parse(header + "\n")
            assert exc.value.line_no == line
            assert exc.value.reason == "vertex count 10000001 exceeds the limit of 10000000"

    def test_vertex_count_at_the_limit_parses(self):
        g = parse_edge_list(f"p {graphs.MAX_VERTICES} 1\ne 1 2 1\n")
        assert g.n == graphs.MAX_VERTICES


# --- validate ----------------------------------------------------------------


@st.composite
def raw_graphs(draw, max_n=6):
    """Graphs built without any checks: keys in any order or out of range,
    self-loops, weights <= 0, repeated, or given once as an int and once as
    an equal Fraction."""
    n = draw(st.integers(-1, max_n))
    keys = draw(
        st.lists(
            st.tuples(st.integers(-1, max_n + 1), st.integers(-1, max_n + 1)),
            unique=True,
            max_size=8,
        )
    )
    weight = st.one_of(
        st.integers(-2, 10),
        st.fractions(min_value=-3, max_value=10, max_denominator=6),
        st.integers(-2, 10).map(Fraction),
    )
    weights = draw(st.lists(weight, min_size=len(keys), max_size=len(keys)))
    mode = draw(st.sampled_from([Mode.STRICT, Mode.RELAXED]))
    return WeightedGraph(n=n, edges=dict(zip(keys, weights)), mode=mode)


HAND_BUILT_INVALID = [
    WeightedGraph(n=3, edges={(1, 0): 1, (0, 2): 2}, mode=Mode.STRICT),
    WeightedGraph(n=3, edges={(0, 3): 1, (0, 1): 2}, mode=Mode.RELAXED),
    WeightedGraph(n=3, edges={(-1, 1): 1}, mode=Mode.RELAXED),
    WeightedGraph(n=0, edges={}, mode=Mode.STRICT),
    WeightedGraph(n=3, edges={(0, 1): Fraction(-1, 2), (1, 2): 3}, mode=Mode.RELAXED),
    WeightedGraph(n=3, edges={(0, 1): Fraction(0), (1, 2): 3}, mode=Mode.RELAXED),
    WeightedGraph(n=3, edges={(0, 1): 2, (1, 2): Fraction(2)}, mode=Mode.RELAXED),
    WeightedGraph(n=3, edges={(0, 1): 2, (1, 2): Fraction(4, 2)}, mode=Mode.STRICT),
    WeightedGraph(n=3, edges={(0, 1): Fraction(1, 2), (1, 2): Fraction(2, 4)}, mode=Mode.RELAXED),
    WeightedGraph(n=3, edges={(0, 1): 1, (1, 2): 3}, mode=Mode.STRICT),
    WeightedGraph(n=3, edges={(0, 1): 1, (1, 2): 2.0}, mode=Mode.RELAXED),
    WeightedGraph(n=3, edges={(0, 1): True, (1, 2): 2}, mode=Mode.STRICT),
]


class TestBulkValidate:
    @given(st.one_of(any_graphs(), raw_graphs()))
    def test_same_list_as_the_per_edge_loop(self, g):
        assert graphs.validate(g) == per_edge_loop(g)

    @pytest.mark.parametrize("g", HAND_BUILT_INVALID, ids=range(len(HAND_BUILT_INVALID)))
    def test_hand_built_graphs(self, g):
        assert graphs.validate(g) == per_edge_loop(g)

    def test_equal_int_and_fraction_weights_are_duplicates(self):
        g = WeightedGraph(n=3, edges={(0, 1): 2, (1, 2): Fraction(2)}, mode=Mode.RELAXED)
        assert [v.kind for v in graphs.validate(g)] == ["duplicate-weight"]

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_large_valid_graphs_are_decided_in_bulk(self, relaxed):
        g = random_graph(80, 2000, 1)
        if relaxed:
            g = WeightedGraph(g.n, {k: Fraction(w, 8) for k, w in g.edges.items()}, Mode.RELAXED)
        assert graphs._bulk_valid(g) and graphs.validate(g) == []

    @pytest.mark.parametrize("mode", [Mode.STRICT, Mode.RELAXED])
    def test_edgeless_graphs_are_decided_in_bulk(self, mode):
        g = WeightedGraph(n=2, edges={}, mode=mode)
        bulk_valid, answers = graphs._bulk_valid, []
        with patched(_bulk_valid=lambda g: answers.append(bulk_valid(g)) or answers[-1]):
            assert graphs.validate(g) == []
        assert answers == [True]
