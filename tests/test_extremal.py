"""Minimum-over-weightings search and the lower-bound checker.

The expected minima for K3 and K4 are recomputed here from first
principles: a full scan of all weight permutations evaluated with the
brute-force trail search, never with the label-propagation algorithm the
extremal module uses internally.
"""

import gc
import math
import random
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotrails import (
    Order,
    Sampled,
    Structure,
    brute_force_longest,
    check_lower_bound,
    complete_graph,
    complete_structure,
    longest_ordered_trail,
    min_over_weightings,
    new_graph,
    parse_edge_list,
    random_graph,
    structure_of,
)
from monotrails import extremal
from monotrails.errors import InvalidGraphError, InvalidStructureError, MonotrailsError
from monotrails.graphs import Mode, WeightedGraph
from monotrails.labeling import _fold

from strategies import strict_graphs


K4_MINUS_AN_EDGE = Structure(n=4, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
C4 = Structure(n=4, edges=((0, 1), (0, 3), (1, 2), (2, 3)))
C5 = Structure(n=5, edges=((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
K13 = Structure(n=4, edges=((0, 1), (0, 2), (0, 3)))
K23 = Structure(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))
K24 = Structure(n=6, edges=tuple((a, b) for a in (0, 1) for b in range(2, 6)))
C8 = Structure(n=8, edges=((0, 1), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)))
PAW = Structure(n=4, edges=((0, 1), (0, 2), (1, 2), (2, 3)))  # a triangle with a pendant edge
TWO_TRIANGLES = Structure(n=6, edges=((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
P4 = Structure(n=4, edges=((0, 1), (1, 2), (2, 3)))


def oracle_min_over_weightings(n: int) -> tuple[int, tuple[int, ...]]:
    """Independent route: brute-force trail search over every weighting."""
    q = n * (n - 1) // 2
    best = q + 1
    best_w = None
    for perm in permutations(range(1, q + 1)):
        value = brute_force_longest(complete_graph(n, list(perm))).optimum
        if value < best or (value == best and perm < best_w):
            best, best_w = value, perm
    return best, best_w


def canonical(n: int, w) -> bool:
    """The orbit-representative condition on a weight vector of K_n, from its
    definition: weight 1 on (v1,v2), weights to v1 increasing along v3..vn,
    and w(v1,v3) below every weight to v2 other than the pinned one."""
    index = {k: i for i, k in enumerate(combinations(range(n), 2))}
    if w[index[(0, 1)]] != 1:
        return False
    hub = [w[index[(0, x)]] for x in range(2, n)]
    if hub != sorted(hub):
        return False
    rivals = [w[index[(1, x)]] for x in range(2, n)]
    return hub[0] < min(rivals)


def edges_of(mask) -> list[int]:
    """The edges whose bits are set in a task's bitmask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def admitted_orders(avail, unlocks):
    """Every order a search task's (avail, unlocks) admits, by a plain walk
    over edge sets: any available edge may come next, and placing edge j
    makes the edges in unlocks[j] available."""
    unlocked = [set(edges_of(u)) for u in unlocks]

    def walk(avail, prefix):
        if not avail:
            yield prefix
        for j in avail:
            yield from walk(avail - {j} | unlocked[j], prefix + (j,))

    return walk(set(edges_of(avail)), ())


def branch(task, edges):
    """The task whose orders are the task's that begin with `edges`, each
    available when placed: an unlock chain in which each of `edges` unlocks
    the next, and the last what is then available."""
    n, endpoints, avail, unlocks = task
    for j in edges:
        assert avail >> j & 1, f"edge {j} is not available"
        avail = avail ^ 1 << j | unlocks[j]
    chain = list(unlocks)
    for j, following in zip(edges, edges[1:]):
        chain[j] = 1 << following
    chain[edges[-1]] = avail
    return (n, endpoints, 1 << edges[0], chain)


def plain_task(s: Structure):
    """The one exhaustive task of a structure other than K_n, n >= 3: every
    edge available, no unlocks."""
    return (s.n, s.edges, (1 << s.q) - 1, (0,) * s.q)


K5_TASK = extremal._reduce_task(5, complete_structure(5).edges)


@st.composite
def prefixes(draw, task):
    """One to all of the edges K_n's task may place in turn, (v1,v2), its
    one available edge, first."""
    _, endpoints, avail, unlocks = task
    prefix = ()
    for _ in range(draw(st.integers(1, len(endpoints)))):
        j = draw(st.sampled_from(edges_of(avail)))
        prefix, avail = prefix + (j,), avail ^ 1 << j | unlocks[j]
    return prefix


def generated_weightings(n: int) -> list[tuple[int, ...]]:
    """Every order the reduced search folds for K_n, as a weight vector."""
    q = n * (n - 1) // 2
    _, _, avail, unlocks = extremal._reduce_task(n, complete_structure(n).edges)
    out = []
    for order in admitted_orders(avail, unlocks):
        w = [0] * q
        for weight, j in enumerate(order, 1):
            w[j] = weight
        out.append(tuple(w))
    return out


def orbit(n: int, w) -> set[tuple[int, ...]]:
    """Every relabeling of the weight vector w of K_n, one per vertex
    permutation."""
    index = {k: i for i, k in enumerate(combinations(range(n), 2))}
    out = set()
    for sigma in permutations(range(n)):
        img = [0] * len(index)
        for (a, b), j in index.items():
            sa, sb = sigma[a], sigma[b]
            img[index[(min(sa, sb), max(sa, sb))]] = w[j]
        out.add(tuple(img))
    return out


class TestMinOverWeightingsExhaustive:
    def test_k3_matches_brute_force_scan(self):
        expect_min, expect_witness = oracle_min_over_weightings(3)
        assert expect_min == 3  # frozen from the scan above
        report = min_over_weightings(complete_structure(3))
        assert report.minimum == 3
        assert report.examined == 6
        assert report.witness == expect_witness
        assert report.reduction_factor == 1

    def test_k4_matches_brute_force_scan(self):
        expect_min, expect_witness = oracle_min_over_weightings(4)
        assert expect_min == 3  # frozen from the scan above
        report = min_over_weightings(complete_structure(4))
        assert report.minimum == 3
        assert report.examined == 720
        assert report.witness == expect_witness

    def test_witness_achieves_the_minimum(self):
        report = min_over_weightings(complete_structure(4))
        g = complete_graph(4, list(report.witness))
        assert brute_force_longest(g).optimum == report.minimum

    def test_edgeless_structure(self):
        report = min_over_weightings(structure_of(new_graph(3)))
        assert report.minimum == 0 and report.examined == 1 and report.witness == ()

    def test_non_complete_structure(self):
        # Path on 3 vertices: some weighting yields only a length-1 trail?
        # No: both orders of 2 weights on adjacent edges chain into a
        # 2-trail from one end, so the minimum is 2.
        s = Structure(n=3, edges=((0, 1), (1, 2)))
        report = min_over_weightings(s)
        assert report.examined == 2
        assert report.minimum == 2

    def test_star_structure_minimum_is_one(self):
        # Disjoint edges: no two edges share a vertex, no chaining at all.
        s = Structure(n=4, edges=((0, 1), (2, 3)))
        assert min_over_weightings(s).minimum == 1

    def test_exhaustive_guard(self):
        message = r"^q=15 exceeds the exhaustive guard of 10; use Sampled mode$"
        with pytest.raises(MonotrailsError, match=message):
            min_over_weightings(complete_structure(6))

    def test_jobs_below_one_are_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                min_over_weightings(complete_structure(3), jobs=jobs)

    def test_jobs_do_not_change_the_report(self):
        serial = min_over_weightings(K4_MINUS_AN_EDGE, jobs=1)
        for jobs in (2, 3, 5):
            parallel = min_over_weightings(K4_MINUS_AN_EDGE, jobs=jobs)
            assert (parallel.minimum, parallel.witness, parallel.examined) == (
                serial.minimum,
                serial.witness,
                serial.examined,
            )

    def test_k5_exhaustive_starts_no_pool(self):
        report = min_over_weightings(complete_structure(5), jobs=2)
        assert (report.minimum, report.examined) == (5, math.factorial(10))


@st.composite
def small_structures(draw, max_n: int = 5, max_q: int = 6):
    """Structures with n <= max_n and q <= max_q: complete, sparse,
    disconnected, edgeless or with isolated vertices."""
    n = draw(st.integers(1, max_n))
    keys = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(keys), unique=True, max_size=max_q)) if keys else []
    return Structure(n=n, edges=tuple(sorted(edges)))


class TestEngineAgainstBruteForceScan:
    @settings(max_examples=100, deadline=None)
    @given(small_structures())
    def test_exhaustive_minimum_and_witness(self, s):
        best = None
        for perm in permutations(range(1, s.q + 1)):
            g = WeightedGraph(n=s.n, edges=dict(zip(s.edges, perm)), mode=Mode.STRICT)
            candidate = (brute_force_longest(g).optimum, perm)
            if best is None or candidate < best:
                best = candidate
        report = min_over_weightings(s)
        assert (report.minimum, report.witness) == best
        assert report.examined == math.factorial(s.q)


class TestPruningAgainstTheOrderStream:
    """The pruned search decides the same orders as folding every one."""

    @settings(max_examples=100, deadline=None)
    @given(small_structures(max_n=7, max_q=7))
    @example(Structure(n=4, edges=()))  # edgeless
    @example(Structure(n=6, edges=((0, 1), (0, 2), (1, 2))))  # a triangle and 3 isolated vertices
    @example(Structure(n=6, edges=((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))))  # 2 triangles
    @example(Structure(n=7, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6))))
    # A weight left in the buffer by a finished level would change this one's witness.
    @example(Structure(n=5, edges=((0, 3), (0, 4), (1, 3), (2, 3), (2, 4))))
    # A state recorded as refuted after a _beaten skip below it would change this one's witness.
    @example(Structure(n=5, edges=((0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))))
    # In an edge-transitive structure the one task refutes each lower cap from
    # every first edge; the paw is not edge-transitive.
    @example(C4)
    @example(C5)
    @example(K13)
    @example(K23)
    @example(PAW)
    @example(K24)
    @example(C8)
    # The full-vertex cut: P5's middle edges lift a vertex to the cap of 2
    # while its other edge is still to come.
    @example(Structure(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4))))
    # The finished-room cut: a spider with three legs of two edges, whose
    # pendant vertices finish early and leave room below the cap that no
    # later edge can use.
    @example(Structure(n=7, edges=((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6))))
    def test_exhaustive_search_equals_scanning_every_order(self, s):
        scanned = extremal._scan(s.n, s.edges, permutations(range(s.q)))
        report = min_over_weightings(s)
        assert (report.minimum, report.witness) == scanned
        assert report.examined == math.factorial(s.q)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_reduced_task_decides_the_orders_it_admits(self, n):
        # The one task, and each of its second-edge branches on its own: a
        # prefix wrongly skipped in one branch cannot hide behind another
        # branch's minimum or witness.
        task = _, endpoints, _, unlocks = extremal._reduce_task(n, complete_structure(n).edges)
        branches = [branch(task, (0, j)) for j in edges_of(unlocks[0])]
        for t in [task, *branches]:
            orders = admitted_orders(*t[2:])
            assert extremal._search(t) == extremal._scan(n, endpoints, orders)

    @settings(max_examples=60, deadline=None)
    @given(small_structures(max_n=7, max_q=7))
    # K4 with a pendant edge, and two more edges apart: with the pendant edge
    # first, every order ends at 4, two above the bound of 2 at the root.
    @example(Structure(n=9, edges=((0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6), (7, 8))))
    def test_each_first_edge_branch_decides_the_orders_it_admits(self, s):
        # Each first edge's branch of the plain task on its own: a state
        # wrongly skipped in one branch cannot hide behind another first
        # edge's minimum or witness.
        for j in range(s.q):
            t = branch(plain_task(s), (j,))
            assert extremal._search(t) == extremal._scan(s.n, s.edges, admitted_orders(*t[2:]))

    @settings(max_examples=60, deadline=None)
    @given(prefixes(K5_TASK))
    # After (v1,v2), placing (v1,v3), (v3,v5), (v4,v5), (v2,v4) leaves labels
    # whose bound is 5, yet every order ends at 7: its search refutes two caps.
    @example((0, 1, 8, 9, 5))
    def test_each_branch_of_the_k5_task_decides_the_orders_it_admits(self, prefix):
        t = branch(K5_TASK, prefix)
        assert extremal._search(t) == extremal._scan(5, t[1], admitted_orders(*t[2:]))

    def test_every_structure_on_five_vertices_with_at_most_six_edges(self):
        # 848 structures, each first edge's branch on its own too: a state
        # wrongly skipped in one branch cannot hide behind another branch's
        # minimum or witness.
        count = 0
        for q in range(7):
            for edges in combinations(combinations(range(5), 2), q):
                s = Structure(n=5, edges=edges)
                report = min_over_weightings(s)
                assert (report.minimum, report.witness) == extremal._scan(
                    5, edges, permutations(range(q))
                ), edges
                for j in range(q):
                    t = branch(plain_task(s), (j,))
                    assert extremal._search(t) == extremal._scan(5, edges, admitted_orders(*t[2:]))
                count += 1
        assert count == 848


@pytest.fixture
def searched(monkeypatch):
    """The tasks min_over_weightings hands to _search, in turn."""
    tasks = []
    search = extremal._search

    def spy(task):
        tasks.append(task)
        return search(task)

    monkeypatch.setattr(extremal, "_search", spy)
    return tasks


EDGE_TRANSITIVE = [C4, C5, K13, K23, K24, TWO_TRIANGLES]
EDGE_TRANSITIVE_IDS = ["C4", "C5", "K13", "K23", "K24", "two-triangles"]


class TestOneTask:
    """An exhaustive search of a structure other than K_n, n >= 3, is one
    task from the empty prefix: every first edge is a branch of it, and the
    branches share one cap ladder and one table of refuted states."""

    @pytest.mark.parametrize(
        "s",
        [complete_structure(2), *EDGE_TRANSITIVE, C8, P4, PAW, K4_MINUS_AN_EDGE],
        ids=["K2", *EDGE_TRANSITIVE_IDS, "C8", "P4", "paw", "K4-e"],
    )
    def test_a_structure_other_than_k_n_runs_the_plain_task_alone(self, searched, s):
        report = min_over_weightings(s)
        assert searched == [plain_task(s)]
        assert (report.minimum, report.witness) == extremal._scan(s.n, s.edges, permutations(range(s.q)))

    def test_reduce_runs_the_same_plain_task_off_k_n(self, searched):
        plain = min_over_weightings(PAW)
        reduced = min_over_weightings(PAW, reduce_symmetry=True)
        assert searched == [plain_task(PAW)] * 2
        assert plain[2:6] == reduced[2:6]  # examined, minimum, witness, reduction factor
        assert reduced.reduction_factor == 1

    def test_isolated_vertices_change_nothing(self, searched):
        for s in (P4, PAW, C4, K4_MINUS_AN_EDGE):
            expected = min_over_weightings(s)
            padded = Structure(n=s.n + 3, edges=s.edges)
            shifted = Structure(n=s.n + 2, edges=tuple((a + 2, b + 2) for a, b in s.edges))
            for t in (padded, shifted):
                searched.clear()
                report = min_over_weightings(t)
                assert searched == [plain_task(s)]  # the isolated vertices are dropped
                assert report[2:6] == expected[2:6]

    @pytest.mark.parametrize("s", EDGE_TRANSITIVE, ids=EDGE_TRANSITIVE_IDS)
    def test_every_first_edge_of_an_edge_transitive_structure_reaches_the_minimum(self, s):
        # An automorphism carries any first edge onto edge 0, so each branch
        # has the same minimum, and edge 0's branch holds the witness.
        report = min_over_weightings(s)
        results = [extremal._search(branch(plain_task(s), (j,))) for j in range(s.q)]
        assert {value for value, _ in results} == {report.minimum}
        assert results[0] == (report.minimum, report.witness)


class TestSymmetryReduction:
    def test_k3_reduced_count_and_minimum(self):
        full = min_over_weightings(complete_structure(3))
        reduced = min_over_weightings(complete_structure(3), reduce_symmetry=True)
        assert reduced.examined == 1  # 3! / 3!
        assert reduced.reduction_factor == 6
        assert reduced.minimum == full.minimum

    def test_k4_reduced_count_and_minimum(self):
        full = min_over_weightings(complete_structure(4))
        reduced = min_over_weightings(complete_structure(4), reduce_symmetry=True)
        assert reduced.examined == 30  # 6! / 4!
        assert reduced.reduction_factor == 24
        assert reduced.minimum == full.minimum

    def test_reduction_disabled_for_non_complete(self):
        s = Structure(n=3, edges=((0, 1), (1, 2)))
        report = min_over_weightings(s, reduce_symmetry=True)
        assert report.reduction_factor == 1 and report.examined == 2

    def test_reduction_disabled_below_three_vertices(self):
        report = min_over_weightings(complete_structure(2), reduce_symmetry=True)
        assert report.reduction_factor == 1 and report.examined == 1

    def test_canonical_slice_is_an_exact_orbit_transversal_for_k4(self):
        # Rebuild the canonical filter from its definition and verify that
        # the surviving weightings hit every vertex-relabeling orbit of the
        # 720 weightings of K4 exactly once.
        n, q = 4, 6
        survivors = [w for w in permutations(range(1, q + 1)) if canonical(n, w)]
        assert len(survivors) == 30
        covered = set()
        for w in survivors:
            orb = orbit(n, w)
            assert len(orb) == 24  # the action is free on distinct weights
            assert not (orb & covered)
            covered |= orb
        assert len(covered) == 720

    @pytest.mark.parametrize("n", [4, 5])
    def test_generated_orders_are_exactly_the_canonical_weightings(self, n):
        q = n * (n - 1) // 2
        generated = generated_weightings(n)
        assert len(generated) == len(set(generated)) == math.factorial(q) // math.factorial(n)
        # Weight 1 on (v1,v2) is part of the definition, so only the tails vary.
        survivors = {w for w in ((1, *t) for t in permutations(range(2, q + 1))) if canonical(n, w)}
        assert set(generated) == survivors

    # A plain search of K_n folds only the canonical orders, and --reduce
    # changes only the report.  That is exact: relabeling keeps every trail
    # length, so each weighting has the value of its orbit's lex-min, and the
    # lex-min witness, being the lex-min of its own orbit, is canonical.
    @pytest.mark.parametrize("n, sample", [(3, None), (4, None), (5, 1000)])
    def test_each_generated_weighting_is_its_orbits_lex_min(self, n, sample):
        generated = generated_weightings(n)
        if sample:
            generated = random.Random(2).sample(generated, sample)
        for w in generated:
            assert min(orbit(n, w)) == w

    @pytest.mark.parametrize("n, count", [(5, 1000), (6, 100)])
    def test_the_orbit_minimum_of_a_random_weighting_is_canonical(self, n, count):
        rng = random.Random(n)
        q = n * (n - 1) // 2
        for _ in range(count):
            assert canonical(n, min(orbit(n, rng.sample(range(1, q + 1), q))))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_plain_search_finds_what_the_all_edge_task_finds(self, n):
        s = complete_structure(n)
        report = min_over_weightings(s)
        assert (report.minimum, report.witness) == extremal._search(plain_task(s))
        assert (report.examined, report.reduction_factor) == (math.factorial(s.q), 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_plain_search_runs_the_canonical_task_alone(self, monkeypatch, n):
        tasks = []
        search = extremal._search

        def spy(task):
            tasks.append(task)
            return search(task)

        monkeypatch.setattr(extremal, "_search", spy)
        plain = min_over_weightings(complete_structure(n), jobs=2)
        reduced = min_over_weightings(complete_structure(n), reduce_symmetry=True, jobs=2)
        canonical_task = extremal._reduce_task(n, complete_structure(n).edges)
        assert tasks == [canonical_task, canonical_task]
        assert (plain.minimum, plain.witness) == (reduced.minimum, reduced.witness)
        assert plain.examined == reduced.examined * reduced.reduction_factor

    def test_jobs_do_not_change_the_reduced_report(self):
        reports = [
            min_over_weightings(complete_structure(5), reduce_symmetry=True, jobs=jobs)
            for jobs in (1, 2, 3)
        ]
        assert len({(r.minimum, r.witness, r.examined) for r in reports}) == 1


def folded(n, endpoints, orders) -> tuple[int, tuple[int, ...]]:
    """The least (value, weight vector) over orders, each folded in full by
    the label kernel: _scan's reference, with no early exit."""
    best = None
    for order in orders:
        w = [0] * len(endpoints)
        for rank, j in enumerate(order, 1):
            w[j] = rank
        candidate = (max(_fold(n, [endpoints[j] for j in order])[0]), tuple(w))
        if best is None or candidate < best:
            best = candidate
    return best


class TestSampled:
    def test_deterministic_for_fixed_seed(self):
        a = min_over_weightings(complete_structure(4), mode=Sampled(count=50, seed=9))
        b = min_over_weightings(complete_structure(4), mode=Sampled(count=50, seed=9))
        assert (a.minimum, a.witness, a.examined) == (b.minimum, b.witness, b.examined)

    def test_examined_equals_count(self):
        report = min_over_weightings(complete_structure(4), mode=Sampled(count=37, seed=1))
        assert report.examined == 37

    def test_sampled_minimum_bounded_below_by_exhaustive(self):
        exact = min_over_weightings(complete_structure(4)).minimum
        sampled = min_over_weightings(complete_structure(4), mode=Sampled(count=100, seed=3))
        assert sampled.minimum >= exact

    def test_witness_achieves_the_sampled_minimum(self):
        report = min_over_weightings(complete_structure(4), mode=Sampled(count=25, seed=7))
        g = complete_graph(4, list(report.witness))
        assert brute_force_longest(g).optimum == report.minimum

    def test_jobs_do_not_change_the_report(self):
        reports = [
            min_over_weightings(complete_structure(6), mode=Sampled(count=500, seed=3), jobs=jobs)
            for jobs in (1, 2, 3)
        ]
        assert len({(r.minimum, r.witness, r.examined) for r in reports}) == 1

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            min_over_weightings(complete_structure(3), mode=Sampled(count=0, seed=0))

    def test_order_k_is_drawn_just_before_it_is_folded(self, monkeypatch):
        events = []
        sampled_orders, scan = extremal._sampled_orders, extremal._scan

        def counting_orders(*args):
            for order in sampled_orders(*args):
                events.append("draw")
                yield order

        def counting_scan(n, endpoints, orders):
            def folded():
                for order in orders:
                    yield order
                    events.append("fold")

            return scan(n, endpoints, folded())

        monkeypatch.setattr(extremal, "_sampled_orders", counting_orders)
        monkeypatch.setattr(extremal, "_scan", counting_scan)
        report = min_over_weightings(complete_structure(4), mode=Sampled(count=95, seed=1))
        assert report.examined == 95
        assert events == ["draw", "fold"] * 95  # one order drawn, folded, then the next

    @pytest.mark.parametrize("seed", [0, 3, 2024])
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 8, 10, 21])
    def test_sampled_orders_invert_random_shuffle(self, q, seed):
        rng = random.Random(seed)
        shuffles = []
        for _ in range(40):
            w = list(range(q))
            rng.shuffle(w)
            shuffles.append(w)
        orders = list(extremal._sampled_orders(q, Sampled(count=40, seed=seed)))
        assert len(orders) == len(shuffles)
        for order, w in zip(orders, shuffles):
            assert [order[w[i]] for i in range(q)] == list(range(q))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_scan_equals_folding_each_sampled_order(self, n):
        edges = complete_structure(n).edges
        orders = list(extremal._sampled_orders(len(edges), Sampled(count=1500, seed=n)))
        for lo in range(0, 1500, 500):  # three minima, so a wrong early exit shows in each
            part = orders[lo : lo + 500]
            assert extremal._scan(n, edges, part) == folded(n, edges, part)

    @settings(max_examples=100, deadline=None)
    @given(small_structures(max_n=7, max_q=8), st.data())
    def test_scan_equals_folding_each_order(self, s, data):
        orders = data.draw(st.lists(st.permutations(range(s.q)), min_size=1, max_size=40))
        assert extremal._scan(s.n, s.edges, orders) == folded(s.n, s.edges, orders)

    def test_works_beyond_the_exhaustive_guard(self):
        report = min_over_weightings(complete_structure(6), mode=Sampled(count=20, seed=0))
        assert report.examined == 20
        assert report.minimum >= 5  # guaranteed trail length in K6

    def test_sampled_guard(self):
        sampled = Sampled(count=1, seed=0)
        extremal.check_search(extremal.SAMPLED_MAX_EDGES, sampled, 1)
        with pytest.raises(MonotrailsError, match="exceeds the sampled guard of 1200000"):
            extremal.check_search(extremal.SAMPLED_MAX_EDGES + 1, sampled, 1)


R6 = structure_of(
    parse_edge_list((Path(__file__).parent / "fixtures" / "extremal.r6_9_seed1.txt").read_text())
)


@pytest.mark.parametrize("reduce_symmetry", [False, True], ids=["plain", "reduce"])
@pytest.mark.parametrize(
    "s",
    [*(complete_structure(n) for n in range(1, 6)), Structure(4, ()), Structure(3, ((0, 2),)), R6],
    ids=["K1", "K2", "K3", "K4", "K5", "edgeless", "one-edge", "r6"],
)
def test_no_exhaustive_search_calls_scan(monkeypatch, s, reduce_symmetry):
    # _search decides every structure itself, down to no edges at all.
    def scan(*args):
        raise AssertionError("an exhaustive search called _scan")

    monkeypatch.setattr(extremal, "_scan", scan)
    report = min_over_weightings(s, reduce_symmetry=reduce_symmetry)
    assert len(report.witness) == s.q


def test_a_sampled_search_calls_scan(monkeypatch):
    calls = []
    scan = extremal._scan

    def spy(*args):
        calls.append(args[0])
        return scan(*args)

    monkeypatch.setattr(extremal, "_scan", spy)
    min_over_weightings(complete_structure(4), mode=Sampled(count=10, seed=0))
    assert calls == [4]


def test_k5_search_tries_the_lowest_available_edge_first():
    # The lowest edges take the lowest weights first, so the pass at cap 5
    # holds the witness first and _beaten cuts the rest of it.  Taking the
    # highest available edge first finds the same minimum and witness after
    # 1,236 calls of place, so only this count guards the walk's order.
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "place":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report = min_over_weightings(complete_structure(5))
    finally:
        sys.setprofile(previous)
    assert (report.minimum, report.witness) == (5, (1, 2, 3, 4, 5, 6, 8, 9, 7, 10))
    assert calls <= 239


def test_exhaustive_search_leaves_no_cyclic_garbage():
    # _search's place refers to itself through its closure cell and empties
    # the cell when done, so nothing waits for gc.
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            min_over_weightings(complete_structure(4))
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestStructureValidation:
    def test_non_canonical_edge(self):
        with pytest.raises(InvalidStructureError):
            min_over_weightings(Structure(n=3, edges=((1, 0),)))

    def test_self_loop(self):
        with pytest.raises(InvalidStructureError):
            min_over_weightings(Structure(n=3, edges=((1, 1),)))

    def test_out_of_range(self):
        with pytest.raises(InvalidStructureError):
            min_over_weightings(Structure(n=2, edges=((0, 2),)))

    def test_repeated_edge(self):
        with pytest.raises(InvalidStructureError):
            min_over_weightings(Structure(n=3, edges=((0, 1), (0, 1))))

    def test_complete_structure_rejects_zero(self):
        with pytest.raises(InvalidStructureError):
            complete_structure(0)

    def test_out_of_order_edges_cannot_be_constructed(self):
        with pytest.raises(InvalidStructureError, match=r"edge \(1,2\) out of order"):
            Structure(n=3, edges=((0, 2), (0, 1)))

    def test_repeated_edge_cannot_be_constructed(self):
        with pytest.raises(InvalidStructureError, match=r"edge \(1,2\) repeated"):
            Structure(n=3, edges=((0, 1), (0, 1)))

    def test_zero_vertices_cannot_be_constructed(self):
        with pytest.raises(InvalidStructureError, match="vertex count must be >= 1, got 0"):
            Structure(n=0, edges=())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_is_complete_on_k_n_and_k_n_minus_an_edge(self, n):
        k_n = complete_structure(n)
        assert k_n.is_complete
        for i in range(k_n.q):
            assert not Structure(n=n, edges=k_n.edges[:i] + k_n.edges[i + 1 :]).is_complete

    def test_is_complete_at_one_and_two_vertices(self):
        assert Structure(n=1, edges=()).is_complete
        assert not Structure(n=2, edges=()).is_complete
        assert Structure(n=2, edges=((0, 1),)).is_complete


class TestCheckLowerBound:
    def test_worked_example(self, k4):
        bc = check_lower_bound(k4)
        assert bc.p_d == 3
        assert bc.bound_two_floor_q_over_n == 2 and bc.holds_a
        assert bc.bound_floor_two_q_over_n == 3 and bc.holds_b

    def test_edgeless(self):
        bc = check_lower_bound(new_graph(4))
        assert bc.p_d == 0 and bc.bound_two_floor_q_over_n == 0 and bc.holds_a and bc.holds_b

    def test_invalid_graph_rejected(self):
        bad = WeightedGraph(n=3, edges={(0, 1): 1, (0, 2): 1}, mode=Mode.RELAXED)
        with pytest.raises(InvalidGraphError):
            check_lower_bound(bad)

    @given(strict_graphs())
    def test_both_bounds_hold_on_every_valid_graph(self, g):
        bc = check_lower_bound(g)
        assert bc.holds_a and bc.holds_b
        assert bc.bound_floor_two_q_over_n >= bc.bound_two_floor_q_over_n

    def test_an_optimum_below_a_bound_is_reported(self, k4):
        # Never so on a valid graph; this is how check would report a fold bug.
        report = check_lower_bound(k4)  # bounds 2 and 3
        for optimum, holds in ((3, (True, True)), (2, (True, False)), (1, (False, False))):
            shifted = report._replace(optimum=optimum)
            assert (shifted.holds_a, shifted.holds_b) == holds

    @given(strict_graphs())
    def test_the_check_is_the_decreasing_trail_report(self, g):
        report = check_lower_bound(g)
        assert report == longest_ordered_trail(g, Order.DECREASING)
        assert report.p_d == report.optimum
        assert report.holds_a == (report.optimum >= report.bound_two_floor_q_over_n)
        assert report.holds_b == (report.optimum >= report.bound_floor_two_q_over_n)

    @settings(max_examples=30)
    @given(st.integers(2, 7), st.integers(0, 2**31))
    def test_complete_graphs_guarantee_n_minus_one(self, n, seed):
        g = random_graph(n, n * (n - 1) // 2, seed)
        assert check_lower_bound(g).p_d >= n - 1
