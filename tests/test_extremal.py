"""Minimum-over-weightings search and the lower-bound checker.

The expected minima for K3 and K4 are recomputed here from first
principles: a full scan of all weight permutations evaluated with the
brute-force trail search, never with the label-propagation algorithm the
extremal module uses internally.
"""

import gc
import math
import multiprocessing
import random
from itertools import combinations, permutations

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
    random_graph,
    structure_of,
)
from monotrails import extremal
from monotrails.errors import InvalidGraphError, InvalidStructureError, MonotrailsError
from monotrails.graphs import Mode, WeightedGraph
from monotrails.labeling import _fold

from strategies import strict_graphs


# No automorphism moves its diagonal (v1,v2), so each of its 5 edges keeps a
# first-edge task and a pool has several tasks to share.
K4_MINUS_AN_EDGE = Structure(n=4, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
C4 = Structure(n=4, edges=((0, 1), (0, 3), (1, 2), (2, 3)))
C5 = Structure(n=5, edges=((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
K13 = Structure(n=4, edges=((0, 1), (0, 2), (0, 3)))
K23 = Structure(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))
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


def admitted_orders(start, avail, unlocks):
    """Every order a search task (start, avail, unlocks) admits, by a plain
    walk: any available edge may come next, and placing edge j makes the
    edges in unlocks[j] available."""
    if not avail:
        yield start
    for i, j in enumerate(avail):
        rest = tuple(avail[:i]) + tuple(avail[i + 1 :]) + tuple(unlocks[j])
        yield from admitted_orders(start + (j,), rest, unlocks)


def generated_weightings(n: int) -> list[tuple[int, ...]]:
    """Every order the reduced search folds for K_n, as a weight vector."""
    q = n * (n - 1) // 2
    _, _, start, avail, unlocks = extremal._reduce_task(n, complete_structure(n).edges)
    out = []
    for order in admitted_orders(start, avail, unlocks):
        w = [0] * q
        for weight, j in enumerate(order, 1):
            w[j] = weight
        out.append(tuple(w))
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

    @pytest.mark.parametrize(
        "jobs, cpus, tasks, size",
        [(1, 8, 10, 1), (4, 2, 10, 2), (8, 16, 3, 3), (10**6, 2, 84, 2), (5, 1, 1, 1)],
    )
    def test_pool_size_is_capped_by_cpus_and_tasks(self, jobs, cpus, tasks, size):
        assert extremal._pool_size(jobs, cpus, tasks) == size

    def test_jobs_do_not_change_the_report(self):
        serial = min_over_weightings(K4_MINUS_AN_EDGE, jobs=1)
        for jobs in (2, 3, 5):
            parallel = min_over_weightings(K4_MINUS_AN_EDGE, jobs=jobs)
            assert (parallel.minimum, parallel.witness, parallel.examined) == (
                serial.minimum,
                serial.witness,
                serial.examined,
            )

    @pytest.mark.parametrize("s", [K4_MINUS_AN_EDGE, PAW], ids=["K4-e", "paw"])
    def test_a_pool_without_fork_gives_the_same_report(self, monkeypatch, s):
        # Where fork is missing the default context is used; spawn stands in
        # for it here, so tasks and _search really cross a pickle boundary.
        real_get_context = multiprocessing.get_context
        asked = []

        def get_context(method=None):
            asked.append(method)
            return real_get_context(method or "spawn")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        monkeypatch.setattr(extremal, "_pool_size", lambda jobs, cpus, tasks: min(jobs, tasks))
        serial = min_over_weightings(s, jobs=1)
        assert asked == []
        pooled = min_over_weightings(s, jobs=2)
        assert asked == [None]
        assert (pooled.minimum, pooled.witness, pooled.examined) == (
            serial.minimum,
            serial.witness,
            serial.examined,
        )

    def test_task_results_are_merged_as_they_arrive(self, monkeypatch):
        alive = [0]
        most = [0]
        tasks = []

        class Witness(tuple):
            def __del__(self):
                alive[0] -= 1

        def stub_search(task):
            tasks.append(task)
            alive[0] += 1
            most[0] = max(most[0], alive[0])
            return 3, Witness(task[2])

        monkeypatch.setattr(extremal, "_search", stub_search)
        report = min_over_weightings(K4_MINUS_AN_EDGE)
        assert report.examined == math.factorial(5) and len(tasks) == 5
        assert most[0] <= 3  # the best so far, the last and the newest: not one per task


@pytest.fixture
def no_pool(monkeypatch):
    """Make starting a pool fail the test."""

    def refuse(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


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
    # Edge-transitive structures run one task; the paw runs several.
    @example(C4)
    @example(C5)
    @example(K13)
    @example(K23)
    @example(PAW)
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
        task = _, endpoints, start, avail, unlocks = extremal._reduce_task(
            n, complete_structure(n).edges
        )
        branches = [
            (n, endpoints, start + (j,), avail[:i] + avail[i + 1 :] + unlocks[j], unlocks)
            for i, j in enumerate(avail)
        ]
        for t in [task, *branches]:
            orders = admitted_orders(*t[2:])
            assert extremal._search(t) == extremal._scan(n, endpoints, orders)


def carried_edge_pairs(s: Structure) -> set[tuple[int, int]]:
    """Every (e, f) such that some vertex permutation maps the edge set onto
    itself and edge e onto edge f, tried over all n! permutations."""
    index = {k: i for i, k in enumerate(s.edges)}
    pairs = set()
    for sigma in permutations(range(s.n)):
        image = [index.get(tuple(sorted((sigma[a], sigma[b])))) for a, b in s.edges]
        if None not in image:
            pairs.update(enumerate(image))
    return pairs


def kept_first_edges(s: Structure) -> list[int]:
    return [task[2][0] for task in extremal._first_edge_tasks(s.n, s.edges)]


class TestFirstEdgeOrbit:
    """Exhaustive runs keep edge 0's task and the tasks of the edges no
    automorphism carries onto edge 0."""

    @pytest.mark.parametrize(
        "s",
        [complete_structure(3), complete_structure(4), complete_structure(5),
         C4, C5, K13, K23, TWO_TRIANGLES],
        ids=["K3", "K4", "K5", "C4", "C5", "K13", "K23", "two-triangles"],
    )
    def test_an_edge_transitive_structure_runs_one_task(self, s):
        assert all(extremal._maps_onto(s.n, s.edges, j, 0) for j in range(s.q))
        assert kept_first_edges(s) == [0]

    def test_a_path_drops_the_end_edge_its_reversal_carries_onto_edge_0(self):
        assert kept_first_edges(P4) == [0, 1]

    @pytest.mark.parametrize("s", [PAW, K4_MINUS_AN_EDGE], ids=["paw", "K4-e"])
    def test_a_structure_with_several_edge_orbits_keeps_several_tasks(self, s):
        assert len(kept_first_edges(s)) > 1

    def test_isolated_vertices_change_nothing(self):
        for s in (P4, PAW, C4, K4_MINUS_AN_EDGE):
            padded = Structure(n=s.n + 3, edges=s.edges)
            assert kept_first_edges(padded) == kept_first_edges(s)
            shifted = Structure(n=s.n + 2, edges=tuple((a + 2, b + 2) for a, b in s.edges))
            assert kept_first_edges(shifted) == kept_first_edges(s)

    @settings(max_examples=100, deadline=None)
    @given(small_structures(max_n=5, max_q=10))
    # Edges (0,2) and (2,3) both join a vertex of degree 2 to one of degree 3,
    # but only (2,3) is a bridge: degrees alone would carry one onto the other.
    @example(Structure(n=5, edges=((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))))
    def test_maps_onto_agrees_with_trying_every_permutation(self, s):
        carried = carried_edge_pairs(s)
        for e in range(s.q):
            for f in range(s.q):
                assert extremal._maps_onto(s.n, s.edges, e, f) == ((e, f) in carried)

    def test_k5_exhaustive_starts_no_pool(self, no_pool):
        report = min_over_weightings(complete_structure(5), jobs=2)
        assert (report.minimum, report.examined) == (5, math.factorial(10))


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
        n = 4
        keys = list(combinations(range(n), 2))
        q = len(keys)
        index = {k: i for i, k in enumerate(keys)}

        def orbit(w):
            out = set()
            for sigma in permutations(range(n)):
                img = [0] * q
                for (a, b), j in index.items():
                    sa, sb = sigma[a], sigma[b]
                    img[index[(min(sa, sb), max(sa, sb))]] = w[j]
                out.add(tuple(img))
            return out

        survivors = [w for w in permutations(range(1, q + 1)) if canonical(n, w)]
        assert len(survivors) == 30
        covered = set()
        for w in survivors:
            orb = orbit(w)
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

    def test_jobs_do_not_change_the_reduced_report(self, no_pool):
        # One search of milliseconds: it runs in the calling process at any jobs.
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

    def test_jobs_do_not_change_the_report(self, no_pool):
        # The orders come from one seeded stream, so the calling process folds
        # them at any jobs.
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
