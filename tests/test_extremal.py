"""Minimum-over-weightings search and the lower-bound checker.

The expected minima for K3 and K4 are recomputed here from first
principles: a full scan of all weight permutations evaluated with the
brute-force trail search, never with the label-propagation algorithm the
extremal module uses internally.
"""

import math
import multiprocessing
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrails import (
    Exhaustive,
    Sampled,
    Structure,
    brute_force_longest,
    check_lower_bound,
    complete_graph,
    complete_structure,
    min_over_weightings,
    new_graph,
    random_graph,
    structure_of,
)
from monotrails import extremal
from monotrails.errors import ExhaustiveTooLargeError, InvalidStructureError
from monotrails.graphs import Mode, WeightedGraph

from strategies import strict_graphs


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
    out = []
    for _, _, start, avail, unlocks in extremal._reduce_tasks(n, complete_structure(n).edges):
        for order in admitted_orders(tuple(start), avail, unlocks):
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
        with pytest.raises(ExhaustiveTooLargeError):
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
        serial = min_over_weightings(complete_structure(4), jobs=1)
        for jobs in (2, 3, 5):
            parallel = min_over_weightings(complete_structure(4), jobs=jobs)
            assert (parallel.minimum, parallel.witness, parallel.examined) == (
                serial.minimum,
                serial.witness,
                serial.examined,
            )

    @pytest.mark.parametrize("mode", [Exhaustive(), Sampled(count=64, seed=2)])
    def test_a_pool_without_fork_gives_the_same_report(self, monkeypatch, mode):
        # Where fork is missing the default context is used; spawn stands in
        # for it here, so tasks and engines really cross a pickle boundary.
        real_get_context = multiprocessing.get_context
        asked = []

        def get_context(method=None):
            asked.append(method)
            return real_get_context(method or "spawn")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        monkeypatch.setattr(extremal, "_pool_size", lambda jobs, cpus, tasks: min(jobs, tasks))
        serial = min_over_weightings(complete_structure(4), mode=mode, jobs=1)
        assert asked == []
        pooled = min_over_weightings(complete_structure(4), mode=mode, jobs=2)
        assert asked == [None]
        assert (pooled.minimum, pooled.witness, pooled.examined) == (
            serial.minimum,
            serial.witness,
            serial.examined,
        )


@st.composite
def small_structures(draw):
    """Structures with n <= 5 and q <= 6: complete, sparse, disconnected or
    edgeless."""
    n = draw(st.integers(1, 5))
    keys = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6)) if keys else []
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

    def test_jobs_do_not_change_the_reduced_report(self):
        reports = [
            min_over_weightings(complete_structure(5), reduce_symmetry=True, jobs=jobs)
            for jobs in (1, 2, 3)
        ]
        assert len({(r.minimum, r.witness, r.examined) for r in reports}) == 1


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
        serial = min_over_weightings(complete_structure(4), mode=Sampled(count=64, seed=2))
        parallel = min_over_weightings(
            complete_structure(4), mode=Sampled(count=64, seed=2), jobs=3
        )
        assert (serial.minimum, serial.witness) == (parallel.minimum, parallel.witness)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            min_over_weightings(complete_structure(3), mode=Sampled(count=0, seed=0))

    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch):
        mode = Sampled(count=300, seed=4)
        default = min_over_weightings(complete_structure(5), mode=mode)
        monkeypatch.setattr(extremal, "SAMPLE_CHUNK", 7)
        chunked = min_over_weightings(complete_structure(5), mode=mode)
        assert (default.minimum, default.witness, default.examined) == (
            chunked.minimum,
            chunked.witness,
            chunked.examined,
        )

    def test_a_serial_run_draws_one_chunk_at_a_time(self, monkeypatch):
        drawn = []
        scanned = []
        sampled_tasks, scan = extremal._sampled_tasks, extremal._scan

        def counting_tasks(*args):
            for task in sampled_tasks(*args):
                drawn.append(len(task[2]))
                yield task

        def counting_scan(task):
            scanned.append(len(drawn))
            return scan(task)

        monkeypatch.setattr(extremal, "SAMPLE_CHUNK", 10)
        monkeypatch.setattr(extremal, "_sampled_tasks", counting_tasks)
        monkeypatch.setattr(extremal, "_scan", counting_scan)
        report = min_over_weightings(complete_structure(4), mode=Sampled(count=95, seed=1))
        assert report.examined == 95
        assert drawn == [10] * 9 + [5]
        assert scanned == list(range(1, 11))  # chunk k is drawn just before scan k

    @pytest.mark.parametrize("seed", [0, 3, 2024])
    @pytest.mark.parametrize("q", [1, 2, 3, 8, 21])
    def test_sampled_orders_invert_random_shuffle(self, q, seed):
        rng = random.Random(seed)
        expected = []
        for _ in range(40):
            w = list(range(q))
            rng.shuffle(w)
            expected.append(sorted(range(q), key=w.__getitem__))
        path = tuple((i, i + 1) for i in range(q))
        tasks = extremal._sampled_tasks(q + 1, path, Sampled(count=40, seed=seed), 16)
        assert [list(order) for task in tasks for order in task[2]] == expected

    def test_works_beyond_the_exhaustive_guard(self):
        report = min_over_weightings(complete_structure(6), mode=Sampled(count=20, seed=0))
        assert report.examined == 20
        assert report.minimum >= 5  # guaranteed trail length in K6


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


class TestCheckLowerBound:
    def test_worked_example(self, k4):
        bc = check_lower_bound(k4)
        assert bc.p_d == 3
        assert bc.bound_two_floor_q_over_n == 2 and bc.holds_a
        assert bc.bound_floor_two_q_over_n == 3 and bc.holds_b

    def test_edgeless(self):
        bc = check_lower_bound(new_graph(4))
        assert bc.p_d == 0 and bc.bound_two_floor_q_over_n == 0 and bc.holds_a and bc.holds_b

    @given(strict_graphs())
    def test_both_bounds_hold_on_every_valid_graph(self, g):
        bc = check_lower_bound(g)
        assert bc.holds_a and bc.holds_b
        assert bc.bound_floor_two_q_over_n >= bc.bound_two_floor_q_over_n

    @settings(max_examples=30)
    @given(st.integers(2, 7), st.integers(0, 2**31))
    def test_complete_graphs_guarantee_n_minus_one(self, n, seed):
        g = random_graph(n, n * (n - 1) // 2, seed)
        assert check_lower_bound(g).p_d >= n - 1
