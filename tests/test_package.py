"""The package's public names, its records, and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monotrails
from monotrails import (
    EnumerationResult,
    Exhaustive,
    ExtremalReport,
    LabelState,
    Mode,
    Order,
    Sampled,
    Structure,
    TrailReport,
    Violation,
    WeightedGraph,
    extremal,
    labeling,
    parse_edge_list,
    random_graph,
    render_edge_list,
    structure_of,
)
from monotrails.errors import InvalidStructureError
from monotrails.extremal import _first_edge_tasks

SRC = Path(monotrails.__file__).parents[1]
# Modules no check, compute or oracle run uses: a pool's, and the record
# machinery's (dataclasses imports inspect, which imports ast, dis and tokenize).
UNUSED_AT_IMPORT = ("dataclasses", "inspect", "multiprocessing")


def test_every_exported_name_resolves_once():
    names = monotrails.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(monotrails, name)] == []


def python(*argv):
    """A fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def imported(importtime_err: str) -> set[str]:
    """The module names a `python -X importtime` run lists on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_err.splitlines()
        if line.startswith("import time:")
    }


# The CLI takes paths as str and opens them, so pathlib stays unloaded too.  Only
# a run without site can show it: site's start-up may load pathlib before the package.
@pytest.mark.parametrize(
    "flags, unused",
    [([], UNUSED_AT_IMPORT), (["-S"], UNUSED_AT_IMPORT + ("pathlib",))],
    ids=["site", "no-site"],
)
def test_importing_the_package_loads_no_pool_and_no_dataclasses(flags, unused):
    code = (
        "import sys, monotrails, monotrails.cli; "
        f"print(sorted(m for m in {unused!r} if m in sys.modules))"
    )
    run = python(*flags, "-c", code)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


# Modules only some calls need: the exact weight types, for a weight that is
# not an int, and the extremal engine, for a search or an extremal name.
LAZY = ("decimal", "fractions", "monotrails.extremal")
FIXTURES = Path(__file__).parent / "fixtures"


def cli_runs(flags, *argvs):
    """Run main on each argv in a fresh interpreter that imports the
    package and its CLI: the commands' stdout, and a last line of their
    exit codes and the LAZY modules then loaded."""
    code = (
        "import json, sys, monotrails, monotrails.cli\n"
        "codes = [monotrails.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        f"print(codes, sorted(m for m in {LAZY!r} if m in sys.modules))"
    )
    run = python(*flags, "-c", code, json.dumps(argvs))
    assert run.returncode == 0, run.stderr
    out, _, last = run.stdout.rstrip("\n").rpartition("\n")
    return out + "\n", last


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_integer_weights_load_neither_decimal_nor_the_extremal_engine(tmp_path, flags):
    strict = tmp_path / "r9.txt"
    strict.write_text(render_edge_list(random_graph(9, 36, 1)))
    relaxed = tmp_path / "gaps.txt"  # int weights, but not 1..q: read as relaxed
    relaxed.write_text("p 4 3\ne 1 2 5\ne 2 3 2\ne 3 4 9\n")
    argvs = [
        [command, str(path), *extra]
        for path in (strict, relaxed)
        for command, *extra in (["check"], ["compute", "--order", "inc", "--trail", "--labels"],
                                ["oracle"], ["check", "--json"])
    ]
    _, loaded = cli_runs(flags, *argvs)
    assert loaded == f"{[0] * len(argvs)} []"


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_plain_decimal_weights_load_decimal_and_print_as_before(flags):
    graph = str(FIXTURES / "relaxed_decimal.txt")
    out, loaded = cli_runs(flags, ["compute", graph, "--order", "inc", "--trail", "--labels"],
                           ["check", graph, "--json"])
    expected = [(FIXTURES / f"relaxed_decimal.{name}.out").read_text()
                for name in ("compute_order_inc_trail_labels", "check_json")]
    assert out == "".join(expected)
    assert loaded == "[0, 0] ['decimal', 'fractions']"


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
@pytest.mark.parametrize("access", ["monotrails.min_over_weightings",
                                    "from monotrails import Structure"])
def test_an_extremal_name_loads_the_engine_on_first_access(flags, access):
    code = (
        "import sys, monotrails\n"
        "before = 'monotrails.extremal' in sys.modules\n"
        f"{access}\n"
        "print(before, 'monotrails.extremal' in sys.modules)"
    )
    run = python(*flags, "-c", code)
    assert (run.returncode, run.stdout) == (0, "False True\n"), run.stderr


def test_the_lazy_names_are_the_engine_s_own():
    assert all(getattr(monotrails, name) is getattr(extremal, name)
               for name in monotrails._EXTREMAL)
    assert set(monotrails._EXTREMAL) <= set(monotrails.__all__)
    assert monotrails.check_lower_bound is labeling.check_lower_bound
    assert extremal.check_lower_bound is labeling.check_lower_bound
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        monotrails.not_a_name


def test_a_pooled_search_imports_multiprocessing_and_prints_the_serial_report(tmp_path):
    graph = tmp_path / "r6.txt"
    assert python("-m", "monotrails", "gen", "--random", "6", "9", "--seed", "1",
                  "--out", str(graph)).returncode == 0
    structure = structure_of(parse_edge_list(graph.read_text()))
    assert len(_first_edge_tasks(structure.n, structure.edges)) == 8  # every vertex has an edge

    def extremal(jobs):
        return python("-X", "importtime", "-m", "monotrails", "extremal", "--file", str(graph),
                      "--exhaustive", "--json", "--jobs", jobs)

    serial, pooled = extremal("1"), extremal("2")
    assert (serial.returncode, pooled.returncode) == (0, 0), pooled.stderr
    assert pooled.stdout == serial.stdout
    assert "multiprocessing" not in imported(serial.stderr)
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: --jobs 2 searches in the calling process")
    assert "multiprocessing" in imported(pooled.stderr)


STRUCTURE = Structure(n=3, edges=((0, 1), (1, 2)))
RECORDS = [
    (
        WeightedGraph(n=2, edges={(0, 1): 1}, mode=Mode.STRICT),
        WeightedGraph(2, {(0, 1): 1}, Mode.STRICT),
        "WeightedGraph(n=2, edges={(0, 1): 1}, mode=<Mode.STRICT: 'strict'>)",
    ),
    (
        Violation(kind="self-loop", detail="edge at vertex 1"),
        Violation("self-loop", "edge at vertex 1"),
        "Violation(kind='self-loop', detail='edge at vertex 1')",
    ),
    (
        LabelState(step=1, labels=[1, 1], witnesses=[[(0, 1)], [(1, 0)]]),
        LabelState(1, [1, 1], [[(0, 1)], [(1, 0)]]),
        "LabelState(step=1, labels=[1, 1], witnesses=[[(0, 1)], [(1, 0)]])",
    ),
    (
        TrailReport(kind=Order.DECREASING, optimum=1, start=0, witness=[(0, 1)], labels=[1, 1],
                    bound_two_floor_q_over_n=0, bound_floor_two_q_over_n=1),
        TrailReport(Order.DECREASING, 1, 0, [(0, 1)], [1, 1], 0, 1),
        "TrailReport(kind=<Order.DECREASING: 'dec'>, optimum=1, start=0, witness=[(0, 1)], "
        "labels=[1, 1], bound_two_floor_q_over_n=0, bound_floor_two_q_over_n=1)",
    ),
    (
        EnumerationResult(per_vertex=[1, 1], optimum=1, nodes_explored=4),
        EnumerationResult([1, 1], 1, 4),
        "EnumerationResult(per_vertex=[1, 1], optimum=1, nodes_explored=4)",
    ),
    (STRUCTURE, Structure(3, ((0, 1), (1, 2))), "Structure(n=3, edges=((0, 1), (1, 2)))"),
    (Exhaustive(), Exhaustive(), "Exhaustive()"),
    (Sampled(count=500, seed=3), Sampled(500, 3), "Sampled(count=500, seed=3)"),
    (
        ExtremalReport(structure=STRUCTURE, mode=Exhaustive(), examined=2, minimum=2,
                       witness=(1, 2), reduction_factor=1, elapsed_s=0.0),
        ExtremalReport(STRUCTURE, Exhaustive(), 2, 2, (1, 2), 1, 0.0),
        "ExtremalReport(structure=Structure(n=3, edges=((0, 1), (1, 2))), mode=Exhaustive(), "
        "examined=2, minimum=2, witness=(1, 2), reduction_factor=1, elapsed_s=0.0)",
    ),
]


@pytest.mark.parametrize("by_keyword, by_position, text", RECORDS,
                         ids=[text.partition("(")[0] for _, _, text in RECORDS])
class TestRecords:
    """Every record builds by keyword or position, compares by value, reads
    back as its constructor call, and refuses assignment."""

    def test_keyword_and_positional_construction_are_equal(self, by_keyword, by_position, text):
        assert by_keyword == by_position
        assert type(by_keyword) is type(by_position)

    def test_repr_is_the_keyword_call(self, by_keyword, by_position, text):
        assert repr(by_keyword) == text

    def test_assignment_is_refused(self, by_keyword, by_position, text):
        for name in type(by_keyword)._fields:
            with pytest.raises(AttributeError):
                setattr(by_keyword, name, None)
        with pytest.raises(AttributeError):
            by_keyword.not_a_field = None
        assert by_keyword == by_position

    def test_every_record_is_truthy(self, by_keyword, by_position, text):
        assert by_keyword  # Exhaustive() too, though it has no fields


def test_a_graph_keeps_its_orders_in_its_dict():
    g = parse_edge_list("p 3 2\ne 1 2 2\ne 2 3 1\n")
    assert g.__dict__ == {"_rank_order": [(1, 2), (0, 1)], "violations": ()}
    assert g._ascending is g._rank_order


class TestStructureChecksEveryConstruction:
    @pytest.mark.parametrize("n, edges", [
        (0, ()), (3, ((1, 0),)), (3, ((0, 3),)), (3, ((1, 2), (0, 1))), (3, ((0, 1), (0, 1))),
    ])
    def test_keyword_positional_and_replace_all_refuse(self, n, edges):
        with pytest.raises(InvalidStructureError):
            Structure(n=n, edges=edges)
        with pytest.raises(InvalidStructureError):
            Structure(n, edges)
        with pytest.raises(InvalidStructureError):
            STRUCTURE._replace(n=n, edges=edges)

    def test_replace_builds_a_checked_structure(self):
        assert STRUCTURE._replace(edges=((0, 2),)) == Structure(n=3, edges=((0, 2),))
