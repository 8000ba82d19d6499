"""Byte-identity of CLI output on two seeded fixture graphs, seven extremal
searches (each at one, two and three jobs, four of them also as text),
nine small files and eight oracle inputs.

The files under fixtures/ hold a dense strict graph (400 edges on 30
vertices) and a relaxed graph with decimal weights (300 edges on 40
vertices, including decimals that round to the same double), together with
the stdout of three commands on each, captured before the label fold, the
rank key and the weight parser were rewritten for speed.  The extremal.*
files hold the stdout of two exhaustive, a symmetry-reduced and a sampled
search, captured before the three extremal scan loops became one engine
(the plain K5 search before it folded only the canonical orders), of an
exhaustive search of extremal.r6_9_seed1.txt, `gen --random 6 9 --seed
1`, captured before the search came to raise a value cap, of an
exhaustive search of extremal.r7_10_seed2.txt, `gen --random 7 10 --seed
2`, captured before every first edge of a structure other than K_n came
to share one task, and of an exhaustive search of extremal.k2_5.txt, the
complete bipartite K_{2,5}, captured before the search came to cut at a
vertex that reaches the cap with an edge to come and to count the room
that finished vertices leave;
EXTREMAL_TEXT holds the text report of the first four searches and of a
file structure with an isolated vertex, its elapsed line masked.
small_files.json holds nine small edge-list files -- comments and blank
lines around the header, u > v endpoints, the edgeless graph, and files
that fail to parse or validate -- with the exit code, stdout and stderr of
`compute` and `check --json` on each, captured before the column reader
took files of every size.  oracle_files.json holds eight files -- the K4
worked example, the one-vertex graph, a star, a path, relaxed decimals that
round to the same double, a weight below the smallest float, a dense
9-vertex graph and a file that fails validation -- with the exit code,
stdout and stderr of `oracle` and `oracle --json` on each (nodes_explored
included), captured before the brute-force search was rewritten.  Every
later version must reproduce them exactly.
"""

import json
import re
from pathlib import Path

import pytest

from monotrails.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
COMMANDS = {
    "compute_json": ["compute", "{file}", "--json"],
    "compute_order_inc_trail_labels": ["compute", "{file}", "--order", "inc", "--trail", "--labels"],
    "check_json": ["check", "{file}", "--json"],
}


@pytest.mark.parametrize("graph", ["dense_strict", "relaxed_decimal"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_stdout_is_byte_identical(capsys, graph, command):
    argv = [a.format(file=FIXTURES / f"{graph}.txt") for a in COMMANDS[command]]
    assert main(argv) == 0
    expected = (FIXTURES / f"{graph}.{command}.out").read_text()
    assert capsys.readouterr().out == expected


EXTREMAL_COMMANDS = {
    "k4_exhaustive": ["--complete", "4", "--exhaustive"],
    "k5_exhaustive": ["--complete", "5", "--exhaustive"],
    "k5_exhaustive_reduce": ["--complete", "5", "--exhaustive", "--reduce"],
    "k6_sample500_seed3": ["--complete", "6", "--sample", "500", "--seed", "3"],
    "r6_9_seed1_exhaustive": ["--file", str(FIXTURES / "extremal.r6_9_seed1.txt"), "--exhaustive"],
    "r7_10_seed2_exhaustive": ["--file", str(FIXTURES / "extremal.r7_10_seed2.txt"), "--exhaustive"],
    "k2_5_exhaustive": ["--file", str(FIXTURES / "extremal.k2_5.txt"), "--exhaustive"],
}


@pytest.mark.parametrize(
    "search, jobs",
    [pytest.param(search, jobs, id=search if jobs == 1 else f"{search}-jobs{jobs}")
     for jobs in (1, 2, 3) for search in EXTREMAL_COMMANDS],
)
def test_extremal_stdout_is_byte_identical(capsys, search, jobs):
    assert main(["extremal", *EXTREMAL_COMMANDS[search], "--jobs", str(jobs), "--json"]) == 0
    expected = (FIXTURES / f"extremal.{search}.out").read_text()
    assert capsys.readouterr().out == expected


EXTREMAL_TEXT = {
    "k4_exhaustive": (
        "structure: K4 (q=6, complete)\n"
        "mode: exhaustive\n"
        "examined: 720 weightings (reduction factor 1)\n"
        "minimum longest-trail length: 3\n"
        "witness weighting: [1, 2, 4, 5, 3, 6]\n"
    ),
    "k5_exhaustive": (
        "structure: K5 (q=10, complete)\n"
        "mode: exhaustive\n"
        "examined: 3628800 weightings (reduction factor 1)\n"
        "minimum longest-trail length: 5\n"
        "witness weighting: [1, 2, 3, 4, 5, 6, 8, 9, 7, 10]\n"
    ),
    "k5_exhaustive_reduce": (
        "structure: K5 (q=10, complete)\n"
        "mode: exhaustive\n"
        "examined: 30240 weightings (reduction factor 120)\n"
        "minimum longest-trail length: 5\n"
        "witness weighting: [1, 2, 3, 4, 5, 6, 8, 9, 7, 10]\n"
    ),
    "k6_sample500_seed3": (
        "structure: K6 (q=15, complete)\n"
        "mode: sampled (count=500, seed=3)\n"
        "examined: 500 weightings (reduction factor 1)\n"
        "minimum longest-trail length: 6\n"
        "witness weighting: [1, 7, 8, 12, 6, 5, 4, 10, 14, 13, 2, 15, 11, 9, 3]\n"
    ),
    "isolated_vertex_file": (
        "structure: structure n=6 (q=3, general)\n"
        "mode: exhaustive\n"
        "examined: 6 weightings (reduction factor 1)\n"
        "minimum longest-trail length: 2\n"
        "witness weighting: [1, 2, 3]\n"
    ),
}


@pytest.mark.parametrize("search", list(EXTREMAL_TEXT))
def test_extremal_text_report_is_byte_identical(capsys, tmp_path, search):
    argv = EXTREMAL_COMMANDS.get(search)
    if argv is None:  # vertex 6 has no edge
        f = tmp_path / "isolated.txt"
        f.write_text("p 6 3\ne 1 2 3\ne 2 3 1\ne 4 5 2\n")
        argv = ["--file", str(f), "--exhaustive"]
    assert main(["extremal", *argv]) == 0
    out, err = capsys.readouterr()
    report, elapsed = out[: out.rindex("elapsed: ")], out[out.rindex("elapsed: ") :]
    assert (report, err) == (EXTREMAL_TEXT[search], "")
    assert re.fullmatch(r"elapsed: \d+\.\d ms\n", elapsed)


SMALL_FILES = json.loads((FIXTURES / "small_files.json").read_text())
SMALL_COMMANDS = {"compute": ["compute"], "check_json": ["check", "--json"]}


@pytest.mark.parametrize("name", list(SMALL_FILES))
@pytest.mark.parametrize("command", list(SMALL_COMMANDS))
def test_small_file_output_is_byte_identical(capsys, tmp_path, name, command):
    case = SMALL_FILES[name]
    f = tmp_path / "graph.txt"
    f.write_text(case["text"])
    cmd, *flags = SMALL_COMMANDS[command]
    code = main([cmd, str(f), *flags])
    out, err = capsys.readouterr()
    assert [code, out, err] == case[command]


ORACLE_FILES = json.loads((FIXTURES / "oracle_files.json").read_text())
ORACLE_COMMANDS = {"oracle": [], "oracle_json": ["--json"]}


@pytest.mark.parametrize("name", list(ORACLE_FILES))
@pytest.mark.parametrize("command", list(ORACLE_COMMANDS))
def test_oracle_output_is_byte_identical(capsys, tmp_path, name, command):
    case = ORACLE_FILES[name]
    f = tmp_path / "graph.txt"
    f.write_text(case["text"])
    code = main(["oracle", str(f), *ORACLE_COMMANDS[command]])
    out, err = capsys.readouterr()
    assert [code, out, err] == case[command]
