"""Byte-identity of CLI output on two seeded fixture graphs and three
extremal searches.

The files under fixtures/ hold a dense strict graph (400 edges on 30
vertices) and a relaxed graph with decimal weights (300 edges on 40
vertices, including decimals that round to the same double), together with
the stdout of three commands on each, captured before the label fold, the
rank key and the weight parser were rewritten for speed.  The extremal.*
files hold the stdout of an exhaustive, a symmetry-reduced and a sampled
search, captured before the three extremal scan loops became one engine.
Every later version must reproduce them exactly.
"""

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
    "k5_exhaustive_reduce": ["--complete", "5", "--exhaustive", "--reduce"],
    "k6_sample500_seed3": ["--complete", "6", "--sample", "500", "--seed", "3"],
}


@pytest.mark.parametrize("search", list(EXTREMAL_COMMANDS))
def test_extremal_stdout_is_byte_identical(capsys, search):
    assert main(["extremal", *EXTREMAL_COMMANDS[search], "--json"]) == 0
    expected = (FIXTURES / f"extremal.{search}.out").read_text()
    assert capsys.readouterr().out == expected
