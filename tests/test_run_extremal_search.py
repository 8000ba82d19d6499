"""The README's reproduction script, run in-process."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "run_extremal_search.py"
spec = importlib.util.spec_from_file_location("run_extremal_search", SCRIPT)
run_extremal_search = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = run_extremal_search  # dataclasses look their module up by name
spec.loader.exec_module(run_extremal_search)


def test_k3_and_k4_guarantees(capsys):
    assert run_extremal_search.main(["--max-n", "4"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:3]]
    # n, q, examined, f(n): every weighting of K3 and K4 is covered.
    assert [row[:4] for row in rows] == [["3", "3", "6", "3"], ["4", "6", "720", "3"]]


def test_jobs_below_one_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_extremal_search.main(["--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs must be >= 1, got 0" in capsys.readouterr().err
