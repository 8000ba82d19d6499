"""End-to-end CLI behavior: outputs, exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import monotrails
from monotrails import parse_edge_list
from monotrails.cli import main

SCHEMA_DIR = Path(__file__).parent.parent / "docs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


class TestCompute:
    def test_human_output(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "compute", str(k4_file), "--trail", "--labels")
        assert code == 0
        assert "optimum: 3" in out
        assert "v1=3 v2=3 v3=3 v4=3" in out
        assert "(weights:" in out

    def test_json_output_validates_and_is_correct(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "compute", str(k4_file), "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("trail-report.schema.json"))
        assert doc["optimum"] == 3
        assert doc["labels"] == [3, 3, 3, 3]
        assert doc["trail"]["weights"] == sorted(doc["trail"]["weights"], reverse=True)

    def test_increasing_order(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "compute", str(k4_file), "--order", "inc", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("trail-report.schema.json"))
        assert doc["kind"] == "inc"
        assert doc["optimum"] == 3
        assert doc["trail"]["weights"] == sorted(doc["trail"]["weights"])

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", str(tmp_path / "nope.txt"))
        assert code == 2 and "error" in err

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("p 2 1\ne 1 1 1\n")
        code, _, err = run_cli(capsys, "compute", str(bad))
        assert code == 2 and "self-loop" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("q 2 1\n")
        code, _, err = run_cli(capsys, "compute", str(bad))
        assert code == 2 and "line 1" in err

    def test_usage_error_exits_2(self, capsys, k4_file):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(k4_file), "--order", "sideways"])
        assert exc.value.code == 2

    def test_out_of_memory_exits_2_without_a_traceback(self, tmp_path):
        # The header's vertex count alone asks for ~3 GB of labels; the run
        # gets a 1 GiB address space, in a child so the suite keeps its own.
        pytest.importorskip("resource")
        huge = tmp_path / "huge.txt"
        huge.write_text("p 400000000 1\ne 1 2 1\n")
        limit = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from monotrails.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(monotrails.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", limit, "compute", str(huge)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 2
        assert run.stderr == "error: out of memory\n"
        assert run.stdout == ""


class TestOracle:
    def test_agreement(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "oracle", str(k4_file), "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("oracle-report.schema.json"))
        assert doc["optimum"] == 3
        assert doc["agreement"] == {"optimum": True, "per_vertex": True}

    def test_human_output(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "oracle", str(k4_file))
        assert code == 0 and "agreement: ok" in out


class TestCheck:
    def test_worked_example_passes(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "check", str(k4_file), "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("check-report.schema.json"))
        assert doc["ok"] is True
        assert doc["bounds"]["two_floor_q_over_n"] == {"value": 2, "holds": True}
        assert doc["bounds"]["floor_2q_over_n"] == {"value": 3, "holds": True}
        assert doc["oracle"]["optimum"] == 3

    def test_oracle_skipped_for_large_graphs(self, capsys, tmp_path):
        # 10 vertices is above the brute-force guard: oracle field is null.
        path = tmp_path / "big.txt"
        _, gen_out, _ = run_cli(capsys, "gen", "--random", "10", "12", "--seed", "4")
        path.write_text(gen_out)
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("check-report.schema.json"))
        assert doc["oracle"] is None and doc["ok"] is True

    def test_generated_graphs_always_pass(self, capsys, tmp_path):
        for seed in range(5):
            _, gen_out, _ = run_cli(capsys, "gen", "--random", "7", "12", "--seed", str(seed))
            path = tmp_path / f"g{seed}.txt"
            path.write_text(gen_out)
            code, _, _ = run_cli(capsys, "check", str(path))
            assert code == 0


class TestExtremal:
    def test_k3_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--complete", "3", "--exhaustive", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("extremal-report.schema.json"))
        assert doc["f"] == 3 and doc["examined"] == 6
        assert doc["elapsed_ms"] is None

    def test_timing_flag_fills_elapsed(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--complete", "3", "--exhaustive", "--json", "--timing"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("extremal-report.schema.json"))
        assert isinstance(doc["elapsed_ms"], float)

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extremal", "--complete", "4", "--sample", "40", "--seed", "5", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("extremal-report.schema.json"))
        assert doc["mode"] == {"kind": "sampled", "count": 40, "seed": 5}
        assert doc["examined"] == 40

    def test_structure_from_file(self, capsys, k4_file):
        code, out, _ = run_cli(
            capsys, "extremal", "--file", str(k4_file), "--exhaustive", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["structure"]["complete"] is True
        assert doc["f"] == 3

    def test_reduce_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--complete", "4", "--exhaustive", "--reduce", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reduction"] == {"enabled": True, "factor": 24}
        assert doc["examined"] == 30 and doc["f"] == 3

    def test_too_large_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--complete", "6", "--exhaustive")
        assert code == 2 and "exceeds" in err

    def test_jobs_flag_and_env_default(self, capsys, monkeypatch):
        _, base, _ = run_cli(capsys, "extremal", "--complete", "4", "--exhaustive", "--json")
        _, with_jobs, _ = run_cli(
            capsys, "extremal", "--complete", "4", "--exhaustive", "--jobs", "2", "--json"
        )
        monkeypatch.setenv("TRAIL_JOBS", "2")
        _, with_env, _ = run_cli(capsys, "extremal", "--complete", "4", "--exhaustive", "--json")
        assert base == with_jobs == with_env

    def test_jobs_below_one_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, "extremal", "--complete", "3", "--exhaustive", "--jobs", "0")
        assert code == 2 and out == "" and "jobs must be >= 1" in err
        monkeypatch.setenv("TRAIL_JOBS", "-1")
        code, out, err = run_cli(capsys, "extremal", "--complete", "3", "--sample", "5")
        assert code == 2 and out == "" and "jobs must be >= 1" in err


class TestGen:
    def test_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "g.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--random", "6", "9", "--seed", "3", "--out", str(out_path)
        )
        assert code == 0
        g = parse_edge_list(out_path.read_text())
        assert g.n == 6 and g.q == 9

    def test_complete_flag(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--complete", "4", "--seed", "0")
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 4 and g.q == 6

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, "gen", "--random", "5", "4", "--seed", "8")
        out_path = tmp_path / "g.txt"
        run_cli(capsys, "gen", "--random", "5", "4", "--seed", "8", "--out", str(out_path))
        assert out_path.read_text() == stdout_text


class TestDeterminism:
    CASES = [
        ("compute", "{k4}", "--json"),
        ("compute", "{k4}", "--order", "inc", "--json"),
        ("oracle", "{k4}", "--json"),
        ("check", "{k4}", "--json"),
        ("extremal", "--complete", "3", "--exhaustive", "--json"),
        ("extremal", "--complete", "4", "--exhaustive", "--jobs", "2", "--json"),
        ("extremal", "--complete", "4", "--sample", "30", "--seed", "1", "--json"),
        ("gen", "--random", "6", "8", "--seed", "2"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c)[:40])
    def test_repeated_runs_are_byte_identical(self, capsys, k4_file, case):
        argv = [a.format(k4=k4_file) for a in case]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
