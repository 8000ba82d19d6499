"""End-to-end CLI behavior: outputs, exit codes, schemas, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import monotrails
from monotrails import parse_edge_list, render_edge_list
from monotrails import cli, extremal
from monotrails.cli import main

SCHEMA_DIR = Path(__file__).parent.parent / "docs"
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(*argv, mib=1024):
    """Run the CLI in a child process limited to a `mib` MiB (default 1 GiB)
    address space, so the suite keeps its own."""
    pytest.importorskip("resource")
    limit = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({mib} << 20, {mib} << 20)); "
        "from monotrails.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(monotrails.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", limit, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


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

    def test_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "compute", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "header, reason",
        [
            ("p 3", "header must be 'p <n> <q>'"),
            ("p 3 2 1", "header must be 'p <n> <q>'"),
            ("p x 2", "header fields must be integers"),
        ],
    )
    def test_malformed_header_exits_2_naming_its_line(self, capsys, tmp_path, header, reason):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"c the header is on line 2\n{header}\ne 1 2 1\n")
        code, out, err = run_cli(capsys, "compute", str(bad))
        assert (code, out, err) == (2, "", f"error: line 2: {reason}\n")

    def test_empty_trail_is_printed_at_its_start(self, capsys, tmp_path):
        edgeless = tmp_path / "edgeless.txt"
        edgeless.write_text("p 2 0\n")
        code, out, _ = run_cli(capsys, "compute", str(edgeless), "--trail")
        assert code == 0 and "trail: v1  (empty trail)" in out.splitlines()

    def test_usage_error_exits_2(self, capsys, k4_file):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(k4_file), "--order", "sideways"])
        assert exc.value.code == 2

    def test_out_of_memory_exits_2_without_a_traceback(self, capsys, monkeypatch, k4_file):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "compute", exhausted)
        code, out, err = run_cli(capsys, "compute", str(k4_file))
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_vertex_count_above_the_limit_exits_2_before_allocating(self, tmp_path):
        # Labels for the header's n would take ~3 GB; the run gets a 1 GiB
        # address space, so it must refuse the header before the fold.
        huge = tmp_path / "huge.txt"
        huge.write_text("p 400000000 1\ne 1 2 1\n")
        run = run_limited("compute", str(huge))
        assert run.returncode == 2
        assert run.stderr == "error: line 1: vertex count 400000000 exceeds the limit of 10000000\n"
        assert run.stdout == ""

    def test_json_weight_beyond_float_range_exits_2(self, capsys, tmp_path):
        f = tmp_path / "wide.txt"
        f.write_text("p 3 2\ne 1 2 1" + "0" * 400 + ".5\ne 2 3 2.5\n")
        code, out, err = run_cli(capsys, "compute", str(f), "--json")
        assert code == 2 and out == ""
        assert err == "error: a trail weight is beyond float range and has no JSON number\n"
        code, out, _ = run_cli(capsys, "compute", str(f), "--trail")
        assert code == 0 and "optimum: 2" in out

    @pytest.mark.parametrize("token", ["2e-324", "1e-400"])
    def test_json_weight_below_the_smallest_float_exits_2(self, capsys, tmp_path, token):
        # The float of such a weight is 0.0, which the schema's exclusiveMinimum refuses.
        f = tmp_path / "tiny.txt"
        f.write_text(f"p 3 2\ne 1 2 {token}\ne 2 3 2\n")
        code, out, err = run_cli(capsys, "compute", str(f), "--json")
        assert code == 2 and out == ""
        assert err == "error: a trail weight is below the smallest float and has no JSON number\n"
        code, out, _ = run_cli(capsys, "compute", str(f), "--trail")
        assert code == 0 and "optimum: 2" in out
        code, out, _ = run_cli(capsys, "check", str(f), "--json")
        assert code == 0 and json.loads(out)["ok"]

    def test_json_weight_that_rounds_to_the_smallest_float_validates(self, capsys, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("p 3 2\ne 1 2 3e-324\ne 2 3 2\n")
        code, out, _ = run_cli(capsys, "compute", str(f), "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("trail-report.schema.json"))
        assert doc["trail"]["weights"] == [2, 5e-324]


    @pytest.mark.parametrize(
        "token", ["1e999999999", "1e-999999999", "1e4300", "1e-4300", "1e9999", "1e-5000"]
    )
    def test_weight_exponent_above_the_limit_exits_2(self, tmp_path, token):
        # Fraction would build 10**999999999 first; the child's 60 s timeout
        # turns such a stall into a failure.  A weight of more than 4300
        # digits would print the report's first lines before it failed.
        f = tmp_path / "exp.txt"
        f.write_text(f"p 3 2\ne 1 2 {token}\ne 2 3 2\n")
        run = run_limited("compute", str(f), "--trail")
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == f"error: line 2: weight '{token}' is beyond the limit of 4300 digits\n"

    def test_weight_exponent_above_the_limit_on_the_column_path(self, tmp_path):
        q = 2000
        lines = [f"p {q + 1} {q}"] + [f"e {i} {i + 1} {i}" for i in range(1, q + 1)]
        lines[1500] = "e 1500 1501 1e999999999"
        f = tmp_path / "exp.txt"
        f.write_text("\n".join(lines) + "\n")
        run = run_limited("compute", str(f))
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            "error: line 1501: weight '1e999999999' is beyond the limit of 4300 digits\n"
        )

    @pytest.mark.parametrize("token", ["1e4299", "1e-4299"])
    def test_weight_at_the_digit_limit_prints(self, capsys, tmp_path, token):
        # len("1") + 4299 is the limit; the weight has 4300 digits either
        # way, the most Python converts between int and str.
        f = tmp_path / "wide.txt"
        f.write_text(f"p 3 2\ne 1 2 {token}\ne 2 3 2\n")
        g = parse_edge_list(f.read_text())
        code, out, err = run_cli(capsys, "compute", str(f), "--trail", "--labels")
        assert (code, err) == (0, "") and str(Fraction(g.edges[(0, 1)])) in out
        code, out, err = run_cli(capsys, "compute", str(f), "--json")
        if token == "1e-4299":  # its double is 0.0, a weight the report schema refuses
            assert (code, out) == (2, "")
            assert err == "error: a trail weight is below the smallest float and has no JSON number\n"
        else:
            assert (code, err) == (0, "") and json.loads(out)["optimum"] == 2
        code, out, err = run_cli(capsys, "check", str(f), "--json")
        assert (code, err) == (0, "") and json.loads(out)["ok"]
        assert parse_edge_list(render_edge_list(g)) == g


class TestMode:
    """The mode is read from the weights: no subcommand takes a flag for it,
    and a relaxed copy of a strict file gets the same answers."""

    @staticmethod
    def _relaxed_copy(tmp_path, strict_file):
        # Same edges, same weight order, weights 1.5, 3, ..., 9: not 1..q.
        lines = []
        for line in strict_file.read_text().splitlines():
            if line.startswith("e "):
                _, u, v, w = line.split()
                line = f"e {u} {v} {int(w) * 1.5}"
            lines.append(line)
        path = tmp_path / "relaxed.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_strict_on_a_relaxed_file_exits_2(self, capsys):
        relaxed = FIXTURES / "relaxed_decimal.txt"
        for argv in (["compute"], ["oracle"], ["check"], ["extremal", "--exhaustive", "--file"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, str(relaxed), "--mode", "strict"])
            assert exc.value.code == 2
            _, err = capsys.readouterr()
            assert err.startswith("usage: monotrails ")
            assert err.endswith("error: unrecognized arguments: --mode strict\n")

    def test_relaxed_on_a_strict_file(self, capsys, tmp_path, k4_file):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(k4_file), "--mode", "relaxed"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --mode relaxed\n"
        )
        code, out, _ = run_cli(capsys, "compute", str(k4_file))
        assert code == 0
        assert "graph: n=4 q=6 (strict)" in out and "optimum: 3" in out
        code, out, _ = run_cli(capsys, "compute", str(self._relaxed_copy(tmp_path, k4_file)))
        assert code == 0
        assert "graph: n=4 q=6 (relaxed)" in out and "optimum: 3" in out

    @pytest.mark.parametrize(
        "argv", [("compute", "--json"), ("extremal", "--exhaustive", "--json", "--file")]
    )
    def test_relaxed_json_matches_the_default(self, capsys, tmp_path, k4_file, argv):
        code, out, _ = run_cli(capsys, *argv, str(k4_file))
        assert code == 0
        default = json.loads(out)
        code, out, _ = run_cli(capsys, *argv, str(self._relaxed_copy(tmp_path, k4_file)))
        assert code == 0
        relaxed = json.loads(out)
        if "trail" in default:  # the same trail, through the scaled weights
            assert relaxed["trail"].pop("weights") == [
                w * 1.5 for w in default["trail"].pop("weights")
            ]
        assert relaxed == default


@pytest.mark.parametrize(
    "argv",
    [["compute", "FILE"], ["check", "FILE"], ["extremal", "--exhaustive", "--file", "FILE"]],
    ids=lambda argv: argv[0],
)
def test_a_typo_after_a_subcommand_shows_its_usage(capsys, k4_file, argv):
    command = argv[0]
    with pytest.raises(SystemExit) as exc:
        main([str(k4_file) if a == "FILE" else a for a in argv] + ["--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: monotrails {command} [-h]")
    assert err.endswith(f"monotrails {command}: error: unrecognized arguments: --bogus\n")


def test_a_typo_before_the_subcommand_shows_the_root_usage(capsys, k4_file):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "compute", str(k4_file)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: monotrails [-h] [--version] {compute,")
    assert err.endswith("monotrails: error: unrecognized arguments: --bogus\n")


def _altered(real, **fields):
    """real with the given fields of its result replaced."""
    return lambda *args: real(*args)._replace(**fields)


class TestFailedChecks:
    """A failed property check prints FAIL or MISMATCH and exits 1.  The
    algorithm never fails one, so each test alters the result a check reads."""

    def test_compute_reports_a_failed_bound(self, capsys, monkeypatch, k4_file):
        real = cli.longest_ordered_trail
        monkeypatch.setattr(cli, "longest_ordered_trail", _altered(real, optimum=2))
        code, out, err = run_cli(capsys, "compute", str(k4_file))
        assert (code, err) == (1, "")
        assert out.endswith(
            "bound 2*floor(q/n) = 2: satisfied\nbound floor(2q/n) = 3: FAIL\n"
        )
        code, out, err = run_cli(capsys, "compute", str(k4_file), "--json")
        assert (code, err) == (1, "") and json.loads(out)["optimum"] == 2

    def test_check_reports_a_failed_bound(self, capsys, monkeypatch, k4_file):
        real = cli.check_lower_bound
        monkeypatch.setattr(cli, "check_lower_bound", _altered(real, optimum=2))
        code, out, err = run_cli(capsys, "check", str(k4_file))
        assert (code, err) == (1, "")
        assert out == (
            "n=4 q=6 p_d=2\n"
            "bound 2*floor(q/n) = 2: pass\n"
            "bound floor(2q/n) = 3: FAIL\n"
            "oracle agreement: FAIL\n"
            "result: FAILED\n"
        )
        code, out, err = run_cli(capsys, "check", str(k4_file), "--json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("check-report.schema.json"))
        assert doc["bounds"]["floor_2q_over_n"] == {"value": 3, "holds": False}
        assert doc["ok"] is False

    def test_check_reports_an_oracle_disagreement(self, capsys, monkeypatch, k4_file):
        real = cli.brute_force_longest
        monkeypatch.setattr(cli, "brute_force_longest", _altered(real, per_vertex=[3, 3, 3, 2]))
        code, out, err = run_cli(capsys, "check", str(k4_file))
        assert (code, err) == (1, "")
        assert out.endswith("oracle agreement: FAIL\nresult: FAILED\n")
        code, out, err = run_cli(capsys, "check", str(k4_file), "--json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("check-report.schema.json"))
        assert doc["oracle"] == {"optimum": 3, "optimum_agrees": True, "per_vertex_agrees": False}
        assert doc["ok"] is False

    def test_oracle_reports_a_mismatch(self, capsys, monkeypatch, k4_file):
        real = cli.brute_force_longest
        monkeypatch.setattr(cli, "brute_force_longest", _altered(real, optimum=4))
        code, out, err = run_cli(capsys, "oracle", str(k4_file))
        assert (code, err) == (1, "")
        assert out.endswith("algorithm optimum: 3\nagreement: MISMATCH\n")
        code, out, err = run_cli(capsys, "oracle", str(k4_file), "--json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("oracle-report.schema.json"))
        assert doc["agreement"] == {"optimum": False, "per_vertex": True}


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

    def test_vertex_count_above_the_limit_exits_2(self, capsys, tmp_path):
        # A 1,500-vertex path with falling weights: the oracle could take it
        # (one 1,499-step trail), but the cap decides oracle's output.
        n = 1500
        path = tmp_path / "path.txt"
        edges = [f"e {i} {i + 1} {n - i}" for i in range(1, n)]
        path.write_text("\n".join([f"p {n} {n - 1}", *edges]) + "\n")
        for extra in ([], ["--json"]):
            code, out, err = run_cli(capsys, "oracle", str(path), *extra)
            assert (code, out) == (2, "")
            assert err == "error: oracle needs n <= 9, got n=1500\n"


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

    @pytest.mark.parametrize("n, f, weightings", [(3, 3, 6), (4, 3, 720), (5, 5, 3628800)])
    def test_readme_table_row(self, capsys, n, f, weightings):
        # README's K3..K5 table: f(K_n) exceeds the generic n - 1 exactly at
        # n = 3 and 5, and --reduce counts one weighting per orbit of the n!
        # relabelings with the same f and witness.
        argv = ("extremal", "--complete", str(n), "--exhaustive", "--json")
        (code, out, _), (code_reduced, out_reduced, _) = (
            run_cli(capsys, *argv), run_cli(capsys, *argv, "--reduce")
        )
        assert (code, code_reduced) == (0, 0)
        plain, reduced = json.loads(out), json.loads(out_reduced)
        assert (plain["f"], plain["examined"]) == (f, weightings)
        assert (f > n - 1) == (n != 4)
        factor = math.factorial(n)
        assert reduced["reduction"] == {"enabled": True, "factor": factor}
        assert reduced["examined"] * factor == weightings
        assert (reduced["f"], reduced["witness"]) == (plain["f"], plain["witness"])

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

    def test_too_large_is_refused_before_the_edges_are_listed(self):
        # K_4472's 9,997,156 edges are under MAX_EDGES; listing them would exhaust 256 MiB.
        run = run_limited("extremal", "--complete", "4472", "--exhaustive", mib=256)
        assert (run.returncode, run.stdout, run.stderr) == (
            2, "", "error: q=9997156 exceeds the exhaustive guard of 10; use Sampled mode\n"
        )

    def test_oversized_sample_is_refused_before_the_structure_is_built(self, capsys, monkeypatch):
        # K_4472's 9,997,156 edges are under MAX_EDGES, but sampling them would take about 3 GB.
        def build(n):
            raise AssertionError(f"K_{n} built")

        monkeypatch.setattr(extremal, "complete_structure", build)  # cli imports it per call
        assert run_cli(capsys, "extremal", "--complete", "4472", "--sample", "1") == (
            2, "", "error: q=9997156 exceeds the sampled guard of 1200000\n"
        )

    @pytest.mark.parametrize("n, err", [
        ("-100000", "vertex count must be >= 1, got -100000"),
        ("100000", "K_100000 has 4999950000 edges, above the limit of 10000000"),
        ("6", "jobs must be >= 1, got 0"),
    ])
    def test_refusals_before_the_guard_keep_their_order(self, capsys, n, err):
        argv = ("extremal", "--complete", n, "--exhaustive", "--jobs", "0")
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_edge_count_above_the_limit_exits_2(self):
        # K_100000 has ~5e9 edges; listing them would exhaust 1 GiB.
        run = run_limited("extremal", "--complete", "100000", "--sample", "1")
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            "error: K_100000 has 4999950000 edges, above the limit of 10000000\n"
        )

    def test_sparse_structure_on_many_vertices(self, tmp_path):
        # Deciding completeness must not list the ~5e9 pairs of K_100000.
        f = tmp_path / "sparse.txt"
        f.write_text("p 100000 1\ne 1 2 1\n")
        run = run_limited("extremal", "--file", str(f), "--sample", "1", "--json")
        assert (run.returncode, run.stderr) == (0, "")
        doc = json.loads(run.stdout)
        assert doc["structure"]["complete"] is False and doc["f"] == 1

    @pytest.mark.parametrize(
        "how", [["--exhaustive"], ["--exhaustive", "--reduce"], ["--sample", "10"]],
        ids=["exhaustive", "reduce", "sampled"],
    )
    def test_isolated_vertices_allocate_nothing(self, tmp_path, how):
        # Ten million vertices, four of them with edges: no search buffer may
        # grow with n, or 1 GiB runs out (exhaustive) or each order costs a
        # list of n labels (sampled).
        f = tmp_path / "sparse.txt"
        f.write_text("p 10000000 2\ne 1 2 1\ne 3 4 2\n")
        run = run_limited("extremal", "--file", str(f), *how, "--json")
        assert (run.returncode, run.stderr) == (0, "")
        doc = json.loads(run.stdout)
        assert (doc["f"], doc["witness"]) == (1, [1, 2])

    def test_jobs_flag_does_not_change_the_report(self, capsys):
        _, base, _ = run_cli(capsys, "extremal", "--complete", "4", "--exhaustive", "--json")
        _, with_jobs, _ = run_cli(
            capsys, "extremal", "--complete", "4", "--exhaustive", "--jobs", "2", "--json"
        )
        assert base == with_jobs

    def test_jobs_below_one_exit_2(self, capsys):
        for how in (["--exhaustive", "--jobs", "0"], ["--sample", "5", "--jobs", "-1"]):
            code, out, err = run_cli(capsys, "extremal", "--complete", "3", *how)
            assert code == 2 and out == "" and "jobs must be >= 1" in err

    def test_the_environment_sets_no_worker_count(self, capsys, monkeypatch):
        argv = ("extremal", "--complete", "3", "--exhaustive", "--json")
        monkeypatch.delenv("TRAIL_JOBS", raising=False)
        unset = run_cli(capsys, *argv)
        monkeypatch.setenv("TRAIL_JOBS", "x")
        assert run_cli(capsys, *argv) == unset
        assert unset[0] == 0


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

    def test_random_pairs_need_no_pair_list(self):
        # K_200000 has ~2e10 pairs; listing them would exhaust 1 GiB.
        run = run_limited("gen", "--random", "200000", "10", "--seed", "4")
        assert run.returncode == 0 and run.stderr == ""
        g = parse_edge_list(run.stdout)
        assert g.n == 200000 and g.q == 10

    def test_random_negative_edge_count_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--random", "5", "-1")
        assert (code, out) == (2, "")
        assert err == "error: edge count must be >= 0, got -1\n"

    def test_random_vertex_count_above_the_limit_exits_2(self, capsys):
        # Refused before any pair is drawn, so no child process is needed; a
        # written file would be refused by compute at its header anyway.
        code, out, err = run_cli(capsys, "gen", "--random", "10000001", "1")
        assert (code, out) == (2, "")
        assert err == "error: vertex count 10000001 exceeds the limit of 10000000\n"

    def test_complete_edge_count_above_the_limit_exits_2(self):
        # K_100000 has ~5e9 edges; drawing them would exhaust 1 GiB.
        run = run_limited("gen", "--complete", "100000")
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            "error: 4999950000 edges requested, above the limit of 10000000\n"
        )

    def test_random_edge_count_above_the_limit_exits_2(self):
        # K_4473 has 10,001,628 pairs, so only the edge limit refuses this;
        # drawing the edges would take most of 1 GiB.
        run = run_limited("gen", "--random", "4473", "10000001")
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "error: 10000001 edges requested, above the limit of 10000000\n"

    def test_out_path_that_is_a_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen", "--complete", "3", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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


class TestOneParser:
    """main builds its parser once per process, at its first call, and every
    later call parses with that same parser."""

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_share_the_parser_and_leak_nothing_between_them(self, capsys):
        expected = (FIXTURES / "extremal.k5_exhaustive.out").read_text()
        parser = cli._build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--complete", "5"])  # neither --exhaustive nor --sample
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"monotrails {monotrails.__version__}\n"
        for _ in range(2):
            assert run_cli(capsys, "extremal", "--complete", "5", "--exhaustive", "--json") == (
                0, expected, ""
            )
        assert cli._build_parser() is parser

    def test_importing_the_cli_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import monotrails.cli\n"
            "print(built, monotrails.cli._build_parser.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(monotrails.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (run.returncode, run.stdout) == (0, "[] 0\n"), run.stderr


class TestReadme:
    def test_command_lines_parse(self, capsys):
        # A flag that is removed or renamed must not stay in the docs.
        readme = Path(__file__).parent.parent / "README.md"
        lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("monotrails ")]
        assert lines
        parser = cli._build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")
