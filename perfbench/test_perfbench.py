"""The benchmark's own tests: smoke runs of every workload, input
determinism, the verifier on corrupted outputs, and the span recorder.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import inputs
import ops
import run
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    done = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def monotrails_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from monotrails import cli

    return cli


def _run_cli(cli, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_traced_counts_repeat_exactly():
    counts = [
        {k: v["value"] for k, v in _smoke("check-small", 1, seed=5)["metrics"].items()
         if k.endswith(child.COUNT_SUFFIXES)}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["graphs.validate.calls"] == 5 * inputs.CHECK_GRAPHS_SMOKE
    assert counts[0]["oracle.nodes_explored"] > 0


def test_inputs_are_byte_identical_for_a_seed():
    def digests(seed):
        return [g.digest for g in inputs.trail_inputs(seed, smoke=True) + inputs.check_inputs(seed, smoke=True)]

    assert digests(11) == digests(11)
    assert digests(11) != digests(12)
    relaxed = inputs.trail_inputs(11, smoke=True)[2]
    assert relaxed.regime == "relaxed" and "." in relaxed.text.splitlines()[2]


def test_corrupted_witness_counts_as_failed(monotrails_cli, tmp_path):
    g = inputs.trail_inputs(1, smoke=True)[1]
    path = tmp_path / "dense.txt"
    path.write_text(g.text)
    out = json.loads(_run_cli(monotrails_cli, ["compute", str(path), "--json"]))
    first = {"compute_json.dense": {"exit": 0, "out": json.dumps(out)}}
    assert run.verify_first_outcomes("trail-large", {g.name: g}, first) == {}

    vertices = out["trail"]["vertices"]
    vertices[1], vertices[2] = vertices[2], vertices[1]  # same length, broken chain or order
    first["compute_json.dense"]["out"] = json.dumps(out)
    bad = run.verify_first_outcomes("trail-large", {g.name: g}, first)
    assert "compute_json.dense" in bad
    kinds = {"compute_json.dense": {"runs": 4, "matched": 4, "times": [1.0] * 4, "work": g.q}}
    assert run.count_failed(kinds, bad) == (4, 4)
    assert run.count_failed(kinds, {}) == (4, 0)


def test_increasing_text_and_check_outputs_verify(monotrails_cli, tmp_path):
    for g in inputs.trail_inputs(2, smoke=True):
        path = tmp_path / f"{g.name}.txt"
        path.write_text(g.text)
        ref = verify.Reference(g)
        text = _run_cli(monotrails_cli, ["compute", str(path), "--order", "inc", "--trail", "--labels"])
        assert verify.compute_inc_text_problems(ref, text) == []
        broken = text.replace("order: increasing", "order: decreasing")
        assert verify.compute_inc_text_problems(ref, broken) != []
        report = _run_cli(monotrails_cli, ["check", str(path), "--json"])
        assert verify.check_json_problems(ref, report) == []


def test_extremal_verifier_rejects_a_wrong_witness(monotrails_cli):
    spec = inputs.extremal_inputs(0, smoke=True)[1]  # K4, --reduce
    out = json.loads(_run_cli(monotrails_cli, ops.extremal_argv(spec, 1)))
    assert verify.extremal_json_problems(spec, json.dumps(out)) == []
    edges = list(itertools.combinations(range(spec["n"]), 2))
    out["witness"] = next(list(w) for w in itertools.permutations(range(1, spec["q"] + 1))
                          if max(verify.reference_labels(spec["n"], edges, w)) != out["f"])
    assert verify.extremal_json_problems(spec, json.dumps(out)) == [
        "witness weighting does not give the reported minimum"]


def test_times_are_scaled_by_the_reference():
    ref = ops.REFERENCE_S
    # A host half as fast as the scale: ops and reference samples take twice as long.
    result = {"kinds": {"compute_json.sparse": {"times": [1.6, 2.5], "walls": [1.6, 2.5],
                                                "runs": 2, "matched": 2, "work": 10}},
              "round_times": [1.6, 2.5], "reference_times": [2 * ref, 1.9 * ref, 2.1 * ref],
              "peak_rss_kb": 2048}
    setups = [[0.8, 2 * ref, 2 * ref], [0.9, 2 * ref], [0.6, 3 * ref]]
    values = run.end_to_end("trail-large", result, setups, {}, [])
    # 20 edges in 2.05 scaled seconds; the geometric mean of 0.8 and 1.25 s is 1 s.
    assert values == pytest.approx({"throughput_per_s": 20 / 2.05, "latency_ms": 1000.0,
                                    "setup_s": 0.4, "peak_rss_mb": 2.0})


def test_span_self_time_excludes_children_and_aggregates():
    rec = spans.Recorder()
    leaf = rec.aggregate(lambda: sum(range(2000)), "m.leaf")
    inner = rec.span(lambda: leaf() + leaf(), "m.inner")
    outer = rec.span(lambda: inner() + sum(range(5000)), "m.outer")
    rec.begin_round()
    rec.op = 0
    outer()
    m = rec.round_metrics({0: "sparse"})
    assert m["m.outer.calls"] == m["m.inner.calls"] == 1 and m["m.leaf.calls"] == 2
    assert m["m.outer.self_s"] == pytest.approx(m["m.outer.total_s"] - m["m.inner.total_s"])
    assert m["m.inner.self_s"] == pytest.approx(m["m.inner.total_s"] - m["m.leaf.total_s"])
    assert m["m.outer.self_s.sparse"] == m["m.outer.self_s"]
    name, _start, _end, parent, op, _covered = rec.spans[1]
    assert (name, parent, op) == ("m.inner", 0, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "check-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
