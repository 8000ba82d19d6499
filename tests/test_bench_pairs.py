"""The paired benchmark driver, run against two stand-in checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: throughput is the seed times the
# checkout's speed, latency its inverse, and each run appends its side and
# seed to a shared log so the test can read the order of the runs.
FAKE_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, speed = int(args["--seed"]), {speed}
with open({log!r}, "a") as f:
    f.write(f"{side} {{args['--workload']}} {{seed}}\\n")
print("summary line")
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
    "throughput_per_s": {{"value": seed * speed, "unit": "1/s"}},
    "latency_ms": {{"value": 1 / (seed * speed), "unit": "ms"}},
}}}}))
"""


def checkout(root, side, speed, log):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(speed=speed, log=str(log), side=side))
    spec = {"end_to_end": [{"name": "throughput_per_s", "better": "higher"},
                           {"name": "latency_ms", "better": "lower"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_pairs_alternate_and_summaries_merge(tmp_path):
    log = tmp_path / "runs.log"
    base = checkout(tmp_path / "base", "base", 1, log)
    head = checkout(tmp_path / "head", "head", 2, log)
    common = ["--base", str(base), "--head", str(head), "--seconds", "1", "--tag", "t"]
    assert bench_pairs.main([*common, "--workload", "check-small", "--pairs", "3", "--seed", "5"]) == 0
    assert bench_pairs.main([*common, "--workload", "extremal", "--pairs", "1", "--seed", "9"]) == 0
    assert log.read_text().split("\n")[:-1] == [
        "base check-small 5", "head check-small 5",
        "head check-small 6", "base check-small 6",
        "base check-small 7", "head check-small 7",
        "base extremal 9", "head extremal 9",
    ]
    doc = json.loads((head / "BENCH_t.json").read_text())
    assert set(doc["workloads"]) == {"check-small", "extremal"}
    small = doc["workloads"]["check-small"]
    assert {"nproc", "python"} <= set(small["environment"])
    assert "--workload check-small" in small["command"]
    assert small["seeds"] == [5, 6, 7] and [p["first"] for p in small["pairs"]] == ["base", "head", "base"]
    throughput, latency = small["summary"]["throughput_per_s"], small["summary"]["latency_ms"]
    assert (throughput["base_median"], throughput["head_median"]) == (6, 12)
    assert (throughput["base_iqr"], throughput["head_iqr"]) == (1, 2)
    assert throughput["head_won"] == latency["head_won"] == 3  # higher and lower both read as better


def test_a_metric_without_a_direction_is_an_error(tmp_path):
    log = tmp_path / "runs.log"
    base = checkout(tmp_path / "base", "base", 1, log)
    head = checkout(tmp_path / "head", "head", 2, log)
    spec = {"end_to_end": [{"name": "throughput_per_s", "better": "higher"}]}
    (head / "BENCHMARK.json").write_text(json.dumps(spec))  # latency_ms has no direction
    argv = ["--base", str(base), "--head", str(head), "--workload", "w",
            "--pairs", "1", "--seed", "1", "--tag", "t"]
    with pytest.raises(KeyError, match="latency_ms"):
        bench_pairs.main(argv)


def test_iqr_of_one_value_is_zero():
    assert bench_pairs.iqr([4.0]) == 0.0
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
