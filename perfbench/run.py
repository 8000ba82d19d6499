"""monotrails benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload trail-large|check-small|extremal \
        --seed N --seconds S --trace 0|1 [--smoke]

Generates the workload's inputs from --seed (inputs.py), measures set-up in
separate probe processes, runs the workload's closed loop in a fresh process
(child.py), verifies the outputs (verify.py) and prints a summary followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are END_TO_END, with --trace 1 PER_LAYER.  It
exits 0 when every output is correct, 1 when some are not, and 2 without a
result when it cannot run (for instance when src/monotrails is missing).
--smoke shrinks every input so that the benchmark's own tests run quickly.
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import ops
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trail-large", "check-small", "extremal")
SETUP_PROBES = {"trail-large": 5, "check-small": 9, "extremal": 5}
RUN_BUDGET_S = 170  # the whole run, all child processes included, ends within this

END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms": "ms", "peak_rss_mb": "MB"}

_SHAPED = tuple(name for name in spans.SPANNED if name != "oracle.brute_force_longest")
PER_LAYER = {
    **{f"{name}.{m}": unit for name in spans.SPANNED for m, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.{m}": unit for name in spans.SEARCHES
       for m, unit in (("calls", "count"), ("self_s", "s"), ("examined", "count"),
                       ("weightings_per_s", "1/s"))},
    f"{spans.AGGREGATED}.calls": "count",
    f"{spans.AGGREGATED}.total_s": "s",
    "oracle.nodes_explored": "count",
    "oracle.nodes_per_s": "1/s",
    "extremal.exhaustive.parallel_efficiency": "ratio",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    **{f"{name}.self_s.{shape}": "s" for name in _SHAPED for shape in ("sparse", "dense", "relaxed")},
}


def environment() -> dict:
    """Recorded beside the results; TRAIL_JOBS is unset for the children."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "TRAIL_JOBS_was": os.environ.get("TRAIL_JOBS"),
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "TRAIL_JOBS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def _python(args: list[str], env: dict, deadline: float) -> str:
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def verify_first_outcomes(workload: str, by_name: dict, first: dict) -> dict[str, list[str]]:
    """Problems per op kind, for each kind whose first outcome is wrong.
    `by_name` maps an input's name to the generated input (a search spec
    for extremal)."""
    bad = {}
    for kind, outcome in first.items():
        if "raise" in outcome:
            bad[kind] = [f"raised {outcome['raise']}"]
            continue
        try:
            if workload == "check-small":
                problems = verify.check_record_problems(verify.Reference(by_name[kind]), outcome)
            elif outcome["exit"] != 0:
                problems = [f"exit code {outcome['exit']}"]
            elif workload == "extremal":
                problems = verify.extremal_json_problems(by_name[kind], outcome["out"])
            else:
                cmd, shape = kind.split(".")
                ref = verify.Reference(by_name[shape])
                check = {"compute_json": verify.compute_json_problems,
                         "compute_inc": verify.compute_inc_text_problems,
                         "check_json": verify.check_json_problems}[cmd]
                problems = check(ref, outcome["out"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            bad[kind] = problems
    return bad


def count_failed(kinds: dict, bad: dict) -> tuple[int, int]:
    """(attempted, failed): an op fails when its outcome differs from its
    kind's first outcome, or equals a first outcome that failed verification."""
    attempted = sum(k["runs"] for k in kinds.values())
    failed = sum(k["runs"] - k["matched"] + (k["matched"] if kind in bad else 0)
                 for kind, k in kinds.items())
    return attempted, failed


def end_to_end(workload: str, result: dict, setups: list[list[float]], by_name: dict,
               lines: list[str]) -> dict:
    """Every time is CPU time (see ops.py), scaled by REFERENCE_S over the
    median reference sample taken beside it, in the workload's process or in
    the set-up probes, so that the host's drift in speed cancels (see
    README.md, "Noise").  Throughput is the work of all rounds over their
    time; a round is one op of each kind, so every kind has as many times."""
    kinds = result["kinds"]
    ref = statistics.median(result["reference_times"])
    scale = ops.REFERENCE_S / ref
    lines.append(f"reference = {ref * 1e3:.3f} ms (median of {len(result['reference_times'])}); "
                 f"times below are scaled by {scale:.4f}")
    rounds = result["round_times"]
    throughput = len(rounds) * sum(k["work"] for k in kinds.values()) / (sum(rounds) * scale)
    samples = sum(k["runs"] for k in kinds.values())
    counts = f"rounds={len(rounds)}, ops={samples}"
    if workload == "check-small":
        times = [t * scale for k in kinds.values() for t in k["times"]]
        latency_ms = statistics.median(times) * 1e3
        p99_ms = statistics.quantiles(times, n=100)[98] * 1e3
        lines += [f"graphs_per_s = {throughput:.1f} 1/s ({counts})",
                  f"check_p50_ms = {latency_ms:.4f} ms (checks={samples})",
                  f"check_p99_ms = {p99_ms:.4f} ms (checks={samples})"]
    else:
        median = {kind: statistics.median(k["times"]) * scale for kind, k in kinds.items()}
        latency_ms = math.exp(statistics.fmean(math.log(t * scale) for k in kinds.values()
                                               for t in k["times"])) * 1e3
        name = "edges_per_s" if workload == "trail-large" else "weightings_per_s"
        lines.append(f"{name} = {throughput:.1f} 1/s ({counts})")
        for kind, t in median.items():
            label = f"k{by_name[kind]['n']}_{kind}_s" if workload == "extremal" else f"{kind}_s"
            lines.append(f"{label} = {t:.4f} s (median of {kinds[kind]['runs']}; unscaled wall "
                         f"median {statistics.median(kinds[kind]['walls']):.4f} s)")
    setup_ref = statistics.median(r for probe in setups for r in probe[1:])
    setup_s = statistics.median(probe[0] for probe in setups) * ops.REFERENCE_S / setup_ref
    rss_mb = result["peak_rss_kb"] / 1024
    lines += [f"setup_s = {setup_s:.4f} s (median of {len(setups)}; reference "
              f"{setup_ref * 1e3:.3f} ms)",
              f"peak_rss_mb = {rss_mb:.2f} MB (samples=1)"]
    return {"setup_s": setup_s, "throughput_per_s": throughput, "latency_ms": latency_ms,
            "peak_rss_mb": rss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="monotrails benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monotrails" / "__init__.py").is_file():
        print(f"error: no monotrails sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    env_info = environment()
    jobs = min(2, env_info["nproc"])
    env = child_env()
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    lines = [f"env: {json.dumps(env_info)} jobs={jobs}"]
    try:
        t0 = time.perf_counter()
        inputs_list, manifest = inputs.write_inputs(args.workload, args.seed, args.smoke, rundir)
        shutil.copyfile(rundir / "manifest.json", work / f"inputs-{args.workload}.json")
        lines.append(f"inputs: generated in {time.perf_counter() - t0:.2f} s, "
                     f"all listed in .bench_work/inputs-{args.workload}.json")
        for rec in manifest[:3]:
            lines.append(f"input: {json.dumps(rec)}")
        if len(manifest) > 3:
            lines.append(f"input: ... {len(manifest)} in all, q total {sum(r['q'] for r in manifest)}")

        _python(["-c", "import monotrails.cli"], env, deadline)  # write bytecode before set-up
        setups = [[float(x) for x in _python([str(HERE / "ops.py"), args.workload, str(rundir)],
                                             env, deadline).split()]
                  for _ in range(SETUP_PROBES[args.workload])]
        _python([str(HERE / "child.py"), args.workload, str(rundir), str(args.seconds),
                 str(args.trace), str(jobs)], env, deadline)
        result = json.loads((rundir / "result.json").read_text())
        if args.trace:
            shutil.copyfile(rundir / "spans.jsonl", work / f"spans-{args.workload}.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    by_name = {rec["name"]: item for rec, item in zip(manifest, inputs_list)}
    bad = verify_first_outcomes(args.workload, by_name, result["first"])
    attempted, failed = count_failed(result["kinds"], bad)
    for kind, problems in bad.items():
        lines.append(f"FAILED {kind}: {'; '.join(problems[:3])}")
    correct = failed == 0
    if args.trace:
        if result["count_mismatch"]:
            correct = False
            lines.append(f"FAILED counts differ between rounds: {result['count_mismatch']}")
        layers = result["layers"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
        lines.append(f"traced rounds: {result['rounds']}; spans in .bench_work/spans-{args.workload}.jsonl")
    else:
        values = end_to_end(args.workload, result, setups, by_name, lines)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines.append(f"failed_ratio = {failed / attempted:.4f} (failed={failed}, attempted={attempted})")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
