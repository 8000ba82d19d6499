"""The ops each workload runs, the reference loop, and the set-up probe.

An op is one call a user of monotrails would make, timed from outside:

- trail-large: `monotrails.cli.main(argv)` in-process, stdout captured, for
  three commands on each of three large edge-list files;
- check-small: per graph, the public calls `monotrails check` makes, without
  building the argument parser: parse_edge_list, check_lower_bound,
  brute_force_longest, longest_ordered_trail(DECREASING);
- extremal: `monotrails.cli.main(["extremal", ...])` for each search.

Run as a script it is one set-up sample:

    python3 perfbench/ops.py <workload> <rundir>

loads the workload's inputs, then imports monotrails and runs the
workload's warm-up op, and prints the CPU seconds those two took and five
reference samples taken after them.

Every time is CPU time: that of this process plus that of the children it
has reaped, which are the fork pool's workers.  On an idle machine it equals
wall time; on a shared one it leaves out the time spent waiting for a CPU
that another process holds.  Ops also report their wall time.

The host's speed still drifts by a third over minutes, and every op drifts
with it.  So the workload's process also times a reference loop between
ops: fixed code of the benchmark's own that never changes with the
program.  run.py scales every time to a machine on which the reference
takes REFERENCE_S (see README.md, "Noise").
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from itertools import islice, permutations
from pathlib import Path

TRAIL_COMMANDS = {
    "compute_json": ["--json"],
    "compute_inc": ["--order", "inc", "--trail", "--labels"],
    "check_json": ["--json"],
}
WARM_UP_KIND = {"trail-large": "compute_json.sparse", "check-small": "g0", "extremal": "reduced"}
REFERENCE_S = 0.025  # the reference's CPU time on the scale the results are given in
_K5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]


class Op:
    # A plain class: the set-up probe imports this module before its clock
    # starts, so it imports nothing that monotrails might import itself.
    def __init__(self, kind: str, work: int, run, shape: str | None = None):
        self.kind = kind    # ops of one kind have the same input and output
        self.work = work    # edges, graphs or weightings this op processes
        self.run = run      # () -> (CPU seconds, wall seconds, outcome)
        self.shape = shape  # trail-large input shape, for per-shape spans


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds() -> float:
    """CPU seconds of one reference sample: the paper's labels fold over the
    first 15,000 edge orders of K5, in plain Python."""
    c0 = time.process_time()
    for order in islice(permutations(_K5), 15000):
        labels = [0] * 5
        for u, v in order:
            lu, lv = labels[u], labels[v]
            if lv >= lu:
                labels[u] = lv + 1
            if lu >= lv:
                labels[v] = lu + 1
    return time.process_time() - c0


def _cli_op(cli, argv):
    def run():
        buf = io.StringIO()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outcome = {"exit": code, "out": buf.getvalue()}
        except (Exception, SystemExit) as exc:  # argparse exits on usage errors
            outcome = {"raise": repr(exc)}
        return cpu_seconds() - c0, time.perf_counter() - t0, outcome

    return run


def _check_op(mt, text):
    # These calls start no process, so the process's own CPU time is enough.
    def run():
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            g = mt.parse_edge_list(text)
            bc = mt.check_lower_bound(g)
            oracle = mt.brute_force_longest(g)
            report = mt.longest_ordered_trail(g, mt.Order.DECREASING)
        except Exception as exc:
            return time.process_time() - c0, time.perf_counter() - t0, {"raise": repr(exc)}
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        return cpu, wall, {
            "p_d": bc.p_d, "bound_a": bc.bound_two_floor_q_over_n,
            "bound_b": bc.bound_floor_two_q_over_n, "holds_a": bc.holds_a, "holds_b": bc.holds_b,
            "oracle_per_vertex": oracle.per_vertex, "oracle_optimum": oracle.optimum,
            "labels": report.labels, "optimum": report.optimum, "start": report.start,
            "witness": [list(step) for step in report.witness],
        }

    return run


def extremal_argv(spec: dict, jobs: int) -> list[str]:
    argv = ["extremal", "--complete", str(spec["n"])]
    if spec["how"] == "sample":
        argv += ["--sample", str(spec["count"]), "--seed", str(spec["seed"])]
    else:
        argv.append("--exhaustive")
    if spec["how"] == "reduce":
        argv.append("--reduce")
    return argv + ["--jobs", str(jobs), "--json"]


def round_specs(workload: str, rundir: Path) -> list[dict]:
    """One round of the workload as plain data, one spec per op kind.  It
    reads only the benchmark's own input files and imports nothing of
    monotrails, so the set-up probe can load it before its clock starts."""
    manifest = json.loads((rundir / "manifest.json").read_text())
    if workload == "check-small":
        texts = json.loads((rundir / "graphs.json").read_text())
        return [{"kind": rec["name"], "work": 1, "text": text} for rec, text in zip(manifest, texts)]
    if workload == "trail-large":
        return [{"kind": f"{cmd}.{rec['name']}", "work": rec["q"], "shape": rec["name"],
                 "argv": [cmd.split("_")[0], str(rundir / f"{rec['name']}.txt"), *flags]}
                for rec in manifest for cmd, flags in TRAIL_COMMANDS.items()]
    return [{"kind": spec["name"], "work": spec["examined"], "search": spec} for spec in manifest]


def make_ops(specs: list[dict], jobs: int) -> list[Op]:
    """The ops for `specs`.  `jobs` is passed to the exhaustive search only;
    the other searches run with --jobs 1."""
    ops = []
    for spec in specs:
        if "text" in spec:
            import monotrails

            run = _check_op(monotrails, spec["text"])
        else:
            from monotrails import cli

            search = spec.get("search")
            argv = spec["argv"] if search is None else extremal_argv(
                search, jobs if search["how"] == "exhaustive" else 1)
            run = _cli_op(cli, argv)
        ops.append(Op(spec["kind"], spec["work"], run, spec.get("shape")))
    return ops


def build_ops(workload: str, rundir: Path, jobs: int) -> list[Op]:
    """One round of the workload: one op of each kind."""
    return make_ops(round_specs(workload, rundir), jobs)


def warm_up_spec(workload: str, rundir: Path) -> dict:
    """The spec of the workload's cheapest real op."""
    for spec in round_specs(workload, rundir):
        if spec["kind"] == WARM_UP_KIND[workload]:
            return spec
    raise ValueError(f"no warm-up op for {workload}")


if __name__ == "__main__":
    spec = warm_up_spec(sys.argv[1], Path(sys.argv[2]))
    start = cpu_seconds()
    make_ops([spec], jobs=1)[0].run()
    setup = cpu_seconds() - start
    print(setup, *(reference_seconds() for _ in range(5)))
