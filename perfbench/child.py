"""One workload's measured process: a closed loop with a single client.

    python3 perfbench/child.py <workload> <rundir> <seconds> <trace 0|1> <jobs>

run.py starts it in a fresh process, so that the peak RSS it reports is the
workload's own.  After one untimed warm-up op it runs one op after another,
round after round (a round is one op of each kind), whole rounds only, for
about <seconds> and at least one round.  With trace 1 it alternates an
untraced and a traced round instead, and on extremal runs the exhaustive
search once more with <jobs> workers to measure parallel efficiency.

It writes <rundir>/result.json: per op kind the op times, how many ops ran
and how many gave the same outcome as the kind's first op, and those first
outcomes (run.py verifies them); with trace 0 also the round times, the
reference samples and the peak RSS, and with trace 1 the per-layer metrics.
The first traced round's spans go to <rundir>/spans.jsonl.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import ops
import spans

# Per-layer metrics that count work: they must repeat exactly in every round.
COUNT_SUFFIXES = (".calls", ".examined", ".nodes_explored", ".stdout_bytes")
REFERENCE_EVERY_S = 0.25


class Tally:
    def __init__(self):
        self.kinds: dict[str, dict] = {}
        self.first: dict[str, dict] = {}

    def run(self, op) -> tuple[float, float, dict]:
        """Run op; return its CPU seconds, wall seconds and outcome."""
        cpu, wall, outcome = op.run()
        k = self.kinds.setdefault(op.kind, {"times": [], "walls": [], "runs": 0, "matched": 0,
                                            "work": op.work})
        k["times"].append(cpu)
        k["walls"].append(wall)
        k["runs"] += 1
        if outcome == self.first.setdefault(op.kind, outcome):
            k["matched"] += 1
        return cpu, wall, outcome


def timed(op_list, seconds: float, tally: Tally) -> dict:
    """Run whole rounds for about `seconds`: a round is started only if a
    round of the median wall time so far would end before the deadline.
    Between ops it takes one reference sample for every REFERENCE_EVERY_S
    that has passed; they are not part of any op's time.  Returns each
    round's CPU time (the sum of its ops' times), the reference samples, and
    the peak RSS after the first round.  Later rounds repeat the same work,
    so the program's peak is reached by then; read later, the peak would
    also count the samples this loop keeps, and so grow with the program's
    speed."""
    deadline = perf_counter() + seconds
    rounds, walls, refs = [], [], [ops.reference_seconds()]
    due = perf_counter() + REFERENCE_EVERY_S
    while not rounds or perf_counter() + statistics.median(walls) <= deadline:
        start, total = perf_counter(), 0.0
        for op in op_list:
            total += tally.run(op)[0]
            while perf_counter() >= due:
                refs.append(ops.reference_seconds())
                due += REFERENCE_EVERY_S
        rounds.append(total)
        walls.append(perf_counter() - start)
        if len(rounds) == 1:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"round_times": rounds, "reference_times": refs, "peak_rss_kb": peak}


def _function(name: str):
    """The monotrails function named "<module>.<function>"."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"monotrails.{module}"), attr)


def _wrappers(rec: spans.Recorder):
    """Modules to patch and {original function: wrapper}."""
    import monotrails
    from monotrails import extremal

    def search(args, kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
        if isinstance(mode, extremal.Sampled):
            return "extremal.sampled"
        reduce = kwargs.get("reduce_symmetry", args[2] if len(args) > 2 else False)
        return "extremal.reduced" if reduce else "extremal.exhaustive"

    on_result = {"oracle.brute_force_longest":
                 lambda r, _label, res: r.count("oracle.nodes_explored", res.nodes_explored)}
    wrappers = {_function(name): rec.span(_function(name), name, on_result.get(name))
                for name in spans.SPANNED}
    wrappers[extremal.min_over_weightings] = rec.span(
        extremal.min_over_weightings, search,
        lambda r, label, res: r.count(f"{label}.examined", res.examined))
    aggregated = _function(spans.AGGREGATED)
    wrappers[aggregated] = rec.aggregate(aggregated, spans.AGGREGATED)
    modules = sorted({name.split(".")[0] for name in spans.SPANNED})
    return [monotrails, *(importlib.import_module(f"monotrails.{m}") for m in modules)], wrappers


def traced(op_list, seconds: float, tally: Tally, workload: str, jobs: int, rundir: Path) -> dict:
    rec = spans.Recorder()
    modules, wrappers = _wrappers(rec)
    shape_of: dict[int, str | None] = {}  # op id -> trail-large input shape
    untraced_rounds, traced_rounds, rounds = [], [], []
    serial: dict[str, list[float]] = {}  # wall seconds per kind, untraced
    deadline = perf_counter() + seconds
    while True:
        total = 0.0
        for op in op_list:
            cpu, wall, _ = tally.run(op)
            serial.setdefault(op.kind, []).append(wall)
            total += cpu
        untraced_rounds.append(total)

        rec.begin_round()
        total, stdout_bytes = 0.0, 0
        rec.install(modules, wrappers)
        try:
            for op in op_list:
                rec.op = len(shape_of)
                shape_of[rec.op] = op.shape
                cpu, _, outcome = tally.run(op)
                total += cpu
                stdout_bytes += len(outcome.get("out", ""))
        finally:
            rec.uninstall()
        traced_rounds.append(total)
        metrics = rec.round_metrics(shape_of)
        metrics["cli.stdout_bytes"] = stdout_bytes
        rounds.append(metrics)
        if len(rounds) == 1:
            with open(rundir / "spans.jsonl", "w") as f:
                rec.write(f)
        if perf_counter() >= deadline:
            break

    layers, mismatched = {}, []
    for name in sorted(set().union(*rounds)):
        values = [m.get(name, 0) for m in rounds]
        if name.endswith(COUNT_SUFFIXES):
            layers[name] = values[0]
            if len(set(values)) > 1:
                mismatched.append(name)
        else:
            layers[name] = statistics.median(values)

    def ratio(num, den):
        return num / den if den else 0.0

    layers["oracle.nodes_per_s"] = ratio(layers.get("oracle.nodes_explored", 0),
                                         layers.get("oracle.brute_force_longest.self_s", 0))
    for search in spans.SEARCHES:
        layers[f"{search}.weightings_per_s"] = ratio(layers.get(f"{search}.examined", 0),
                                                     layers.get(f"{search}.total_s", 0))
    layers["trace.overhead_ratio"] = ratio(statistics.median(traced_rounds),
                                           statistics.median(untraced_rounds))
    layers["extremal.exhaustive.parallel_efficiency"] = 0.0
    if workload == "extremal":
        exhaustive = next(op for op in ops.build_ops(workload, rundir, jobs) if op.kind == "exhaustive")
        _, parallel, _ = tally.run(exhaustive)
        layers["extremal.exhaustive.parallel_efficiency"] = ratio(
            statistics.median(serial["exhaustive"]), jobs * parallel)
    return {"layers": layers, "count_mismatch": mismatched, "rounds": len(rounds)}


def main(argv: list[str]) -> int:
    workload, rundir, seconds, trace, jobs = argv
    rundir, seconds, jobs = Path(rundir), float(seconds), int(jobs)
    ops.make_ops([ops.warm_up_spec(workload, rundir)], jobs=1)[0].run()
    tally = Tally()
    if trace == "1":
        # Forked workers' spans are lost, so every traced search runs in-process.
        result = traced(ops.build_ops(workload, rundir, 1), seconds, tally, workload, jobs, rundir)
    else:
        result = timed(ops.build_ops(workload, rundir, jobs), seconds, tally)
    result.update(kinds=tally.kinds, first=tally.first)
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
