"""Command-line front end.

Subcommands: compute (longest ordered trail), oracle (brute force plus
agreement check), check (lower bounds plus oracle agreement), extremal
(minimum over weightings of a structure), gen (write edge-list files).

Exit codes: 0 success; 1 a computed property check failed (bound violated
or oracle disagreement); 2 usage, parse, or input-validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import MonotrailsError
from .extremal import (
    Exhaustive,
    Sampled,
    check_lower_bound,
    complete_structure,
    extremal_report_json,
    min_over_weightings,
    structure_of,
)
from .graphs import Mode, WeightedGraph, parse_edge_list, random_graph, render_edge_list
from .labeling import Order, longest_ordered_trail, trail_report_json
from .oracle import brute_force_longest
from .trails import Trail, trail_weights

ORACLE_MAX_N = 9  # brute force is exponential; refuse agreement checks above


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotrails",
        description="Longest strictly increasing/decreasing trails in edge-weighted graphs.",
    )
    parser.add_argument("--version", action="version", version=f"monotrails {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument(
            "--mode",
            choices=["auto", "strict", "relaxed"],
            default="auto",
            help="weight regime of the input file (default: infer)",
        )

    p = sub.add_parser("compute", help="longest ordered trail of a graph file")
    p.add_argument("file", type=Path)
    p.add_argument("--order", choices=["dec", "inc"], default="dec")
    p.add_argument("--trail", action="store_true", help="print the witness trail")
    p.add_argument("--labels", action="store_true", help="print the final labels")
    p.add_argument("--json", action="store_true")
    add_mode(p)

    p = sub.add_parser("oracle", help="brute-force optimum and agreement with the algorithm")
    p.add_argument("file", type=Path)
    p.add_argument("--json", action="store_true")
    add_mode(p)

    p = sub.add_parser("check", help="lower-bound checks plus oracle agreement")
    p.add_argument("file", type=Path)
    p.add_argument("--json", action="store_true")
    add_mode(p)

    p = sub.add_parser("extremal", help="minimum over weightings of a structure")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--complete", type=int, metavar="N", help="complete graph on N vertices")
    grp.add_argument("--file", type=Path, help="take the edge structure from a graph file")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--exhaustive", action="store_true")
    how.add_argument("--sample", type=int, metavar="K", help="evaluate K seeded random weightings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reduce", action="store_true", help="quotient complete graphs by relabeling symmetry")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: $TRAIL_JOBS or 1)")
    p.add_argument("--timing", action="store_true", help="include measured elapsed_ms in JSON output")
    p.add_argument("--json", action="store_true")
    add_mode(p)

    p = sub.add_parser("gen", help="generate an edge-list file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--complete", type=int, metavar="N")
    grp.add_argument("--random", type=int, nargs=2, metavar=("N", "M"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="output path (default: stdout)")

    return parser


def _load_graph(path: Path, mode_flag: str) -> WeightedGraph:
    mode = {"auto": None, "strict": Mode.STRICT, "relaxed": Mode.RELAXED}[mode_flag]
    return parse_edge_list(path.read_text(), mode=mode)


def _trail_text(g: WeightedGraph, trail: Trail, start: int) -> str:
    vertices = [start] + [head for (_, head) in trail]
    chain = "-".join(f"v{v + 1}" for v in vertices)
    if not trail:
        return chain + "  (empty trail)"
    weights = ", ".join(str(w) for w in trail_weights(g, trail))
    return f"{chain}  (weights: {weights})"


def _labels_text(labels: list[int]) -> str:
    return " ".join(f"v{i + 1}={x}" for i, x in enumerate(labels))


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_compute(args) -> int:
    g = _load_graph(args.file, args.mode)
    kind = Order.DECREASING if args.order == "dec" else Order.INCREASING
    report = longest_ordered_trail(g, kind)
    if args.json:
        _emit_json(trail_report_json(report, g))
        return 0
    print(f"graph: n={g.n} q={g.q} ({g.mode.value})")
    print(f"order: {'decreasing' if kind is Order.DECREASING else 'increasing'}")
    print(f"optimum: {report.optimum}")
    if args.trail:
        print(f"trail: {_trail_text(g, report.witness, report.start)}")
    if args.labels:
        print(f"labels: {_labels_text(report.labels)}")
    print(f"bound 2*floor(q/n) = {report.bound_two_floor_q_over_n}: satisfied")
    print(f"bound floor(2q/n) = {report.bound_floor_two_q_over_n}: satisfied")
    return 0


def _oracle_agreement(g: WeightedGraph, optimum: int, labels: list[int]):
    """Brute-force result for g, and whether it agrees with the algorithm's
    optimum and with its labels vertex by vertex."""
    result = brute_force_longest(g)
    return result, result.optimum == optimum, result.per_vertex == labels


def _cmd_oracle(args) -> int:
    g = _load_graph(args.file, args.mode)
    report = longest_ordered_trail(g, Order.DECREASING)
    result, optimum_ok, per_vertex_ok = _oracle_agreement(g, report.optimum, report.labels)
    if args.json:
        _emit_json(
            {
                "schema": "oracle-report/1",
                "per_vertex": result.per_vertex,
                "optimum": result.optimum,
                "nodes_explored": result.nodes_explored,
                "algorithm": {"optimum": report.optimum, "labels": report.labels},
                "agreement": {"optimum": optimum_ok, "per_vertex": per_vertex_ok},
            }
        )
    else:
        print(f"oracle optimum: {result.optimum}")
        print(f"per-vertex: {_labels_text(result.per_vertex)}")
        print(f"nodes explored: {result.nodes_explored}")
        print(f"algorithm optimum: {report.optimum}")
        print(f"agreement: {'ok' if optimum_ok and per_vertex_ok else 'MISMATCH'}")
    return 0 if optimum_ok and per_vertex_ok else 1


def _cmd_check(args) -> int:
    g = _load_graph(args.file, args.mode)
    bc = check_lower_bound(g)
    oracle_json = None
    oracle_ok = True
    oracle_note = f"skipped (n > {ORACLE_MAX_N})"
    if g.n <= ORACLE_MAX_N:
        result, optimum_ok, per_vertex_ok = _oracle_agreement(g, bc.p_d, bc.labels)
        oracle_ok = optimum_ok and per_vertex_ok
        oracle_note = "pass" if oracle_ok else "FAIL"
        oracle_json = {
            "optimum": result.optimum,
            "optimum_agrees": optimum_ok,
            "per_vertex_agrees": per_vertex_ok,
        }
    ok = bc.holds_a and bc.holds_b and oracle_ok
    if args.json:
        _emit_json(
            {
                "schema": "check-report/1",
                "n": g.n,
                "q": g.q,
                "p_d": bc.p_d,
                "bounds": {
                    "two_floor_q_over_n": {
                        "value": bc.bound_two_floor_q_over_n,
                        "holds": bc.holds_a,
                    },
                    "floor_2q_over_n": {
                        "value": bc.bound_floor_two_q_over_n,
                        "holds": bc.holds_b,
                    },
                },
                "oracle": oracle_json,
                "ok": ok,
            }
        )
    else:
        print(f"n={g.n} q={g.q} p_d={bc.p_d}")
        print(
            f"bound 2*floor(q/n) = {bc.bound_two_floor_q_over_n}: "
            f"{'pass' if bc.holds_a else 'FAIL'}"
        )
        print(
            f"bound floor(2q/n) = {bc.bound_floor_two_q_over_n}: "
            f"{'pass' if bc.holds_b else 'FAIL'}"
        )
        print(f"oracle agreement: {oracle_note}")
        print(f"result: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_extremal(args) -> int:
    if args.complete is not None:
        structure = complete_structure(args.complete)
    else:
        structure = structure_of(_load_graph(args.file, args.mode))
    mode = Exhaustive() if args.exhaustive else Sampled(count=args.sample, seed=args.seed)
    jobs = args.jobs if args.jobs is not None else int(os.environ.get("TRAIL_JOBS", "1"))
    report = min_over_weightings(
        structure, mode=mode, reduce_symmetry=args.reduce, jobs=jobs
    )
    if args.json:
        _emit_json(extremal_report_json(report, include_timing=args.timing))
        return 0
    name = f"K{structure.n}" if structure.is_complete else f"structure n={structure.n}"
    print(f"structure: {name} (q={structure.q}, {'complete' if structure.is_complete else 'general'})")
    if isinstance(mode, Exhaustive):
        print("mode: exhaustive")
    else:
        print(f"mode: sampled (count={mode.count}, seed={mode.seed})")
    print(f"examined: {report.examined} weightings (reduction factor {report.reduction_factor})")
    print(f"minimum longest-trail length: {report.minimum}")
    print(f"witness weighting: {list(report.witness)}")
    print(f"elapsed: {report.elapsed_s * 1000.0:.1f} ms")
    return 0


def _cmd_gen(args) -> int:
    if args.complete is not None:
        n = args.complete
        m = n * (n - 1) // 2
    else:
        n, m = args.random
    g = random_graph(n, m, args.seed)
    text = render_edge_list(g)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "extremal": _cmd_extremal,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError, MonotrailsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
