"""Span recorder for the traced run.

The benchmark measures each module from outside: it replaces a public
function with a timing wrapper in every monotrails module that binds it, so
calls made through any of those names are seen.  Nothing under src/ changes,
and the wrappers exist only in the traced process, only between install()
and uninstall().

A span is [name, start, end, parent index (-1 for none), op id, covered],
where `covered` is the time child spans and aggregated calls took inside it,
so self time = end - start - covered.  A function called too often for one
span per call (more than ~10^4 times per op) is aggregated instead: only a
call count and the total time are kept, and that time still counts as
covered in the enclosing span.  Spans are kept in memory for one round only;
the caller writes them out between rounds, outside any timed op.
"""

from __future__ import annotations

import json
from time import perf_counter

# The layers the traced run wraps, as "<module>.<function>" under monotrails.
# One span per call:
SPANNED = ("cli.main", "graphs.parse_edge_list", "graphs.validate", "graphs.ranked_edges",
           "labeling.run_labeling_sorted", "labeling.longest_ordered_trail",
           "labeling.trail_report_json", "trails.reverse_dual", "trails.trail_json",
           "oracle.brute_force_longest", "extremal.check_lower_bound")
# One span per call of extremal.min_over_weightings, named after the search:
SEARCHES = ("extremal.exhaustive", "extremal.reduced", "extremal.sampled")
# Called once per weighting, so only a call count and a total time are kept:
AGGREGATED = "labeling.final_label_lengths"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # aggregated name -> [calls, seconds]
        self.counts: dict[str, int] = {}   # counters taken from results
        self.op = None                      # id of the op being run
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def begin_round(self) -> None:
        """Drop the last round's spans and zero the aggregated totals and counters."""
        del self.spans[:]
        for total in self.totals.values():
            total[:] = [0, 0.0]
        self.counts.clear()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, fn, name, on_result=None):
        """Wrap fn so each call records a span; `name` may be a function of
        (args, kwargs) that returns the span name."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += end - rec[1]
            if on_result is not None:
                on_result(self, label, result)
            return result

        return wrapper

    def aggregate(self, fn, name: str):
        """Wrap fn so calls only add to a count and a total time."""
        spans, stack = self.spans, self._stack
        total = self.totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    spans[stack[-1]][5] += dt

        return wrapper

    def install(self, modules, wrappers: dict) -> None:
        """Rebind every attribute of `modules` that is a key of `wrappers`
        (an original function) to its wrapper."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._installed:
            module, attr, value = self._installed.pop()
            setattr(module, attr, value)

    def round_metrics(self, shape_of: dict) -> dict:
        """Calls, self and total seconds per span name, plus self seconds per
        input shape, aggregated totals and counters, for this round."""
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for name, start, end, _parent, op, covered in self.spans:
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - covered)
            add(f"{name}.total_s", end - start)
            if shape_of.get(op):
                add(f"{name}.self_s.{shape_of[op]}", end - start - covered)
        for name, (calls, seconds) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = seconds
        out.update(self.counts)
        return out

    def write(self, f) -> None:
        """Write this round's spans to an open file, one JSON array each:
        name, start, end, parent index, op, self seconds."""
        for name, start, end, parent, op, covered in self.spans:
            f.write(json.dumps([name, start, end, parent, op, end - start - covered]) + "\n")
