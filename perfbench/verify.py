"""Independent checks of the program's outputs; they feed `failed`.

Nothing here imports monotrails.  The reference is a labels-only fold over
the generator's own edge list in ascending weight-key order: after it, the
label of v is the length of a longest strictly decreasing trail from v, and
the optimum is the largest label.  Every reported witness must be a trail of
the input whose weights are strictly monotone in the stated order, with no
edge repeated, whose length is the optimum, and which starts (decreasing) or
ends (increasing) at the smallest vertex carrying the optimum.

Each `*_problems` function returns a list of human-readable problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
from itertools import combinations

from inputs import CHECK_MAX_N

# Guaranteed longest-trail length over all weightings of K_n: Graham and
# Kleitman, "Increasing paths in edge ordered graphs" (1973): n - 1, except
# 3 at n = 3 and 5 at n = 5.
def guaranteed_complete(n: int) -> int:
    return {3: 3, 5: 5}.get(n, max(n - 1, 0))


def reference_labels(n: int, edges, keys) -> list[int]:
    labels = [0] * n
    for i in sorted(range(len(edges)), key=keys.__getitem__):
        u, v = edges[i]
        lu, lv = labels[u], labels[v]
        if lv >= lu:
            labels[u] = lv + 1
        if lu >= lv:
            labels[v] = lu + 1
    return labels


class Reference:
    """Reference labels and an edge index for one generated graph."""

    def __init__(self, g):
        self.g = g
        self.labels = reference_labels(g.n, g.edges, g.keys)
        self.optimum = max(self.labels)
        self.best = self.labels.index(self.optimum)
        self.index = {e: i for i, e in enumerate(g.edges)}

    def walk_problems(self, vertices: list[int], order: str, weights=None, render=None) -> list[str]:
        """Check a trail given by its 0-based vertex sequence.

        `weights`, when given, are the reported weights, compared with the
        exact weights after `render` (the program's display form).
        """
        out = []
        used = []
        for a, b in zip(vertices, vertices[1:]):
            i = self.index.get((a, b) if a < b else (b, a))
            if i is None:
                return [f"step v{a + 1}-v{b + 1} is not an edge"]
            used.append(i)
        if len(set(used)) != len(used):
            out.append("an edge repeats")
        keys = [self.g.keys[i] for i in used]
        pairs = list(zip(keys, keys[1:]))
        if order == "dec" and any(x <= y for x, y in pairs):
            out.append("weights are not strictly decreasing")
        if order == "inc" and any(x >= y for x, y in pairs):
            out.append("weights are not strictly increasing")
        if len(used) != self.optimum:
            out.append(f"trail length {len(used)} != optimum {self.optimum}")
        tie_end = vertices[0] if order == "dec" else vertices[-1]
        if tie_end != self.best:
            out.append(f"trail anchored at v{tie_end + 1}, expected v{self.best + 1}")
        if weights is not None:
            exact = [render(self.g.weight(i)) for i in used]
            if list(weights) != exact:
                out.append("reported weights differ from the input's")
        return out

    def bound_values(self) -> tuple[int, int]:
        q, n = self.g.q, self.g.n
        return 2 * (q // n), (2 * q) // n


def _json_weight(w):
    return w if isinstance(w, int) else float(w)


def compute_json_problems(ref: Reference, out: str) -> list[str]:
    r = json.loads(out)
    probs = []
    if r.get("schema") != "trail-report/1" or r.get("kind") != "dec":
        probs.append("wrong schema or kind")
    if r["optimum"] != ref.optimum:
        probs.append(f"optimum {r['optimum']} != reference {ref.optimum}")
    if r["labels"] != ref.labels:
        probs.append("labels differ from the reference fold")
    t = r["trail"]
    vertices = [v - 1 for v in t["vertices"]]
    if t["length"] != len(vertices) - 1 or not r["start"] == t["start"] == t["vertices"][0]:
        probs.append("trail fields disagree")
    probs += ref.walk_problems(vertices, "dec", t["weights"], _json_weight)
    if (r["bound_2_floor_q_over_n"], r["bound_floor_2q_over_n"]) != ref.bound_values():
        probs.append("bound values wrong")
    return probs


def compute_inc_text_problems(ref: Reference, out: str) -> list[str]:
    """`compute --order inc --trail --labels`, human-readable form."""
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    g = ref.g
    probs = []
    if fields.get("graph") != f"n={g.n} q={g.q} ({g.regime})":
        probs.append(f"graph line {fields.get('graph')!r}")
    if fields.get("order") != "increasing":
        probs.append("order line")
    if fields.get("optimum") != str(ref.optimum):
        probs.append(f"optimum {fields.get('optimum')} != reference {ref.optimum}")
    labels = [int(tok.split("=")[1]) for tok in fields.get("labels", "").split()]
    if labels != ref.labels:
        probs.append("labels differ from the reference fold")
    chain, _, weights = fields.get("trail", "").partition("  (weights: ")
    chain = chain.split("  ")[0]  # an empty trail prints "v1  (empty trail)"
    vertices = [int(tok[1:]) - 1 for tok in chain.split("-")]
    reported = weights.rstrip(")").split(", ") if ref.optimum else None
    probs += ref.walk_problems(vertices, "inc", reported, str)
    a, b = ref.bound_values()
    for text in (f"bound 2*floor(q/n) = {a}", f"bound floor(2q/n) = {b}"):
        if fields.get(text) != "satisfied":
            probs.append(f"missing '{text}: satisfied'")
    return probs


def check_json_problems(ref: Reference, out: str) -> list[str]:
    r = json.loads(out)
    a, b = ref.bound_values()
    expected_oracle = None
    if ref.g.n <= CHECK_MAX_N:
        expected_oracle = {"optimum": ref.optimum, "optimum_agrees": True, "per_vertex_agrees": True}
    expected = {
        "schema": "check-report/1", "n": ref.g.n, "q": ref.g.q, "p_d": ref.optimum,
        "bounds": {"two_floor_q_over_n": {"value": a, "holds": True},
                   "floor_2q_over_n": {"value": b, "holds": True}},
        "oracle": expected_oracle, "ok": True,
    }
    return [] if r == expected else [f"check report {r} != expected {expected}"]


def check_record_problems(ref: Reference, rec: dict) -> list[str]:
    """One check-small graph: bounds, oracle, labels and witness."""
    probs = []
    a, b = ref.bound_values()
    got = (rec["p_d"], rec["bound_a"], rec["bound_b"], rec["holds_a"], rec["holds_b"])
    if got != (ref.optimum, a, b, True, True):
        probs.append(f"bound check {got}")
    if rec["oracle_per_vertex"] != ref.labels or rec["oracle_optimum"] != ref.optimum:
        probs.append("oracle differs from the reference fold")
    if rec["labels"] != ref.labels or rec["optimum"] != ref.optimum:
        probs.append("labels differ from the reference fold")
    vertices = [rec["start"]]
    for tail, head in rec["witness"]:
        if tail != vertices[-1]:
            return probs + ["witness steps do not chain"]
        vertices.append(head)
    return probs + ref.walk_problems(vertices, "dec")


def extremal_json_problems(spec: dict, out: str) -> list[str]:
    """f(K_n), the examined count, and the witness re-evaluated."""
    r = json.loads(out)
    n, q = spec["n"], spec["q"]
    probs = []
    if r.get("schema") != "extremal-report/1" or r["structure"]["n"] != n:
        probs.append("wrong schema or structure")
    known = guaranteed_complete(n)
    if spec["how"] == "sample":
        if r["f"] < known:
            probs.append(f"sampled minimum {r['f']} below the guaranteed {known}")
    elif r["f"] != known:
        probs.append(f"f(K{n}) = {r['f']}, expected {known}")
    if r["examined"] != spec["examined"]:
        probs.append(f"examined {r['examined']} != {spec['examined']}")
    witness = r["witness"]
    if sorted(witness) != list(range(1, q + 1)):
        probs.append("witness is not a weighting of 1..q")
    elif max(reference_labels(n, list(combinations(range(n), 2)), witness)) != r["f"]:
        probs.append("witness weighting does not give the reported minimum")
    return probs
