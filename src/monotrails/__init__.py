"""Longest strictly increasing/decreasing trails in edge-weighted graphs.

The core pieces:

- graphs: weighted undirected graphs with pairwise-distinct positive
  weights, generators, validation, and the edge-list file format.
- trails: ordered-trail predicates and the reverse/swap duality between
  decreasing and increasing trails.
- labeling: the label-propagation algorithm for longest ordered trails,
  with per-vertex witness reconstruction.
- oracle: brute-force enumeration used as ground truth in tests.
- extremal: minimum guaranteed trail length over all weightings of a
  structure, exhaustive or sampled, with optional symmetry reduction.

Importing the package runs no extremal module body: the seven extremal
names in _EXTREMAL resolve on first access, through the module __getattr__
below (PEP 562), which is when monotrails.extremal is first imported.
"""

__version__ = "0.1.0"

from .errors import MonotrailsError
from .graphs import (
    Mode,
    Violation,
    WeightedGraph,
    add_edge,
    complete_graph,
    new_graph,
    parse_edge_list,
    random_graph,
    ranked_edges,
    render_edge_list,
    validate,
    weighted_subgraph,
)
from .labeling import (
    LabelState,
    TrailReport,
    check_lower_bound,
    find_edge_by_rank,
    get_label,
    initial_state,
    label_state_at,
    longest_ordered_trail,
    propagate_step,
    run_labeling_sorted,
)
from .oracle import EnumerationResult, brute_force_longest, enumerate_dec_trails_from
from .trails import (
    Order,
    Step,
    Trail,
    drop_prefix,
    is_ordered_trail,
    reverse_dual,
    trail_json,
)

_EXTREMAL = ("Exhaustive", "ExtremalReport", "Sampled", "Structure", "complete_structure",
             "min_over_weightings", "structure_of")


def __getattr__(name: str):
    """An extremal name, imported from monotrails.extremal on first access
    and kept in the package's namespace."""
    if name not in _EXTREMAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import extremal

    value = globals()[name] = getattr(extremal, name)
    return value


__all__ = [
    "EnumerationResult",
    "Exhaustive",
    "ExtremalReport",
    "LabelState",
    "Mode",
    "MonotrailsError",
    "Order",
    "Sampled",
    "Step",
    "Structure",
    "Trail",
    "TrailReport",
    "Violation",
    "WeightedGraph",
    "add_edge",
    "brute_force_longest",
    "check_lower_bound",
    "complete_graph",
    "complete_structure",
    "drop_prefix",
    "enumerate_dec_trails_from",
    "find_edge_by_rank",
    "get_label",
    "initial_state",
    "is_ordered_trail",
    "label_state_at",
    "longest_ordered_trail",
    "min_over_weightings",
    "new_graph",
    "parse_edge_list",
    "propagate_step",
    "random_graph",
    "ranked_edges",
    "render_edge_list",
    "reverse_dual",
    "run_labeling_sorted",
    "structure_of",
    "trail_json",
    "validate",
    "weighted_subgraph",
]
