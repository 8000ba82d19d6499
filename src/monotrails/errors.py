"""Exception types shared across the package."""


class MonotrailsError(Exception):
    """Base class for all package-specific errors."""


class InvalidVertexCountError(MonotrailsError):
    """Graph construction with a vertex count below 1."""


class VertexOutOfRangeError(MonotrailsError):
    """An endpoint index is not a vertex of the graph."""


class SelfLoopError(MonotrailsError):
    """Both endpoints of an edge are the same vertex."""


class DuplicateEdgeError(MonotrailsError):
    """The undirected edge is already present."""


class DuplicateWeightError(MonotrailsError):
    """The weight is already assigned to another edge."""


class NonPositiveWeightError(MonotrailsError):
    """Edge weights must be strictly positive (0 means 'absent')."""


class RankOutOfRangeError(MonotrailsError):
    """An edge rank, step index or vertex outside its range."""


class WrongPermutationLengthError(MonotrailsError):
    """A weight permutation of the wrong length for the edge count."""


class NotAPermutationError(MonotrailsError):
    """The given weights are not a permutation of 1..q."""


class InvalidEdgeCountError(MonotrailsError):
    """Requested edge count below 0."""


class TooManyEdgesError(MonotrailsError):
    """Requested edge count exceeds n*(n-1)/2."""


class StepExhaustedError(MonotrailsError):
    """propagate_step called on a state that already processed all edges."""


class InvalidGraphError(MonotrailsError):
    """An operation requiring a valid graph received one that fails validation."""

    prefix = "invalid graph"

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.kind}: {v.detail}" for v in self.violations)
        super().__init__(f"{self.prefix}: {detail}")


class ExhaustiveTooLargeError(MonotrailsError):
    """Exhaustive weighting search requested beyond q <= EXHAUSTIVE_MAX_EDGES."""


class InvalidStructureError(MonotrailsError):
    """An extremal-search edge structure is malformed."""


class EdgeListParseError(MonotrailsError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class GraphValidationError(InvalidGraphError):
    """A parsed edge list describes a graph that fails validation."""

    prefix = "edge list fails validation"
