"""Exception types shared across the package.

A subclass exists only where a caller reads data from the exception or the
README names it as a call's contract.  Every other refusal (a vertex or
edge count out of range, a weight list that is not a permutation, a search
above its guard) raises MonotrailsError itself, and its message says which.
"""


class MonotrailsError(Exception):
    """Base class for all package-specific errors, and the error of every
    refusal that has no subclass of its own."""


class RankOutOfRangeError(MonotrailsError):
    """An edge rank, step index or vertex outside its range."""


class InvalidGraphError(MonotrailsError):
    """An operation requiring a valid graph received one that fails validation."""

    prefix = "invalid graph"

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.kind}: {v.detail}" for v in self.violations)
        super().__init__(f"{self.prefix}: {detail}")


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
