"""Exception types shared across the package."""


class DagxError(Exception):
    """Base class for all dagx errors."""


class SelfLoopError(DagxError):
    """An edge (v, v) was supplied."""


class DuplicateEdgeError(DagxError):
    """The same directed edge was supplied more than once."""


class VertexRangeError(DagxError):
    """An edge endpoint lies outside 0..n-1."""


class CycleError(DagxError):
    """The edge set admits a directed cycle.

    The offending cycle is available as ``cycle``: a vertex tuple
    (v0, ..., vk) with edges v0->v1->...->vk->v0.
    """

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"directed cycle: {' -> '.join(map(str, self.cycle))} -> {self.cycle[0]}")


class CapExceededError(DagxError):
    """An enumeration produced more items than the caller's cap allows."""


class EndpointMismatchError(DagxError):
    """Two paths that must share endpoints do not."""


class InvalidParamsError(DagxError):
    """Out-of-range parameters for a closed-form quantity or generator."""


class LimitExceededError(DagxError):
    """A requested exhaustive range or graph size exceeds the package's ceiling for it."""


class ParseError(DagxError):
    """Malformed input text; ``line`` is the 1-based offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateIntervalError(DagxError):
    """An interval with lo >= hi was supplied."""


class UnknownClaimError(DagxError):
    """The requested verification claim name is not recognized."""
