"""Exception hierarchy shared across the toolkit.

Every error that callers are expected to catch derives from :class:`SprError`,
so the CLI can map any of them to a validation-failure exit code.
"""


class SprError(Exception):
    """Base class for all toolkit errors."""


class GraphError(SprError):
    """Invalid graph construction or query."""


class NonPositiveWeightError(GraphError):
    """An edge weight is zero, negative, or not finite."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered vertex pair appears twice in the edge list."""


class DisconnectedError(GraphError):
    """The graph is not connected."""


class GraphFormatError(GraphError):
    """A graph text file does not follow the expected format."""


class InvalidPartitionError(SprError):
    """A vertex-to-terminal assignment violates the partition invariants."""


class VerificationFailedError(SprError):
    """Reduced graph fails the exact distance-preservation check."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NoNonTerminalsError(SprError):
    """Every vertex is a terminal; the base radius increment is undefined."""


class RoundCapExceededError(SprError):
    """Ball growing hit its safety cap before covering all vertices."""


class TraceMismatchError(SprError):
    """A run trace is inconsistent with the instance it is replayed against."""


class IncompleteCellsError(SprError):
    """A detour length needs every path cell of the pair fully deactivated."""


class KappaTooLargeError(SprError):
    """Lower-tail bound requested outside its valid kappa range."""


class ParamOutOfRegimeError(SprError):
    """Parameters fall outside the regime a bound or a run can handle."""
