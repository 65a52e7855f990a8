"""Exception hierarchy.

Validation errors (bad inputs, violated preconditions) are distinct from
numerical errors (well-posed input, computation cannot deliver); the CLI
maps them to exit codes 1 and 2.
"""


class GraphCalcError(Exception):
    """Base class for all library errors."""


class ValidationError(GraphCalcError):
    """Input violates a documented precondition."""


class GraphFormatError(ValidationError):
    """Graph file is structurally invalid."""


class GraphParseError(GraphFormatError):
    """Graph file is not well-formed JSON of the expected shape."""


class SelfLoopError(GraphFormatError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphFormatError):
    """The same undirected edge is listed twice."""


class DanglingEndpointError(GraphFormatError):
    """An edge endpoint is not in the vertex list."""


class UnknownVertexError(ValidationError):
    """A vertex id is not in the graph."""


class NotAdjacentError(ValidationError):
    """An ordered pair is not an edge."""


class DomainError(ValidationError):
    """A function or field is not defined where it is evaluated."""


class DisconnectedInteriorError(ValidationError):
    """A window's interior does not induce a connected subgraph."""


class NumericalError(GraphCalcError):
    """Computation failed for numerical reasons; exit code 2 in the CLI."""


class NonpositiveSpectrumError(NumericalError):
    """Green function requested but the operator has a nonpositive eigenvalue."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"eigenvalue {index} is {value:.17g} <= 0; operator is not invertible "
            "on the positive cone"
        )


class IndefiniteStepError(NumericalError):
    """Implicit minimizing-movement step matrix is not positive definite."""


class AntipodalPointsError(NumericalError):
    """Sphere logarithm requested between antipodal points."""
