"""Exception types shared across the package."""


class HamqaoaError(Exception):
    """Base class for all package errors."""


class MalformedInput(HamqaoaError):
    """Input file or string does not match the documented format."""


class InvalidOrder(HamqaoaError):
    """Graph has fewer than 3 vertices; the cycle encoding needs n >= 3."""


class EndpointOutOfRange(HamqaoaError):
    """An edge endpoint is outside 1..n."""


class IndexOutOfRange(HamqaoaError):
    """Vertex/position pair has no qubit (row or column fixed by convention)."""


class LengthMismatch(HamqaoaError):
    """Assignment string length does not match the expected qubit count."""


class NonPositiveWeight(HamqaoaError):
    """Penalty weight must be positive."""


class UnmappedVariable(HamqaoaError):
    """QUBO variable falls outside the (n-1)^2 qubit block."""


class TooManyQubits(HamqaoaError):
    """Requested state space exceeds the configured qubit cap."""


class UnboundParameter(HamqaoaError):
    """Circuit still contains symbolic angles."""


class DimensionMismatch(HamqaoaError):
    """State and operator act on different numbers of qubits."""


class ArityMismatch(HamqaoaError):
    """Parameter vector length does not match the number of layers."""


class EmptyModel(HamqaoaError):
    """Cannot build an ansatz for a model with no qubits."""
