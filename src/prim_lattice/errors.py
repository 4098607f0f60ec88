"""Exception types shared across the package."""


def excerpt(text: str) -> str:
    """``text`` cut to 120 characters, for echoing input in an error line."""
    return text if len(text) <= 120 else text[:117] + "..."


class GraphAlgebraError(ValueError):
    """Base class for every domain error raised by this package: bad input."""


class EmptyGraphError(GraphAlgebraError):
    """The graph has no vertices."""


class SourceVertexError(GraphAlgebraError):
    """A vertex receives no edge, violating the source-free requirement."""

    def __init__(self, vertex):
        super().__init__(f"vertex {excerpt(repr(vertex))} has no incoming edge")
        self.vertex = vertex


class DanglingEndpointError(GraphAlgebraError):
    """An edge references a vertex that was never declared."""

    def __init__(self, edge):
        super().__init__(f"edge {excerpt(repr(edge))} references an undeclared vertex")
        self.edge = edge


class UnknownVertexError(GraphAlgebraError):
    """An operation was asked about a vertex the graph does not declare."""

    def __init__(self, vertex):
        super().__init__(f"unknown vertex {excerpt(repr(vertex))}")
        self.vertex = vertex


class NotACycleError(GraphAlgebraError):
    """The edge sequence does not form a cycle of the graph."""


class NotAMaximalTailError(GraphAlgebraError):
    """The vertex set fails one of the maximal-tail axioms."""


class MalformedHullError(GraphAlgebraError):
    """A hull entry does not describe a maximal tail of the graph."""


class TooLargeError(GraphAlgebraError):
    """The instance exceeds the size guard of a brute-force routine."""


class InternalInvariantViolation(Exception):
    """A condition the underlying theory rules out was observed at runtime.

    These are deliberate tripwires: if one fires, either the input was
    malformed in a way the validators missed, or an implementation bug
    broke a derivation this package relies on.  Either way it is a bug
    here, not a domain error, so it is no :class:`GraphAlgebraError`.
    """
