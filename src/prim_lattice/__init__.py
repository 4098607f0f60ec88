"""Exact ideal-lattice calculator for graph algebras of finite graphs.

Given a finite directed graph in which every vertex receives an edge,
this package computes, fully symbolically, the maximal tails, the
primitive-ideal strata, the lattice of closed two-sided ideals in
(vertex set, circle set) coordinates, hulls and topological closures.
All circle arithmetic is over rational angles, so results are exact.
"""

from .circle import (
    Angle,
    ClosedCircleSet,
    OpenCircleSet,
    as_angle,
    finite_closed_set,
    format_angle,
    punctured_circle,
)
from .errors import (
    DanglingEndpointError,
    EmptyGraphError,
    GraphAlgebraError,
    InternalInvariantViolation,
    MalformedHullError,
    NotACycleError,
    NotAMaximalTailError,
    SourceVertexError,
    TooLargeError,
    UnknownVertexError,
)
from .graph import (
    Cycle,
    DirectedGraph,
    cycle_base,
    cycle_from_edges,
    cycle_vertices,
    entrance_free_cycles,
    enumerate_saturated_hereditary,
    hereditary_closure,
    is_entrance_free,
    is_hereditary,
    is_saturated_hereditary,
    reachable_ranges,
    saturated_hereditary_closure,
    validate,
)
from .lattice import (
    STRATUM_CIRCLE,
    STRATUM_POINT,
    Hull,
    HullEntry,
    IdealPair,
    PrimitiveIdeal,
    as_primitive,
    closure_contains,
    contained_in_prim,
    enumerate_primitive_strata,
    gauge_ideal,
    hull,
    hull_to_pair,
    ideal_pair,
    improper_ideal,
    is_gauge_invariant,
    meet_of_primitives,
    pair_join,
    pair_leq,
    pair_meet,
    prim_to_pair,
    zero_ideal,
)
from .tails import (
    MaximalTail,
    classify_tail,
    enumerate_maximal_tails,
    is_maximal_tail,
    strongly_connected_components,
    tail_of_cycle,
    tail_sort_key,
)

# the oracle loads on first use of one of its names, so that importing
# the package (and every command but ``oracle``) stays cheap
_ORACLE_NAMES = {
    "OracleReport",
    "brute_maximal_tails",
    "brute_saturated_hereditary",
    "check_closure_coherence",
    "check_lattice_laws",
    "random_angle",
    "random_graph",
    "random_ideal_pair",
    "random_primitive",
    "random_proper_open_set",
}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Angle",
    "ClosedCircleSet",
    "OpenCircleSet",
    "as_angle",
    "finite_closed_set",
    "format_angle",
    "punctured_circle",
    "DanglingEndpointError",
    "EmptyGraphError",
    "GraphAlgebraError",
    "InternalInvariantViolation",
    "MalformedHullError",
    "NotACycleError",
    "NotAMaximalTailError",
    "SourceVertexError",
    "TooLargeError",
    "UnknownVertexError",
    "Cycle",
    "DirectedGraph",
    "cycle_base",
    "cycle_from_edges",
    "cycle_vertices",
    "entrance_free_cycles",
    "enumerate_saturated_hereditary",
    "hereditary_closure",
    "is_entrance_free",
    "is_hereditary",
    "is_saturated_hereditary",
    "reachable_ranges",
    "saturated_hereditary_closure",
    "validate",
    "STRATUM_CIRCLE",
    "STRATUM_POINT",
    "Hull",
    "HullEntry",
    "IdealPair",
    "PrimitiveIdeal",
    "as_primitive",
    "closure_contains",
    "contained_in_prim",
    "enumerate_primitive_strata",
    "gauge_ideal",
    "hull",
    "hull_to_pair",
    "ideal_pair",
    "improper_ideal",
    "is_gauge_invariant",
    "meet_of_primitives",
    "pair_join",
    "pair_leq",
    "pair_meet",
    "prim_to_pair",
    "zero_ideal",
    "MaximalTail",
    "classify_tail",
    "enumerate_maximal_tails",
    "is_maximal_tail",
    "strongly_connected_components",
    "tail_of_cycle",
    "tail_sort_key",
    "OracleReport",
    "brute_maximal_tails",
    "brute_saturated_hereditary",
    "check_closure_coherence",
    "check_lattice_laws",
    "random_angle",
    "random_graph",
    "random_ideal_pair",
    "random_primitive",
    "random_proper_open_set",
]
