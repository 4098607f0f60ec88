"""Exact ideal-lattice calculator for graph algebras of finite graphs.

Given a finite directed graph in which every vertex receives an edge,
this package computes, fully symbolically, the maximal tails, the
primitive-ideal strata, the lattice of closed two-sided ideals in
(vertex set, circle set) coordinates, hulls and topological closures.
All circle arithmetic is over rational angles, so results are exact.
"""

# every public name, by the submodule that defines it.  A submodule is
# imported on first use of one of its names, so ``import prim_lattice``
# loads none of them and each CLI command loads only the ones it runs.
_EXPORTS = {
    "circle": (
        "Angle", "ClosedCircleSet", "OpenCircleSet", "as_angle", "finite_closed_set",
        "format_angle", "punctured_circle",
    ),
    "errors": (
        "DanglingEndpointError", "EmptyGraphError", "GraphAlgebraError",
        "InternalInvariantViolation", "MalformedHullError", "NotACycleError",
        "NotAMaximalTailError", "SourceVertexError", "TooLargeError",
        "UnknownVertexError",
    ),
    "graph": (
        "Cycle", "DirectedGraph", "cycle_base", "cycle_from_edges", "cycle_vertices",
        "entrance_free_cycles", "enumerate_saturated_hereditary", "hereditary_closure",
        "is_entrance_free", "is_hereditary", "is_saturated_hereditary",
        "reachable_ranges", "saturated_hereditary_closure", "saturated_hereditary_lattice",
        "validate",
    ),
    "lattice": (
        "Hull", "HullEntry", "IdealPair", "PrimitiveIdeal", "as_primitive",
        "closure_contains", "contained_in_prim", "gauge_ideal", "hull", "hull_to_pair",
        "ideal_pair", "improper_ideal", "is_gauge_invariant", "meet_of_primitives",
        "pair_join", "pair_leq", "pair_meet", "prim_to_pair", "zero_ideal",
    ),
    "tails": (
        "STRATUM_CIRCLE", "STRATUM_POINT", "MaximalTail", "classify_tail",
        "enumerate_maximal_tails", "enumerate_primitive_strata", "is_maximal_tail",
        "strongly_connected_components", "tail_of_cycle", "tail_sort_key",
    ),
    "oracle": (
        "OracleReport", "brute_maximal_tails", "brute_saturated_hereditary",
        "check_closure_coherence", "check_lattice_laws", "random_angle", "random_graph",
        "random_ideal_pair", "random_primitive", "random_proper_open_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        from importlib import import_module

        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
