"""JSON codecs for every value the command line reads or writes.

Printing followed by parsing is the identity on canonical values, and
printing is deterministic: keys are sorted and all orderings are the
canonical ones chosen by the constructing modules.  Parsing is strict:
lists must be JSON arrays, vertex and edge ids distinct JSON strings,
angles fraction strings or integers, and an object may hold no key its
reader does not know.
"""

from __future__ import annotations

import json

from .errors import GraphAlgebraError, MalformedHullError, NotAMaximalTailError, excerpt
from .graph import DirectedGraph, cycle_from_edges

# circle, lattice and tails are imported by the codecs that use them, so
# reading and writing a graph loads none of them (nor ``fractions``);
# ``typing.TYPE_CHECKING`` without importing ``typing`` at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .circle import ClosedCircleSet, OpenCircleSet
    from .lattice import Hull, IdealPair, PrimitiveIdeal
    from .tails import MaximalTail


def canonical_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise GraphAlgebraError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def _keys(data: dict, known: tuple, what: str) -> None:
    """Reject the first key of ``data`` that is not in ``known``."""
    for key in data:
        if key not in known:
            raise GraphAlgebraError(f"{what} has an unknown key {excerpt(repr(key))}")


def _ids(value, what: str) -> list:
    for item in _array(value, what):
        if not isinstance(item, str):
            shown = excerpt(repr(item))
            raise GraphAlgebraError(f"{what} holds {shown}, but ids must be JSON strings")
    return value


def _angle(value, what: str = "angle"):
    from .circle import _FRACTION

    if type(value) is int or isinstance(value, str) and _FRACTION.fullmatch(value):
        return value
    form = " (as '-1/2' or '3', at most 4000 digits a number)" if isinstance(value, str) else ""
    shown = excerpt(repr(value))
    raise GraphAlgebraError(f"{what} {shown} must be a fraction string or an integer{form}")


def _arcs(value, kind: str) -> list:
    arcs = []
    for arc in _array(value, f"{kind} arcs"):
        if len(_array(arc, f"{kind} arc")) != 2:
            raise GraphAlgebraError(f"{kind} arc {excerpt(repr(arc))} must have two endpoints")
        arcs.append(tuple(_angle(end, f"{kind} arc endpoint") for end in arc))
    return arcs


def graph_to_json(graph: DirectedGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": eid, "src": src, "rng": rng}
            for eid, (src, rng) in sorted(graph.edges.items())
        ],
    }


def graph_from_json(data) -> DirectedGraph:
    if not isinstance(data, dict):
        raise GraphAlgebraError("graph JSON must be an object")
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(entry, dict) and {"id", "src", "rng"} <= entry.keys() for entry in edges
    ):
        raise GraphAlgebraError(
            "'edges' must be an array of objects with 'id', 'src' and 'rng' fields"
        )
    _keys(data, ("vertices", "edges"), "graph JSON")
    rows = []
    for entry in edges:
        _keys(entry, ("id", "src", "rng"), "an edge")
        rows.append(_ids([entry["id"], entry["src"], entry["rng"]], "an edge"))
    vertices = _ids(data.get("vertices", []), "'vertices'")
    seen = set()
    for v in vertices:
        if v in seen:
            raise GraphAlgebraError(f"duplicate vertex id {excerpt(repr(v))}")
        seen.add(v)
    return DirectedGraph(vertices, rows)


def open_set_to_json(value: OpenCircleSet):
    from .circle import format_angle

    if value.is_full:
        return "full"
    if value.is_empty():
        return "empty"
    return [[format_angle(a), format_angle(b)] for a, b in value.arcs]


def open_set_from_json(data) -> OpenCircleSet:
    from .circle import OpenCircleSet

    if data == "full":
        return OpenCircleSet.full()
    if data == "empty":
        return OpenCircleSet.empty()
    if not isinstance(data, list):
        raise GraphAlgebraError("open circle set JSON must be 'full', 'empty' or arcs")
    return OpenCircleSet.from_arcs(_arcs(data, "open"))


def closed_set_to_json(value: ClosedCircleSet):
    from .circle import format_angle

    if value.is_full:
        return "full"
    if value.is_empty():
        return "empty"
    return {
        "arcs": [[format_angle(a), format_angle(b)] for a, b in value.arcs],
        "points": [format_angle(p) for p in value.points],
    }


def closed_set_from_json(data) -> ClosedCircleSet:
    from .circle import ClosedCircleSet

    if data == "full":
        return ClosedCircleSet.full()
    if data == "empty":
        return ClosedCircleSet.empty()
    if not isinstance(data, dict):
        raise GraphAlgebraError("closed circle set JSON must be 'full', 'empty' or an object")
    _keys(data, ("arcs", "points"), "a closed circle set")
    arcs = tuple(_arcs(data.get("arcs", []), "closed"))
    points = tuple(_angle(p) for p in _array(data.get("points", []), "'points'"))
    return ClosedCircleSet(arcs, points)


def tail_to_json(tail: MaximalTail) -> dict:
    return {
        "vertices": sorted(tail.vertices),
        "kind": tail.kind,
        "cycle": list(tail.cycle.edges) if tail.is_cyclic else None,
        "period": tail.period,
    }


def tail_from_json(graph: DirectedGraph, data) -> MaximalTail:
    from .tails import classify_tail

    if not isinstance(data, dict) or "vertices" not in data:
        raise GraphAlgebraError("a maximal tail must be an object with a 'vertices' field")
    _keys(data, ("vertices", "kind", "cycle", "period"), "a maximal tail")
    tail = classify_tail(graph, _ids(data["vertices"], "a tail's 'vertices'"))
    shown = excerpt(str(data["vertices"]))
    declared_kind = data.get("kind")
    if declared_kind is not None and declared_kind != tail.kind:
        kind = excerpt(str(declared_kind))
        raise GraphAlgebraError(f"tail {shown} is {tail.kind}, not {kind}")
    declared_cycle = data.get("cycle")
    if declared_cycle is not None and cycle_from_edges(
        graph, _ids(declared_cycle, "a tail's 'cycle'")
    ) != tail.cycle:
        own = None if tail.cycle is None else tail.cycle.edges
        raise GraphAlgebraError(f"tail {shown} has cycle {excerpt(str(own))}")
    declared_period = data.get("period")
    if declared_period is None:
        return tail
    if isinstance(declared_period, bool) or not isinstance(declared_period, int):
        period = excerpt(repr(declared_period))
        raise GraphAlgebraError(f"a tail's 'period' {period} must be a JSON integer")
    if declared_period != tail.period:
        raise GraphAlgebraError(f"tail {shown} has period {tail.period}")
    return tail


def prim_to_json(prim: PrimitiveIdeal) -> dict:
    from .circle import format_angle

    return {"tail": tail_to_json(prim.tail), "z": format_angle(prim.angle)}


def prim_from_json(graph: DirectedGraph, data) -> PrimitiveIdeal:
    from .lattice import PrimitiveIdeal

    if not isinstance(data, dict) or not {"tail", "z"} <= data.keys():
        raise GraphAlgebraError("a primitive ideal must be an object with 'tail' and 'z' fields")
    _keys(data, ("tail", "z"), "a primitive ideal")
    return PrimitiveIdeal(tail_from_json(graph, data["tail"]), _angle(data["z"]))


def prims_from_json(graph: DirectedGraph, data) -> list[PrimitiveIdeal]:
    return [prim_from_json(graph, item) for item in _array(data, "a list of primitives")]


def pair_to_json(pair: IdealPair) -> dict:
    return {
        "H": sorted(pair.vertices),
        "U": [
            {"cycle": list(cycle.edges), "set": open_set_to_json(value)}
            for cycle, value in pair.cycle_sets
        ],
    }


def pair_from_json(graph: DirectedGraph, data) -> IdealPair:
    from .lattice import ideal_pair

    if not isinstance(data, dict):
        raise GraphAlgebraError("an ideal pair must be an object with 'H' and 'U' fields")
    _keys(data, ("H", "U"), "an ideal pair")
    assignment = []
    for entry in _array(data.get("U", []), "'U'"):
        if not isinstance(entry, dict) or not {"cycle", "set"} <= entry.keys():
            raise GraphAlgebraError(
                "each 'U' entry must be an object with 'cycle' and 'set' fields"
            )
        _keys(entry, ("cycle", "set"), "a 'U' entry")
        cycle = tuple(_ids(entry["cycle"], "a 'U' entry's 'cycle'"))
        assignment.append((cycle, open_set_from_json(entry["set"])))
    return ideal_pair(graph, _ids(data.get("H", []), "'H'"), assignment)


def pairs_from_json(graph: DirectedGraph, data) -> list[IdealPair]:
    return [pair_from_json(graph, item) for item in _array(data, "a list of ideal pairs")]


def hull_to_json(shape: Hull) -> list:
    return [
        {"tail": tail_to_json(entry.tail), "allowed": closed_set_to_json(entry.allowed)}
        for entry in shape.entries
    ]


def hull_from_json(graph: DirectedGraph, data) -> Hull:
    """Decode a hull, which must be a closed set of primitive ideals.

    A shape is closed exactly when it is the hull of its kernel, so each
    stratum of ``hull(hull_to_pair(shape))`` must be one of the given
    ones.  The closure holds the shape, and lists every tail the shape
    covers once, so that makes the two equal up to order.
    """
    from .lattice import Hull, HullEntry, hull, hull_to_pair

    if not isinstance(data, list):
        raise MalformedHullError("hull JSON must be a list of strata")
    entries = []
    for item in data:
        if not isinstance(item, dict) or not {"tail", "allowed"} <= item.keys():
            raise MalformedHullError(
                "each hull stratum must be an object with 'tail' and 'allowed' fields"
            )
        _keys(item, ("tail", "allowed"), "a hull stratum")
        try:
            tail = tail_from_json(graph, item["tail"])
        except NotAMaximalTailError as err:
            raise MalformedHullError(str(err)) from err
        entries.append(HullEntry(tail, closed_set_from_json(item["allowed"])))
    shape = Hull(tuple(entries))
    given = set(entries)
    for entry in hull(graph, hull_to_pair(graph, shape)).entries:
        if entry not in given:
            tail = excerpt(str(sorted(entry.tail.vertices)))
            raise MalformedHullError(
                f"the strata are not a closed set: the closure changes the stratum of tail {tail}"
            )
    return shape


def strata_to_json(strata) -> list:
    return [{"tail": tail_to_json(tail), "z": note} for tail, note in strata]
