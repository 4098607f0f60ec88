"""JSON codecs for every value the command line reads or writes.

Printing followed by parsing is the identity on canonical values, and
printing is deterministic: keys are sorted and all orderings are the
canonical ones chosen by the constructing modules.  Parsing is strict:
lists must be JSON arrays, vertex and edge ids distinct JSON strings,
and angles fraction strings or integers.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import MalformedHullError, NotAMaximalTailError, excerpt
from .graph import Cycle, DirectedGraph

# circle, lattice and tails are imported by the codecs that use them, so
# reading and writing a graph loads none of them (nor ``fractions``)
if TYPE_CHECKING:
    from .circle import ClosedCircleSet, OpenCircleSet
    from .lattice import Hull, IdealPair, PrimitiveIdeal
    from .tails import MaximalTail


def canonical_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def _ids(value, what: str) -> list:
    for item in _array(value, what):
        if not isinstance(item, str):
            raise ValueError(f"{what} holds {excerpt(repr(item))}, but ids must be JSON strings")
    return value


def _angle(value, what: str = "angle"):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{what} {excerpt(repr(value))} must be a fraction string or an integer")
    return value


def _arcs(value, kind: str) -> list:
    arcs = []
    for arc in _array(value, f"{kind} arcs"):
        a, b = _array(arc, f"{kind} arc")
        arcs.append((_angle(a, f"{kind} arc endpoint"), _angle(b, f"{kind} arc endpoint")))
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
        raise ValueError("graph JSON must be an object")
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(entry, dict) and {"id", "src", "rng"} <= entry.keys() for entry in edges
    ):
        raise ValueError("'edges' must be an array of objects with 'id', 'src' and 'rng' fields")
    rows = [_ids([entry["id"], entry["src"], entry["rng"]], "an edge") for entry in edges]
    vertices = _ids(data.get("vertices", []), "'vertices'")
    seen = set()
    for v in vertices:
        if v in seen:
            raise ValueError(f"duplicate vertex id {excerpt(repr(v))}")
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
        raise ValueError("open circle set JSON must be 'full', 'empty' or arcs")
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
        raise ValueError(
            "closed circle set JSON must be 'full', 'empty' or an object"
        )
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
        raise ValueError("a maximal tail must be an object with a 'vertices' field")
    tail = classify_tail(graph, _ids(data["vertices"], "a tail's 'vertices'"))
    shown = excerpt(str(data["vertices"]))
    declared_kind = data.get("kind")
    if declared_kind is not None and declared_kind != tail.kind:
        kind = excerpt(str(declared_kind))
        raise ValueError(f"tail {shown} is {tail.kind}, not {kind}")
    declared_cycle = data.get("cycle")
    if declared_cycle is not None and Cycle(
        tuple(_ids(declared_cycle, "a tail's 'cycle'"))
    ) != tail.cycle:
        raise ValueError(f"tail {shown} has cycle {tail.cycle}")
    declared_period = data.get("period")
    if declared_period is None:
        return tail
    if isinstance(declared_period, bool) or not isinstance(declared_period, int):
        period = excerpt(repr(declared_period))
        raise ValueError(f"a tail's 'period' {period} must be a JSON integer")
    if declared_period != tail.period:
        raise ValueError(f"tail {shown} has period {tail.period}")
    return tail


def prim_to_json(prim: PrimitiveIdeal) -> dict:
    from .circle import format_angle

    return {"tail": tail_to_json(prim.tail), "z": format_angle(prim.angle)}


def prim_from_json(graph: DirectedGraph, data) -> PrimitiveIdeal:
    from .lattice import PrimitiveIdeal

    if not isinstance(data, dict) or not {"tail", "z"} <= data.keys():
        raise ValueError(
            "a primitive ideal must be an object with 'tail' and 'z' fields"
        )
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
        raise ValueError("an ideal pair must be an object with 'H' and 'U' fields")
    assignment = []
    for entry in _array(data.get("U", []), "'U'"):
        if not isinstance(entry, dict) or not {"cycle", "set"} <= entry.keys():
            raise ValueError(
                "each 'U' entry must be an object with 'cycle' and 'set' fields"
            )
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


def report_to_json(report) -> dict:
    return {
        "pass": report.passed,
        "checked": report.checked,
        "mismatches": list(report.mismatches),
    }
