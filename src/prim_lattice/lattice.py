"""The ideal lattice of a finite source-free graph in symbolic form.

Closed two-sided ideals correspond to pairs: a saturated hereditary
vertex set together with a proper open circle set for every
entrance-free cycle of the complement.  Primitive ideals correspond to
pairs (maximal tail, circle point), with the point pinned to angle zero
on aperiodic tails.  The functions here move between those coordinate
systems and compute order, meets, joins, hulls and closures exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .circle import ClosedCircleSet, OpenCircleSet, as_angle, finite_closed_set, punctured_circle
from .errors import (
    GraphAlgebraError, InternalInvariantViolation, MalformedHullError, NotAMaximalTailError,
    excerpt,
)
from .graph import (
    Cycle,
    DirectedGraph,
    _saturation_fixpoint,
    _vertex_subset,
    cycle_base,
    cycle_from_edges,
    is_saturated_hereditary,
    saturated_hereditary_closure,
)
from .record import Record, set_field
from .tails import (
    MaximalTail,
    classify_tail,
    cycle_index,
    cycles_outside,
    enumerate_maximal_tails,
    tail_sort_key,
)

class PrimitiveIdeal(Record):
    """A primitive ideal: a maximal tail plus a point of the circle.

    ``angle`` parameterises the point as a fraction of a full turn.  An
    aperiodic tail carries a single primitive ideal, so its angle must
    be zero.
    """

    __slots__ = ("tail", "angle")

    def __init__(self, tail: MaximalTail, angle: Fraction):
        theta = as_angle(angle)
        if not tail.is_cyclic and theta != 0:
            raise GraphAlgebraError("an aperiodic tail admits only the angle-zero ideal")
        set_field(self, "tail", tail)
        set_field(self, "angle", theta)


class IdealPair(Record):
    """Symbolic coordinates of a closed two-sided ideal.

    ``vertices`` is the saturated hereditary set of vertices whose
    projections the ideal contains.  ``cycle_sets`` assigns to every
    entrance-free cycle of the complement a proper open circle set,
    stored sorted by cycle for canonical equality.  Build instances from
    outside input with :func:`ideal_pair`, which validates against a
    graph; the operations below build their results directly, in the
    sorted cycle order that :func:`.tails.cycles_outside` returns.
    """

    __slots__ = ("vertices", "cycle_sets")

    def __init__(self, vertices: frozenset, cycle_sets: tuple):
        set_field(self, "vertices", vertices)
        set_field(self, "cycle_sets", cycle_sets)

    @property
    def assignment(self) -> dict:
        return dict(self.cycle_sets)

    def open_set(self, cycle: Cycle) -> OpenCircleSet:
        for key, value in self.cycle_sets:
            if key == cycle:
                return value
        raise KeyError(cycle)

    def constrains(self, cycle: Cycle) -> bool:
        return any(key == cycle for key, _ in self.cycle_sets)


def ideal_pair(graph: DirectedGraph, vertices: Iterable, assignment) -> IdealPair:
    """Validate and canonicalise an ideal pair for ``graph``.

    ``assignment`` maps cycles, or edge-id sequences that must be cycles
    of ``graph``, to open circle sets; its keys must be exactly the
    entrance-free cycles of the complement of ``vertices``, its values proper.
    """
    inside = _vertex_subset(graph, vertices)
    if not is_saturated_hereditary(graph, inside):
        raise GraphAlgebraError(f"{excerpt(str(sorted(inside)))} is not saturated hereditary")
    keyed = {}
    items = assignment.items() if isinstance(assignment, dict) else assignment
    for cycle, value in items:
        if not isinstance(cycle, Cycle):
            cycle = cycle_from_edges(graph, cycle)
        if cycle in keyed:
            raise GraphAlgebraError(f"cycle {excerpt(str(cycle.edges))} assigned twice")
        keyed[cycle] = value
    expected = cycles_outside(graph, inside)
    if set(keyed) != set(expected):
        shown = excerpt(f"expected {[c.edges for c in expected]}, got {[c.edges for c in keyed]}")
        raise GraphAlgebraError(
            f"assignment keys must be exactly the entrance-free cycles of the complement: {shown}"
        )
    for cycle, value in keyed.items():
        if not isinstance(value, OpenCircleSet):
            raise GraphAlgebraError(f"cycle {excerpt(str(cycle.edges))} needs an open circle set")
        if not value.is_proper():
            raise GraphAlgebraError(f"cycle {excerpt(str(cycle.edges))} carries the full circle")
    ordered = tuple(sorted(keyed.items(), key=lambda kv: kv[0].edges))
    return IdealPair(inside, ordered)


def zero_ideal(graph: DirectedGraph) -> IdealPair:
    """The zero ideal: no vertices, every cycle set empty."""
    cycles = cycles_outside(graph, frozenset())
    return IdealPair(frozenset(), tuple((c, OpenCircleSet.empty()) for c in cycles))


def improper_ideal(graph: DirectedGraph) -> IdealPair:
    """The whole algebra: every vertex, nothing left to constrain."""
    return IdealPair(frozenset(graph.vertices), ())


def gauge_ideal(graph: DirectedGraph, vertices: Iterable) -> IdealPair:
    """The gauge-invariant ideal generated by a saturated hereditary set."""
    inside = _vertex_subset(graph, vertices)
    cycles = cycles_outside(graph, inside)
    return ideal_pair(graph, inside, {c: OpenCircleSet.empty() for c in cycles})


def is_gauge_invariant(pair: IdealPair) -> bool:
    return all(value.is_empty() for _, value in pair.cycle_sets)


def prim_to_pair(graph: DirectedGraph, prim: PrimitiveIdeal) -> IdealPair:
    """The ideal pair of a primitive ideal.

    The vertex part is the complement of the tail.  A cyclic tail leaves
    exactly one entrance-free cycle in the complement's complement,
    namely its own, which is sent to the circle minus the given point;
    an aperiodic tail leaves none.
    """
    tail = prim.tail
    complement = frozenset(graph.vertices) - tail.vertices
    cycles = cycles_outside(graph, complement)
    if tail.is_cyclic:
        if cycles != [tail.cycle]:
            raise InternalInvariantViolation(
                f"tail {sorted(tail.vertices)} should leave exactly its own "
                f"cycle entrance-free, found {[c.edges for c in cycles]}"
            )
        cycle_sets = ((tail.cycle, punctured_circle(prim.angle)),)
    else:
        if cycles:
            raise InternalInvariantViolation(
                f"aperiodic tail {sorted(tail.vertices)} has entrance-free "
                f"cycles {[c.edges for c in cycles]}"
            )
        cycle_sets = ()
    return IdealPair(complement, cycle_sets)


def as_primitive(graph: DirectedGraph, pair: IdealPair) -> PrimitiveIdeal | None:
    """Recognise a pair as primitive, or return ``None``.

    A pair is primitive exactly when the complement of its vertex set is
    a maximal tail and the cycle data has the shape produced by
    :func:`prim_to_pair`.
    """
    try:
        tail = classify_tail(graph, frozenset(graph.vertices) - pair.vertices)
    except NotAMaximalTailError:
        return None
    if not tail.is_cyclic:
        return None if pair.cycle_sets else PrimitiveIdeal(tail, Fraction(0))
    if not pair.constrains(tail.cycle):
        return None
    removed = pair.open_set(tail.cycle).complement()
    if removed.arcs or len(removed.points) != 1:
        return None
    return PrimitiveIdeal(tail, removed.points[0])


def pair_leq(graph: DirectedGraph, left: IdealPair, right: IdealPair) -> bool:
    """Ideal containment in pair coordinates.

    Requires vertex containment plus circle-set containment on every
    cycle both sides constrain.
    """
    if not left.vertices <= right.vertices:
        return False
    for cycle, value in left.cycle_sets:
        if right.constrains(cycle):
            if not value.is_subset(right.open_set(cycle)):
                return False
    return True


def pair_meet(graph: DirectedGraph, pairs: Sequence[IdealPair]) -> IdealPair:
    """Greatest lower bound of finitely many ideal pairs.

    Vertex parts intersect.  Every entrance-free cycle of the new
    complement is constrained by at least one member, and its set is the
    intersection of the constraining members' sets; a finite
    intersection of open sets is already open, so no interior step is
    needed here.
    """
    if not pairs:
        raise GraphAlgebraError("meet of an empty family is not defined")
    met = frozenset(graph.vertices).intersection(*(pair.vertices for pair in pairs))
    cycle_sets = []
    for cycle in cycles_outside(graph, met):
        members = [pair for pair in pairs if pair.constrains(cycle)]
        if not members:
            raise InternalInvariantViolation(
                f"no member constrains cycle {cycle.edges} in a finite meet"
            )
        value = members[0].open_set(cycle)
        for member in members[1:]:
            value = value.intersect(member.open_set(cycle))
        cycle_sets.append((cycle, value))
    return IdealPair(met, tuple(cycle_sets))


def pair_join(graph: DirectedGraph, pairs: Sequence[IdealPair]) -> IdealPair:
    """Least upper bound of finitely many ideal pairs.

    The vertex parts union up and close; any cycle of the intermediate
    complement whose member sets jointly cover the whole circle promotes
    its vertices into the set, and if any did the closure is taken
    again.  On the surviving cycles the sets union up and stay proper.
    """
    if not pairs:
        raise GraphAlgebraError("join of an empty family is not defined")
    pooled = frozenset().union(*(pair.vertices for pair in pairs))
    # a union of saturated hereditary sets is hereditary: only saturate it
    base = _saturation_fixpoint(graph, pooled)

    def pooled_set(cycle: Cycle) -> OpenCircleSet:
        value = OpenCircleSet.empty()
        for pair in pairs:
            if pair.constrains(cycle):
                value = value.union(pair.open_set(cycle))
        return value

    promoted = set()
    cycle_sets = []
    for cycle in cycles_outside(graph, base):
        value = pooled_set(cycle)
        if value.is_full:
            promoted.add(cycle_base(graph, cycle))
        cycle_sets.append((cycle, value))
    if not promoted:
        # nothing moved: the closure of ``base`` is ``base`` with the same cycles
        return IdealPair(base, tuple(cycle_sets))
    joined = saturated_hereditary_closure(graph, base | promoted)
    cycle_sets = []
    for cycle in cycles_outside(graph, joined):
        value = pooled_set(cycle)
        if value.is_full:
            raise InternalInvariantViolation(
                f"cycle {cycle.edges} kept a full circle set after promotion"
            )
        cycle_sets.append((cycle, value))
    return IdealPair(joined, tuple(cycle_sets))


def contained_in_prim(graph: DirectedGraph, pair: IdealPair, prim: PrimitiveIdeal) -> bool:
    """Whether the ideal of ``pair`` lies inside the primitive ideal.

    The vertex set must avoid the tail, and if the tail is cyclic with
    its cycle constrained by ``pair``, the point must avoid that set.
    """
    if pair.vertices & prim.tail.vertices:
        return False
    tail = prim.tail
    if tail.is_cyclic and pair.constrains(tail.cycle):
        return not pair.open_set(tail.cycle).contains(prim.angle)
    return True


def closure_contains(
    graph: DirectedGraph, prims: Sequence[PrimitiveIdeal], target: PrimitiveIdeal
) -> bool:
    """Whether ``target`` lies in the closure of a set of primitives.

    The target tail must be covered by the union of the tails, and when
    the target tail is cyclic with its cycle entrance-free in that
    union, the target point must lie in the closure of the points
    attached to the same tail.
    """
    covered = frozenset()
    for prim in prims:
        covered |= prim.tail.vertices
    if not target.tail.vertices <= covered:
        return False
    tail = target.tail
    # the tail lies in ``covered``, so its cycle is entrance-free there
    # exactly when none of the cycle's entries is covered
    if tail.is_cyclic and cycle_index(graph).entries[tail.cycle].isdisjoint(covered):
        points = finite_closed_set(
            prim.angle for prim in prims if prim.tail == tail
        )
        return points.contains(target.angle)
    return True


class HullEntry(Record):
    """One stratum of a hull: a tail and its allowed circle points."""

    __slots__ = ("tail", "allowed")

    def __init__(self, tail: MaximalTail, allowed: ClosedCircleSet):
        set_field(self, "tail", tail)
        set_field(self, "allowed", allowed)


class Hull(Record):
    """The primitive ideals containing a given ideal, stratified by tail.

    Entries carry, for each maximal tail disjoint from the ideal's
    vertex set, the closed set of angles whose primitive ideal contains
    the ideal.  Aperiodic strata use the single sentinel angle zero.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        set_field(self, "entries", entries)


def hull(graph: DirectedGraph, pair: IdealPair) -> Hull:
    """The hull of an ideal: every primitive ideal containing it."""
    entries = []
    for tail in enumerate_maximal_tails(graph):
        if tail.vertices & pair.vertices:
            continue
        if not tail.is_cyclic:
            allowed = finite_closed_set([Fraction(0)])
        elif pair.constrains(tail.cycle):
            allowed = pair.open_set(tail.cycle).complement()
        else:
            allowed = ClosedCircleSet.full()
        entries.append(HullEntry(tail, allowed))
    return Hull(tuple(sorted(entries, key=lambda e: tail_sort_key(e.tail))))


def hull_to_pair(graph: DirectedGraph, shape: Hull) -> IdealPair:
    """Rebuild the ideal pair whose hull is ``shape``.

    The vertex part is the complement of the union of the entry tails.
    Each entrance-free cycle of that union gets the complement of the
    allowed set of its stratum.  That stratum is the entry whose own
    cycle it is: the cycle lies in some entry tail, which is forward
    closed, and is entrance-free there too, and a maximal tail has only
    one such cycle.
    """
    tails = {tail.vertices: tail for tail in enumerate_maximal_tails(graph)}
    strata = {}
    for entry in shape.entries:
        vertices = entry.tail.vertices
        if tails.get(vertices) != entry.tail:
            raise MalformedHullError(f"{sorted(vertices)} is not a maximal tail of the graph")
        if vertices in strata:
            raise MalformedHullError(f"duplicate stratum for tail {sorted(vertices)}")
        strata[vertices] = entry
    uncovered = frozenset(graph.vertices).difference(*strata)
    # aperiodic strata sit under the key None, which no cycle equals
    own = {entry.tail.cycle: entry for entry in strata.values()}
    cycle_sets = []
    for cycle in cycles_outside(graph, uncovered):
        if cycle not in own:
            raise InternalInvariantViolation(
                f"entrance-free cycle {cycle.edges} of a hull is no stratum's own cycle"
            )
        value = own[cycle].allowed.complement()
        if value.is_full:
            raise MalformedHullError(
                f"stratum {sorted(own[cycle].tail.vertices)} allows no point of its cycle"
            )
        cycle_sets.append((cycle, value))
    return IdealPair(uncovered, tuple(cycle_sets))


def meet_of_primitives(
    graph: DirectedGraph, prims: Sequence[PrimitiveIdeal]
) -> IdealPair:
    """The intersection of finitely many primitive ideals (see :func:`pair_meet`)."""
    return pair_meet(graph, [prim_to_pair(graph, prim) for prim in prims])
