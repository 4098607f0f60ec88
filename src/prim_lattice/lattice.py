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

from .circle import (
    ClosedCircleSet, OpenCircleSet, _entry, _trusted, as_angle, open_union, punctured_circle,
)
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
    _tail_at,
    classify_tail,
    cycle_index,
    cycles_outside,
    enumerate_maximal_tails,
    tail_sort_key,
)

# the allowed set of every aperiodic stratum, angle zero alone: built once, trusted
_ZERO_ONLY = _trusted(ClosedCircleSet, [_entry(Fraction(0), Fraction(0))])


class PrimitiveIdeal(Record):
    """A primitive ideal: a maximal tail plus a point of the circle.

    ``angle`` parameterises the point as a fraction of a full turn.  An
    aperiodic tail carries a single primitive ideal, so its angle must
    be zero.  ``_point`` keeps the angle's numerator and denominator.
    """

    __slots__ = ("tail", "angle", "_point")

    def __init__(self, tail: MaximalTail, angle: Fraction):
        theta = as_angle(angle)
        if not tail.is_cyclic and theta != 0:
            raise GraphAlgebraError("an aperiodic tail admits only the angle-zero ideal")
        set_field(self, "tail", tail)
        set_field(self, "angle", theta)
        set_field(self, "_point", theta.as_integer_ratio())


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
    return IdealPair(inside, tuple((cycle, keyed[cycle]) for cycle in expected))


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
    own = [tail.cycle] if tail.is_cyclic else []
    cycles = cycles_outside(graph, complement)
    if cycles != own:
        raise InternalInvariantViolation(
            f"tail {sorted(tail.vertices)} should leave exactly the entrance-free "
            f"cycles {[c.edges for c in own]}, found {[c.edges for c in cycles]}"
        )
    cycle_sets = tuple((c, punctured_circle(prim.angle)) for c in own)
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
    value = pair.assignment.get(tail.cycle)
    if value is None:
        return None
    removed = value.complement()
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
    bounds = {cycle.edges: value for cycle, value in right.cycle_sets}
    for cycle, value in left.cycle_sets:
        bound = bounds.get(cycle.edges)
        if bound is not None and not value.is_subset(bound):
            return False
    return True


def _member_sets(pairs: Sequence[IdealPair]) -> dict:
    """Each constrained cycle's edges mapped to its members' open sets, in member order."""
    members = {}
    for pair in pairs:
        for cycle, value in pair.cycle_sets:
            members.setdefault(cycle.edges, []).append(value)
    return members


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
    met = pairs[0].vertices.intersection(*(pair.vertices for pair in pairs[1:]))
    members = _member_sets(pairs)
    cycle_sets = []
    for cycle in cycles_outside(graph, met):
        values = members.get(cycle.edges)
        if not values:
            raise InternalInvariantViolation(
                f"no member constrains cycle {cycle.edges} in a finite meet"
            )
        cycle_sets.append((cycle, values[0].intersect(*values[1:])))
    return IdealPair(met, tuple(cycle_sets))


def pair_join(graph: DirectedGraph, pairs: Sequence[IdealPair]) -> IdealPair:
    """Least upper bound of finitely many ideal pairs.

    The vertex parts union up and close; any cycle of the intermediate
    complement whose member sets jointly cover the whole circle promotes
    its vertices into the set, and if any did the closure is taken
    again, once: no cycle it leaves may be covered.  On the surviving
    cycles the sets union up and stay proper.
    """
    if not pairs:
        raise GraphAlgebraError("join of an empty family is not defined")
    pooled = frozenset().union(*(pair.vertices for pair in pairs))
    # a union of saturated hereditary sets is hereditary: only saturate it
    joined = _saturation_fixpoint(graph, pooled)
    members = _member_sets(pairs)
    for promotion in range(2):
        cycles = cycles_outside(graph, joined)
        cycle_sets = [(c, open_union(members.get(c.edges, ()))) for c in cycles]
        full = [cycle for cycle, value in cycle_sets if value.is_full]
        if not full:
            return IdealPair(joined, tuple(cycle_sets))
        if promotion:
            raise InternalInvariantViolation(
                f"cycles {[c.edges for c in full]} kept a full circle set after promotion"
            )
        joined = saturated_hereditary_closure(graph, joined | {cycle_base(graph, c) for c in full})


def contained_in_prim(graph: DirectedGraph, pair: IdealPair, prim: PrimitiveIdeal) -> bool:
    """Whether the ideal of ``pair`` lies inside the primitive ideal.

    The vertex set must avoid the tail, and if the tail is cyclic with
    its cycle constrained by ``pair``, the point must avoid that set.  The
    vertex set, saturated hereditary, avoids the tail exactly when it misses
    the tail's generator: its complement is a union of forward-closed tails.
    """
    index = cycle_index(graph)
    tail = prim.tail
    if index.vertex[index.generator(tail)] in pair.vertices:
        return False
    if tail.cycle is not None:
        key = tail.cycle.edges
        for cycle, value in pair.cycle_sets:
            if cycle.edges == key:
                return not value.contains_point(*prim._point)
    return True


def closure_contains(
    graph: DirectedGraph, prims: Sequence[PrimitiveIdeal], target: PrimitiveIdeal
) -> bool:
    """Whether ``target`` lies in the closure of a set of primitives.

    The target tail must be covered by the union of the tails, and when
    the target tail is cyclic with its cycle entrance-free in that
    union, the target point must lie in the closure of the points
    attached to the same tail.  A maximal tail lies in a union of tails
    exactly when one of them, a *holder*, holds its generator, since a
    tail is forward closed.  A holder generated elsewhere enters the
    target's cycle through an entry, which it holds, and a tail holding an
    entry is a holder.  So the point matters only when every holder is
    the target's own tail, and finitely many points are their own closure.
    """
    index = cycle_index(graph)
    home = index.generator(target.tail)
    vertex, point = index.vertex[home], target._point
    for prim in prims:
        if vertex in prim.tail.vertices:
            if index.generator(prim.tail) != home or prim._point == point:
                return True
    return False


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
    """The hull of an ideal: every primitive ideal containing it.

    A tail's stratum survives when the tail misses the vertex set, which,
    saturated hereditary, it does exactly when it misses the tail's generator
    (see :func:`contained_in_prim`).  So only the surviving tails are built.
    """
    index = cycle_index(graph)
    sets = pair.assignment
    kept = [i for i in index.generators if index.vertex[i] not in pair.vertices]
    entries = []
    for tail in sorted((_tail_at(graph, index, i) for i in kept), key=tail_sort_key):
        if not tail.is_cyclic:
            allowed = _ZERO_ONLY
        elif tail.cycle in sets:
            allowed = sets[tail.cycle].complement()
        else:
            allowed = ClosedCircleSet.full()
        entries.append(HullEntry(tail, allowed))
    # the entries keep the tails' order: by size, then vertex ids
    return Hull(tuple(entries))


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
