"""Maximal tails of a finite graph and their cyclic/aperiodic split.

A maximal tail is a nonempty vertex set that is forward closed, has
every vertex fed from inside, and gives any two of its vertices a
common ancestor inside (length-zero paths count, so a vertex is its own
ancestor).  In a finite source-free graph the tails are exactly the
forward-reachability closures of the strongly connected components that
contain an edge; the enumeration below takes that route and is checked
against direct axiom filtering by the oracle module.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, NotAMaximalTailError
from .graph import (
    Cycle,
    DirectedGraph,
    _vertex_subset,
    cycle_from_edges,
    reachable_ranges,
)
from .record import Record, set_field

STRATUM_CIRCLE = "z ranges over \U0001d54b"
STRATUM_POINT = "z = 1"


class MaximalTail(Record):
    """A maximal tail together with its classification.

    ``cycle`` is the unique entrance-free cycle inside the tail when one
    exists (the cyclic case, ``period`` is its length) and ``None``
    otherwise (the aperiodic case, ``period`` is zero).  ``_home`` is no
    field: the Tarjan position of the generating component, when known.
    """

    __slots__ = ("vertices", "cycle", "period", "_home")

    def __init__(self, vertices: frozenset, cycle: Cycle | None, period: int, _home=None):
        set_field(self, "vertices", vertices)
        set_field(self, "cycle", cycle)
        set_field(self, "period", period)
        set_field(self, "_home", _home)

    @property
    def is_cyclic(self) -> bool:
        return self.cycle is not None

    @property
    def kind(self) -> str:
        return "cyclic" if self.is_cyclic else "aperiodic"


def tail_sort_key(tail: MaximalTail):
    return (len(tail.vertices), tuple(sorted(tail.vertices)))


def is_maximal_tail(graph: DirectedGraph, subset) -> bool:
    """Check the three maximal-tail axioms directly."""
    tail = _vertex_subset(graph, subset)
    if not tail:
        return False
    for src, rng in graph.edges.values():
        if src in tail and rng not in tail:
            return False
    for v in tail:
        if not any(graph.src(e) in tail for e in graph.in_edges(v)):
            return False
    reach = {v: reachable_ranges(graph, frozenset({v})) for v in tail}
    ancestors = {v: frozenset(w for w in tail if v in reach[w]) for v in tail}
    members = sorted(tail)
    for i, v in enumerate(members):
        for w in members[i + 1 :]:
            if not ancestors[v] & ancestors[w]:
                return False
    return True


def classify_tail(graph: DirectedGraph, subset) -> MaximalTail:
    """Check a maximal tail given from outside and wrap it as cyclic or aperiodic.

    A maximal tail is what its generating component reaches, and Tarjan
    emits that component after all it reaches: the set is a maximal tail
    exactly when it is the tail generated at its vertices' highest position.
    """
    tail = _vertex_subset(graph, subset)
    index = cycle_index(graph)
    home = max(map(index.home.__getitem__, tail), default=None)
    if home in index.generators:
        built = _tail_at(graph, index, home)
        if built.vertices == tail:
            return built
    raise NotAMaximalTailError(f"{sorted(tail)} is not a maximal tail")


def strongly_connected_components(graph: DirectedGraph) -> list[frozenset]:
    """Tarjan's algorithm, iteratively, in id order: a component comes after all it reaches."""
    # each vertex's successors not yet tried, in id order
    untried = {v: iter(sorted(set(map(graph.rng, out)))) for v, out in graph._out.items()}
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    for root in graph.vertices:
        if root in index:
            continue
        work = [root]
        while work:
            v = work[-1]
            if v not in index:
                index[v] = lowlink[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            for w in untried[v]:
                if w not in index:
                    work.append(w)
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    lowlink[work[-1]] = min(lowlink[work[-1]], lowlink[v])
                if lowlink[v] == index[v]:
                    component = set()
                    while v not in component:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.add(w)
                    components.append(frozenset(component))
    return components


class CycleIndex:
    """Components in Tarjan order and the cycles that can be entrance-free in
    a forward-closed set.

    Let S be forward closed and C an entrance-free cycle of S.  S holds
    everything C reaches, so a path from anywhere in C's strongly
    connected component back into C runs inside S, and its last edge
    would be an entrance.  So C is a whole component, one in which each
    vertex has exactly one in-edge from inside: a *cycle component*.
    Those depend on the graph alone, and C is entrance-free in S exactly
    when its vertices lie in S and none of its *entries* (the sources of
    its in-edges from outside it) do.

    ``generators`` are the Tarjan positions of the components that hold an
    edge, each generating one maximal tail.  ``home`` maps each vertex to
    its component's position, and ``vertex`` each position to one of its
    component's vertices: a tail, being forward closed, holds another
    exactly when it holds that vertex of the other's generator.
    ``cycle_at`` maps each cycle component's position to its cycle, and
    ``cycles`` lists ``(cycle, vertex, entries)`` for each, sorted by
    cycle, with one of its vertices.  ``entered`` maps each entry to the
    positions in ``cycles`` of the components it enters, in order, and
    ``unentered`` lists those of the components with no entries.
    :func:`build_cycle_index` derives them all, and passes them in this order.
    """

    __slots__ = ("generators", "home", "vertex", "cycle_at", "cycles", "entered", "unentered")

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def generator(self, tail: MaximalTail) -> int:
        """The position of the component that generates ``tail``: the one it keeps,
        or else its vertices' highest, as Tarjan emits a component after all it reaches."""
        home = tail._home
        return max(map(self.home.__getitem__, tail.vertices)) if home is None else home


def build_cycle_index(graph: DirectedGraph) -> CycleIndex:
    """One Tarjan run and one pass over the in-edges: O(V+E) plus sorting."""
    tarjan = strongly_connected_components(graph)
    home = {v: i for i, component in enumerate(tarjan) for v in component}
    edges = graph.edges
    generators = []
    cycle_at = {}
    cycles = []
    for i, component in enumerate(tarjan):
        inner = {v: [e for e in graph._in[v] if home[edges[e][0]] == i] for v in component}
        if any(inner.values()):
            generators.append(i)
        if not all(len(found) == 1 for found in inner.values()):
            continue
        # following the unique inner feeders back from one vertex walks
        # the whole component, since every vertex reaches that one
        start = v = min(component)
        walk = []
        while True:
            walk.append(inner[v][0])
            v = edges[walk[-1]][0]
            if v == start:
                break
        entries = frozenset(
            edges[e][0] for w in component for e in graph._in[w] if home[edges[e][0]] != i
        )
        cycle_at[i] = Cycle(tuple(walk))
        cycles.append((cycle_at[i], start, entries))
    cycles.sort(key=lambda item: item[0].edges)
    entered = {}
    for i, (_, _, entries) in enumerate(cycles):
        for v in entries:
            entered.setdefault(v, []).append(i)
    unentered = [i for i, (_, _, entries) in enumerate(cycles) if not entries]
    vertex = [min(component) for component in tarjan]
    return CycleIndex(generators, home, vertex, cycle_at, cycles, entered, unentered)


def cycle_index(graph: DirectedGraph) -> CycleIndex:
    """The graph's :class:`CycleIndex`, built on first use and kept on the graph."""
    index = graph._cycle_index
    if index is None:
        index = graph._cycle_index = build_cycle_index(graph)
    return index


def cycles_outside(graph: DirectedGraph, hereditary: frozenset) -> list[Cycle]:
    """The entrance-free cycles of the complement of a hereditary set, sorted.

    The same list as ``entrance_free_cycles(graph, V - hereditary)``,
    read off the index.  The complement is forward closed, and a cycle
    component with one vertex outside ``hereditary`` lies wholly outside
    it.  A component qualifies when ``hereditary`` holds all its entries,
    so only the unentered components and those its members enter are
    looked at: O(|hereditary| + components entered + answer), however
    large the graph.  An unentered component lies inside or is an answer.
    """
    index = cycle_index(graph)
    cycles, entered = index.cycles, index.entered
    # each component entered from inside counts down its entries not yet met
    unmet = {}
    for v in hereditary:
        if v in entered:
            for i in entered[v]:
                unmet[i] = unmet.get(i, len(cycles[i][2])) - 1
    found = [i for i, left in unmet.items() if not left] + index.unentered
    return [cycles[i][0] for i in sorted(found) if cycles[i][1] not in hereditary]


def _tail_at(graph: DirectedGraph, index: CycleIndex, position: int) -> MaximalTail:
    """The maximal tail generated at ``position``, one of ``index.generators``, which
    it keeps, with the component's cycle if that is a cycle component.  Every maximal
    tail is built here and checked against the axioms: a failure is a bug, not bad input."""
    vertices = reachable_ranges(graph, (index.vertex[position],))
    if not is_maximal_tail(graph, vertices):
        raise InternalInvariantViolation(f"the component at position {position} spans no tail")
    cycle = index.cycle_at.get(position)
    return MaximalTail(vertices, cycle, 0 if cycle is None else len(cycle), position)


def enumerate_maximal_tails(graph: DirectedGraph) -> list[MaximalTail]:
    """All maximal tails, sorted by size then vertex ids: one per component with
    an edge, as two components with the same forward closure reach each other
    and so coincide."""
    index = cycle_index(graph)
    return sorted((_tail_at(graph, index, i) for i in index.generators), key=tail_sort_key)


def enumerate_primitive_strata(graph: DirectedGraph) -> list[tuple[MaximalTail, str]]:
    """One entry per maximal tail, annotated with its circle parameter."""
    tails = enumerate_maximal_tails(graph)
    return [(t, STRATUM_CIRCLE if t.is_cyclic else STRATUM_POINT) for t in tails]


def tail_of_cycle(graph: DirectedGraph, cycle) -> MaximalTail:
    """The maximal tail generated by a cycle (or edge sequence): everything it reaches."""
    checked = cycle_from_edges(graph, cycle.edges if isinstance(cycle, Cycle) else cycle)
    index = cycle_index(graph)
    return _tail_at(graph, index, index.home[graph.src(checked.edges[0])])
