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
    cycle_vertices,
    entrance_free_cycles,
    reachable_ranges,
)
from .record import Record, set_field


class MaximalTail(Record):
    """A maximal tail together with its classification.

    ``cycle`` is the unique entrance-free cycle inside the tail when one
    exists (the cyclic case, ``period`` is its length) and ``None``
    otherwise (the aperiodic case, ``period`` is zero).
    """

    __slots__ = ("vertices", "cycle", "period")

    def __init__(self, vertices: frozenset, cycle: Cycle | None, period: int):
        set_field(self, "vertices", vertices)
        set_field(self, "cycle", cycle)
        set_field(self, "period", period)

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
    """Wrap a maximal tail as cyclic or aperiodic.

    A maximal tail carries at most one entrance-free cycle up to
    rotation; finding more than one means the input was not a maximal
    tail after all or an enumeration bug, so it trips an internal error.
    """
    tail = _vertex_subset(graph, subset)
    if not is_maximal_tail(graph, tail):
        raise NotAMaximalTailError(f"{sorted(tail)} is not a maximal tail")
    cycles = entrance_free_cycles(graph, tail)
    if not cycles:
        return MaximalTail(tail, None, 0)
    if len(cycles) > 1:
        raise InternalInvariantViolation(
            f"maximal tail {sorted(tail)} has {len(cycles)} entrance-free cycles"
        )
    return MaximalTail(tail, cycles[0], len(cycles[0]))


def strongly_connected_components(graph: DirectedGraph) -> list[frozenset]:
    """Tarjan's algorithm, iteratively, in deterministic vertex order."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]
    successors = {
        v: sorted({graph.rng(e) for e in graph.out_edges(v)})
        for v in graph.vertices
    }

    def visit(root: str) -> None:
        work = [(root, 0)]
        while work:
            v, pointer = work.pop()
            if pointer == 0:
                index[v] = lowlink[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pointer, len(successors[v])):
                w = successors[v][i]
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                component = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    for v in graph.vertices:
        if v not in index:
            visit(v)
    return components


def _has_internal_edge(graph: DirectedGraph, component: frozenset) -> bool:
    return any(
        src in component and rng in component for src, rng in graph.edges.values()
    )


def enumerate_maximal_tails(graph: DirectedGraph) -> list[MaximalTail]:
    """All maximal tails, sorted by size then vertex ids.

    Assumes a validated (finite, nonempty, source-free) graph.
    """
    seen = set()
    tails = []
    for component in strongly_connected_components(graph):
        if not _has_internal_edge(graph, component):
            continue
        vertices = reachable_ranges(graph, component)
        if vertices in seen:
            continue
        seen.add(vertices)
        tails.append(classify_tail(graph, vertices))
    return sorted(tails, key=tail_sort_key)


def tail_of_cycle(graph: DirectedGraph, cycle) -> MaximalTail:
    """The maximal tail generated by a cycle (or edge sequence): everything it reaches."""
    edge_ids = cycle.edges if isinstance(cycle, Cycle) else cycle
    checked = cycle_from_edges(graph, edge_ids)
    vertices = reachable_ranges(graph, cycle_vertices(graph, checked))
    return classify_tail(graph, vertices)
