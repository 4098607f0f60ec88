"""Finite directed graphs and their hereditary/saturation combinatorics.

Conventions used throughout the package:

* Vertex and edge ids are opaque strings.  Every ordering that appears in
  a result is lexicographic on ids, so identical inputs give identical
  outputs.
* An edge ``e`` runs from its source ``s(e)`` to its range ``r(e)``, and
  "forward" reachability always means travelling from source to range.
* Paths compose right to left: in a path ``e_1 ... e_n`` each junction
  satisfies ``s(e_i) = r(e_{i+1})``, so the path as a whole has range
  ``r(e_1)`` and source ``s(e_n)``.  A cycle additionally closes up,
  ``r(e_1) = s(e_n)``, and never revisits a vertex.

A vertex set is *hereditary* when pulling any edge back stays inside it
(``r(e)`` in the set forces ``s(e)`` in the set) and *saturated* when a
vertex all of whose feeders lie inside is itself inside.  Complements of
saturated hereditary sets are exactly the vertex sets that are forward
closed and internally fed, which is why these closures drive everything
else in the package.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import total_ordering

from .errors import (
    DanglingEndpointError,
    EmptyGraphError,
    GraphAlgebraError,
    NotACycleError,
    SourceVertexError,
    UnknownVertexError,
    excerpt,
)
from .record import Record, set_field


class DirectedGraph:
    """A finite directed graph with named edges.

    ``edges`` may be a mapping ``id -> (source, range)`` or an iterable of
    ``(id, source, range)`` triples, all ids strings.  Instances are immutable
    by convention, and all derived data but the lazy cycle index of :mod:`.tails`
    is precomputed.  Construction rejects other ids; then ``_fill``, the one table
    builder, which the JSON reader shares, rejects a short row and a duplicate edge
    id, in id order, and runs :func:`validate`: nonempty, no dangling endpoint or source.
    """

    def __init__(self, vertices: Iterable[str], edges=()) -> None:
        ids = set(_string_ids(vertices, "a graph's vertices"))
        if isinstance(edges, Mapping):
            edges = [(e, *_ordered_ids(ends, "an edge's ends")) for e, ends in edges.items()]
        self._fill(ids, [tuple(_ordered_ids(row, "an edge")) for row in edges])

    def _fill(self, vertices, rows) -> DirectedGraph:
        """Build the tables from distinct string vertex ids and string id rows; return ``self``."""
        self.vertices = tuple(sorted(vertices))
        table = {}
        for row in sorted(rows):
            if len(row) != 3:
                raise GraphAlgebraError(
                    f"an edge must be an (id, source, range) triple: {excerpt(repr(row))}"
                )
            eid, src, rng = row
            if eid in table:
                raise GraphAlgebraError(f"duplicate edge id {excerpt(repr(eid))}")
            table[eid] = (src, rng)
        self.edges = table
        validate(self)
        ins = {v: [] for v in self.vertices}
        outs = {v: [] for v in self.vertices}
        for eid, (src, rng) in table.items():
            ins[rng].append(eid)
            outs[src].append(eid)
        self._in = {v: tuple(es) for v, es in ins.items()}
        self._out = {v: tuple(es) for v, es in outs.items()}
        # a saturation closure reads the in-degree of each range it reaches
        self._in_degree = {v: len(es) for v, es in ins.items()}
        self._cycle_index = None
        return self

    def src(self, edge: str) -> str:
        return self.edges[edge][0]

    def rng(self, edge: str) -> str:
        return self.edges[edge][1]

    def in_edges(self, vertex: str) -> tuple[str, ...]:
        """Edges whose range is ``vertex``, sorted by edge id."""
        if vertex not in self._in:
            raise UnknownVertexError(vertex)
        return self._in[vertex]

    def out_edges(self, vertex: str) -> tuple[str, ...]:
        """Edges whose source is ``vertex``, sorted by edge id."""
        if vertex not in self._out:
            raise UnknownVertexError(vertex)
        return self._out[vertex]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(sorted(self.edges.items()))))

    def __repr__(self) -> str:
        return f"DirectedGraph(vertices={list(self.vertices)!r}, edges={self.edges!r})"


def validate(graph: DirectedGraph) -> DirectedGraph:
    """Check that ``graph`` is nonempty, well formed and source-free.

    Returns the graph itself so calls can be chained.  "Source-free"
    means every vertex receives at least one edge.  Reads only
    ``vertices`` and ``edges``, since construction calls it before the
    adjacency tables exist.
    """
    if not graph.vertices:
        raise EmptyGraphError("graph has no vertices")
    declared = set(graph.vertices)
    for eid, (src, rng) in graph.edges.items():
        if src not in declared or rng not in declared:
            raise DanglingEndpointError(eid)
    ranges = {rng for _, rng in graph.edges.values()}
    for v in graph.vertices:
        if v not in ranges:
            raise SourceVertexError(v)
    return graph


def _string_ids(values: Iterable[str], what: str) -> list:
    """``values`` as a list of ids: strings, and not one string read as its characters."""
    ids = [None] if isinstance(values, str) else list(values)  # so one string fails too
    for v in ids:
        if not isinstance(v, str):
            raise GraphAlgebraError(f"{what} must list string ids: {excerpt(repr(values))}")
    return ids


def _ordered_ids(values: Iterable[str], what: str) -> list:
    """``values`` as a list of ids whose order carries meaning: a set, which
    iterates in string-hash order, is refused, not read in that order."""
    if isinstance(values, (set, frozenset)):
        kind = type(values).__name__
        raise GraphAlgebraError(f"{what} must list string ids in order, not as a {kind}")
    return _string_ids(values, what)


def _vertex_subset(graph: DirectedGraph, subset: Iterable[str]) -> frozenset:
    sub = frozenset(_string_ids(subset, "a vertex set"))
    unknown = [v for v in sub if v not in graph._in]
    if unknown:
        raise UnknownVertexError(min(unknown))  # the least, whatever the set's hash order
    return sub


def is_hereditary(graph: DirectedGraph, subset: Iterable[str]) -> bool:
    sub = _vertex_subset(graph, subset)
    return all(graph.src(e) in sub for v in sub for e in graph.in_edges(v))


def _walk(graph: DirectedGraph, subset: Iterable[str], table: dict, end: int) -> frozenset:
    """``subset`` and every vertex reached from it along ``table`` (``_in`` or
    ``_out``), each edge read at ``end`` (0 source, 1 range).  The set is
    checked once, then the walk reads the graph's tables, not its accessors."""
    reached = set(_vertex_subset(graph, subset))
    stack = list(reached)
    edges = graph.edges
    while stack:
        for e in table[stack.pop()]:
            v = edges[e][end]
            if v not in reached:
                reached.add(v)
                stack.append(v)
    return frozenset(reached)


def hereditary_closure(graph: DirectedGraph, subset: Iterable[str]) -> frozenset:
    """Smallest superset closed under edge pullback: the sources of in-edges, walked back."""
    return _walk(graph, subset, graph._in, 0)


def _saturation_fixpoint(graph: DirectedGraph, start: frozenset, inside=frozenset()) -> frozenset:
    """Least saturated superset of the hereditary set ``start ∪ inside``,
    where ``inside`` is already saturated (empty by default).

    Only ``start − inside`` and what joins are walked, as a vertex fed
    only from ``inside`` is in it.  A range outside counts its in-edges
    whose source is not yet known to be inside: its in-degree, less its
    in-edges from ``inside`` once first met.  Each walked vertex lowers
    the counts of its out-edges' ranges, and a range whose count reaches
    zero joins, so the set stays hereditary.  It costs O(|result − inside|
    + their out-edges + in-edges of the ranges those reach).
    """
    edges, in_edges, in_degree = graph.edges, graph._in, graph._in_degree
    closure = {*inside, *start}
    todo = list(start - inside if inside else start)
    waiting = {}
    while todo:
        for e in graph._out[todo.pop()]:
            r = edges[e][1]
            if r in closure:
                continue
            waiting[r] = count = waiting.get(r, in_degree[r]) - 1
            # counts only fall, so this is its first meeting, in a join
            if count and inside and count == in_degree[r] - 1:
                waiting[r] = count = count - sum(edges[f][0] in inside for f in in_edges[r])
            if not count:
                closure.add(r)
                todo.append(r)
    return frozenset(closure)


def saturated_hereditary_closure(graph: DirectedGraph, subset: Iterable[str]) -> frozenset:
    """Smallest saturated hereditary superset of an arbitrary vertex set."""
    return _saturation_fixpoint(graph, hereditary_closure(graph, subset))


def is_saturated_hereditary(graph: DirectedGraph, subset: Iterable[str]) -> bool:
    sub = _vertex_subset(graph, subset)
    return sub == saturated_hereditary_closure(graph, sub)


def saturated_hereditary_lattice(
    graph: DirectedGraph,
) -> tuple[list[frozenset], list[tuple[int, int]]]:
    """The saturated hereditary sets and the Hasse covers between them.

    The sets are sorted by size then members; each cover is a pair
    ``(i, j)`` of indices into them with set ``j`` covering set ``i``,
    and the covers are sorted.  The family grows from cl(∅) by joining
    each set S found with each principal closure p = cl(v) minimal
    outside S, every principal strictly below p lying in S.  Lemma: a
    join with a minimal principal is a cover, distinct minimal
    principals give distinct covers, and every cover is such a join.
    The lattice is distributive (BHRS 2002), so by Birkhoff the covers
    of S each add one join-irreducible minimal outside S, and those are
    the principals minimal outside S, since every set is a join of
    principals and a set below p joins principals below p, all in S.
    Masks of the principals strictly below each one (``under``, once per
    graph) and in each set (``held``, from the vertices its join added,
    as the set holds cl(v) when it holds v) find them with bit
    operations, and a join walks only p − S and what joins: 1 + D
    saturations for the D distinct ancestor sets, then one per cover.
    """
    ancestry = {v: hereditary_closure(graph, (v,)) for v in graph.vertices}
    closed = {a: _saturation_fixpoint(graph, a) for a in set(ancestry.values())}
    number = {}  # each distinct principal closure, numbered as first met
    bit_of = {v: 1 << number.setdefault(closed[a], len(number)) for v, a in ancestry.items()}
    under = [sum(1 << number[q] for q in number if q < p) for p in number]
    # saturated from nothing, the bottom is empty and holds no principal
    bottom = _saturation_fixpoint(graph, frozenset())
    found = [(bottom, 0)]
    seen = {bottom}
    covers = []
    # ``found`` grows while it is walked, so every set gets its turn
    for below, held in found:
        for p, i in number.items():
            if not held >> i & 1 and not under[i] & ~held:
                above = _saturation_fixpoint(graph, p, below)
                if above not in seen:
                    seen.add(above)
                    # distinct one-bit masks sum to their union
                    found.append((above, held | sum({bit_of[v] for v in above - below})))
                covers.append((below, above))
    ordered = sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))
    rank = {s: i for i, s in enumerate(ordered)}
    return ordered, sorted((rank[s], rank[t]) for s, t in covers)


def enumerate_saturated_hereditary(graph: DirectedGraph) -> list[frozenset]:
    """All saturated hereditary vertex sets, sorted by size then members.

    See :func:`saturated_hereditary_lattice`, which also gives the covers.
    """
    return saturated_hereditary_lattice(graph)[0]


def reachable_ranges(graph: DirectedGraph, subset: Iterable[str]) -> frozenset:
    """All vertices reachable forward from ``subset``, including it."""
    return _walk(graph, subset, graph._out, 1)


@total_ordering
class Cycle(Record):
    """A cycle identified up to cyclic rotation of its edges.

    Construction normalises to the lexicographically least rotation, so
    two rotations of the same cycle compare and hash equal; cycles
    order by that rotation.  Use :func:`cycle_from_edges` to also check
    the sequence really is a cycle of a given graph.
    """

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[str, ...]):
        ids = tuple(_ordered_ids(edges, "a cycle"))
        if not ids:
            raise NotACycleError("a cycle has at least one edge")
        # the least rotation starts at the least id, which a real cycle
        # holds once; build only the rotations that start there
        least = min(ids)
        starts = [i for i, e in enumerate(ids) if e == least]
        set_field(self, "edges", min(ids[i:] + ids[:i] for i in starts))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.edges < other.edges
        return NotImplemented

    def __len__(self) -> int:
        return len(self.edges)


def cycle_from_edges(graph: DirectedGraph, edge_ids: Iterable[str]) -> Cycle:
    """Validate an edge sequence as a cycle of ``graph``, then canonicalise it: O(n)."""
    ids = tuple(_ordered_ids(edge_ids, "a cycle"))
    for e in ids:
        if e not in graph.edges:
            raise NotACycleError(f"unknown edge {excerpt(repr(e))}")
    for i in range(len(ids)):
        follower = ids[(i + 1) % len(ids)]
        if graph.src(ids[i]) != graph.rng(follower):
            raise NotACycleError(f"edges {excerpt(str(list(ids)))} do not close up into a cycle")
    sources = [graph.src(e) for e in ids]
    if len(set(sources)) != len(sources):
        raise NotACycleError(f"cycle {excerpt(str(list(ids)))} revisits a vertex")
    return Cycle(ids)


def cycle_vertices(graph: DirectedGraph, cycle: Cycle) -> frozenset:
    return frozenset(graph.src(e) for e in cycle.edges)


def cycle_base(graph: DirectedGraph, cycle: Cycle) -> str:
    """The range of the first edge of the canonical rotation."""
    return graph.rng(cycle.edges[0])


def is_entrance_free(graph: DirectedGraph, cycle: Cycle, subset: Iterable[str]) -> bool:
    """Whether ``cycle`` lies in ``subset`` with no other feeder from it.

    True exactly when every cycle vertex's only in-edge with source in
    ``subset`` is the cycle edge arriving there.
    """
    inside = _vertex_subset(graph, subset)
    if not cycle_vertices(graph, cycle) <= inside:
        return False
    for e in cycle.edges:
        v = graph.rng(e)
        feeders = [f for f in graph.in_edges(v) if graph.src(f) in inside]
        if feeders != [e]:
            return False
    return True


def entrance_free_cycles(graph: DirectedGraph, subset: Iterable[str]) -> list[Cycle]:
    """All cycles in ``subset`` without entrance, one per rotation class.

    On an entrance-free cycle every vertex has exactly one feeder from
    inside ``subset``, so a walk back along unique feeders that reaches
    the cycle goes round it and closes on a vertex of its own.  A walk
    stops at a vertex without exactly one feeder, or at one that an
    earlier walk passed, so each vertex is passed once and the scan costs
    O(|subset| + in-edges of the subset).
    """
    inside = _vertex_subset(graph, subset)
    feeders = {
        v: [e for e in graph.in_edges(v) if graph.src(e) in inside] for v in inside
    }
    found = []
    passed = set()
    for start in sorted(inside):
        # each vertex of this walk, with the position of its feeder in ``edges``
        walk = {}
        edges = []
        v = start
        while v not in passed and len(feeders[v]) == 1:
            passed.add(v)
            walk[v] = len(edges)
            edges.append(feeders[v][0])
            v = graph.src(edges[-1])
        if v in walk:
            found.append(Cycle(tuple(edges[walk[v] :])))
    return sorted(found)
