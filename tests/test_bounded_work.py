"""Saturation and cycle lookup cost what they touch, not the whole graph.

A graph here is a small looped chain beside a large part that no
argument reaches.  The graph's tables are swapped for read-only views
that log each key looked up and refuse to be copied or walked, so a
kernel that scans the whole graph fails, and one that reads the large
part shows up in the log.  The walks, Tarjan and the tail check read
those tables, never the per-step accessors.  ``hull`` builds the tails
of the strata it returns and no other, and ``hull_to_pair`` those of the
strata it is given.  The gauge lattice joins each set only with the
least principal closures outside it, and a join reads the out-edges of
the vertices it adds and of no other.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from fractions import Fraction as F

import pytest

from prim_lattice import (
    ClosedCircleSet,
    DanglingEndpointError,
    DirectedGraph,
    Hull,
    HullEntry,
    IdealPair,
    MalformedHullError,
    MaximalTail,
    OpenCircleSet,
    SourceVertexError,
    entrance_free_cycles,
    enumerate_saturated_hereditary,
    enumerate_maximal_tails,
    gauge_ideal,
    hereditary_closure,
    hull,
    hull_to_pair,
    ideal_pair,
    is_saturated_hereditary,
    pair_join,
    pair_meet,
    reachable_ranges,
    saturated_hereditary_closure,
    saturated_hereditary_lattice,
    validate,
)
from prim_lattice import lattice, oracle, tails
from prim_lattice import graph as graph_module
from prim_lattice.tails import cycle_index, cycles_outside
from fixtures import antichain, cascade, fixture_graphs


class Recording(Mapping):
    """A view of a table or list that logs the keys read and cannot be walked."""

    def __init__(self, table):
        self.table = table
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.table[key]

    def __iter__(self):
        raise AssertionError("walked the whole table")

    def __len__(self):
        raise AssertionError("sized the whole table")


SMALL = [f"a{i}" for i in range(4)]
LARGE = 2000


def _chain_edges(ids):
    edges = {f"loop-{v}": (v, v) for v in ids}
    edges.update({f"step-{v}": (v, w) for v, w in zip(ids, ids[1:])})
    return edges


def _split_graph(more_vertices=(), more_edges=(), size=LARGE):
    """The looped chain ``SMALL`` beside a large part it never reaches.

    The large part is a ring of ``size`` vertices entered from ``f``, which
    has two loops, and a block of ``size`` in which each vertex feeds the
    next two.  Neither holds a cycle that is entrance-free while ``f`` is
    outside, so no answer about the chain names it.
    """
    ring, block = [f"b{i:04d}" for i in range(size)], [f"c{i:04d}" for i in range(size)]
    edges = _chain_edges(SMALL)
    edges.update({"f1": ("f", "f"), "f2": ("f", "f"), "fin": ("f", ring[0])})
    edges.update({f"r{i}": (v, ring[(i + 1) % size]) for i, v in enumerate(ring)})
    for i, v in enumerate(block):
        edges[f"c{i}+1"] = (v, block[(i + 1) % size])
        edges[f"c{i}+2"] = (v, block[(i + 2) % size])
    edges.update(more_edges)
    return DirectedGraph(SMALL + ring + block + ["f", *more_vertices], edges)


def _record(graph, index=None):
    """Swap the graph's tables, and those of its cycle ``index`` if given, for
    recording views; an index that is read must be built beforehand."""
    views = {}
    names = [(graph, n) for n in ("vertices", "edges", "_in", "_out", "_in_degree")]
    if index is not None:
        names += [(index, "entered"), (index, "cycles")]
    for owner, name in names:
        views[name] = Recording(getattr(owner, name))
        setattr(owner, name, views[name])
    return views


def _assert_within(views, allowed=SMALL):
    """Every vertex read, as a key, an edge's endpoint or part of a cycle, is allowed."""
    touched = set()
    for name in ("_in", "_out", "_in_degree", "entered"):
        if name in views:
            touched |= views[name].read
    edges = views["edges"]
    touched.update(v for e in edges.read for v in edges.table[e])
    if "cycles" in views:
        cycles = views["cycles"]
        for i in cycles.read:
            _, vertex, entries = cycles.table[i]
            touched |= entries | {vertex}
    assert touched <= set(allowed), sorted(touched - set(allowed))[:5]


class TestWorkBoundedByTheArguments:
    def test_saturation_reads_only_what_it_reaches(self):
        g = validate(_split_graph())
        views = _record(g)
        assert saturated_hereditary_closure(g, {"a1"}) == {"a0", "a1"}
        assert saturated_hereditary_closure(g, ()) == frozenset()
        assert is_saturated_hereditary(g, {"a0", "a1", "a2"})
        assert not is_saturated_hereditary(g, {"a1"})
        _assert_within(views)

    def test_cycle_lookup_reads_only_what_it_is_given(self):
        g = validate(_split_graph())
        views = _record(g, cycle_index(g))
        for k in range(len(SMALL)):
            found = cycles_outside(g, frozenset(SMALL[:k]))
            assert [c.edges for c in found] == [(f"loop-{SMALL[k]}",)]
        _assert_within(views)

    def test_meet_and_join_read_only_what_their_members_touch(self):
        g = validate(_split_graph())

        def pair(k, *arcs):
            loop = cycles_outside(g, frozenset(SMALL[:k]))[0]
            return ideal_pair(g, SMALL[:k], {loop: OpenCircleSet.from_arcs(arcs)})

        # the two sets of the loop on a1 cover the circle, so the join promotes it
        low = pair(1, (F(0), F(1, 2)))
        high = pair(1, (F(1, 3), F(7, 6)))
        top = pair(2, (F(1, 4), F(3, 4)))
        views = _record(g, cycle_index(g))
        assert pair_meet(g, [low, high]) == pair(1, (F(0), F(1, 6)), (F(1, 3), F(1, 2)))
        assert pair_meet(g, [high, top]) == high
        assert pair_join(g, [low, top]) == top
        assert pair_join(g, [low, high]) == pair(2)
        _assert_within(views)

    def test_graphs_with_sources_or_undeclared_endpoints_are_not_built(self):
        # no kernel keeps a rule for a vertex with no feeders or an edge into
        # a vertex the graph does not declare: construction turns both away
        cases = [
            (
                lambda: _split_graph(
                    ["s", "t"],
                    {"s->t": ("s", "t"), "a0->ghost": ("a0", "ghost"), "t->ghost": ("t", "ghost")},
                ),
                DanglingEndpointError,
            ),
            (
                lambda: DirectedGraph(["s", "t"], {"a": ("s", "t"), "b": ("t", "s"), "c": ("t", "ghost")}),
                DanglingEndpointError,
            ),
            (lambda: DirectedGraph(["s", "v"], {"a": ("s", "v")}), SourceVertexError),
        ]
        for build, error in cases:
            with pytest.raises(error):
                build()


class TestCycleLookupAgainstTheScan:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_chains(self, n):
        ids = [f"v{i}" for i in range(n)]
        g = validate(DirectedGraph(ids, _chain_edges(ids)))
        for hereditary in enumerate_saturated_hereditary(g):
            complement = frozenset(ids) - hereditary
            assert cycles_outside(g, hereditary) == oracle.entrance_free_cycles(g, complement)
        assert len(cycles_outside(g, frozenset())) == 1
        assert cycles_outside(g, frozenset(ids)) == []

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_antichains(self, k):
        g = antichain(k)
        for hereditary in enumerate_saturated_hereditary(g):
            complement = frozenset(g.vertices) - hereditary
            assert cycles_outside(g, hereditary) == oracle.entrance_free_cycles(g, complement)
        assert len(cycles_outside(g, frozenset())) == k
        assert cycles_outside(g, frozenset(g.vertices)) == []

    def test_the_empty_set_and_everything_on_the_split_graph(self):
        g = validate(_split_graph())
        everything = frozenset(g.vertices)
        assert cycles_outside(g, frozenset()) == oracle.entrance_free_cycles(g, everything)
        assert cycles_outside(g, everything) == oracle.entrance_free_cycles(g, frozenset()) == []
        # with f inside, the ring loses its one entry and becomes entrance-free
        upstream = frozenset(["f"])
        assert [len(c) for c in cycles_outside(g, upstream)] == [1, LARGE]
        assert cycles_outside(g, upstream) == entrance_free_cycles(g, everything - upstream)

    def test_the_scan_passes_each_vertex_once(self):
        # one ``src`` call per in-edge to find the feeders, then at most one
        # per vertex to walk them: never once per vertex per walk round the ring
        g = _split_graph()
        calls = []

        def counted(edge):
            calls.append(edge)
            return DirectedGraph.src(g, edge)

        g.src = counted
        for inside in (frozenset(g.vertices), frozenset(g.vertices) - {"f"}):
            calls.clear()
            found = entrance_free_cycles(g, inside)
            in_edges = sum(len(g.in_edges(v)) for v in inside)
            assert len(calls) <= len(inside) + in_edges
        assert [len(c) for c in found] == [1, LARGE]


def _refusing(name):
    def refuse(*args):
        raise AssertionError(f"called the accessor {name}")

    return refuse


def _graphs_to_walk():
    rng = random.Random(44)
    drawn = [oracle.random_graph(rng, 8, 16) for _ in range(30)]
    return [*fixture_graphs().values(), antichain(3), cascade(5), _split_graph(size=6), *drawn]


class TestWalksReadTheTables:
    """The walks check their argument once at entry, then read the graph's
    tables: on a graph whose per-step accessors raise, every answer is the same."""

    @pytest.mark.parametrize("graph", _graphs_to_walk())
    def test_same_answers_without_the_accessors(self, graph):
        bare = DirectedGraph(graph.vertices, graph.edges)
        for name in ("src", "rng", "in_edges", "out_edges"):
            setattr(bare, name, _refusing(name))
        assert enumerate_maximal_tails(bare) == enumerate_maximal_tails(graph)
        assert saturated_hereditary_lattice(bare) == saturated_hereditary_lattice(graph)
        starts = [(v,) for v in graph.vertices] + [graph.vertices[::2], graph.vertices]
        for walk in (reachable_ranges, hereditary_closure, saturated_hereditary_closure):
            assert [walk(bare, s) for s in starts] == [walk(graph, s) for s in starts]


class TestHullBuildsOnlyItsStrata:
    """``hull`` builds one tail per stratum it returns: a tail that meets the
    ideal's vertex set is dropped by its generator before it is built."""

    CHAIN = [f"v{i:02d}" for i in range(32)]

    @pytest.mark.parametrize("kept", [32, 16, 0], ids=["zero", "lower-half", "everything"])
    def test_one_build_per_stratum_on_a_chain(self, monkeypatch, kept):
        g = validate(DirectedGraph(self.CHAIN, _chain_edges(self.CHAIN)))
        inside = self.CHAIN[: len(self.CHAIN) - kept]
        built = []

        def counted(graph, index, position):
            built.append(position)
            return tails._tail_at(graph, index, position)

        pair = gauge_ideal(g, inside)
        monkeypatch.setattr(lattice, "_tail_at", counted)
        entries = hull(g, pair).entries
        assert len(built) == len(entries) == kept
        # the tail at v_i is v_i onwards, and the hull lists them by size
        assert [sorted(e.tail.vertices) for e in entries] == [
            self.CHAIN[-k:] for k in range(1, kept + 1)
        ]

    def test_the_strata_are_the_tails_that_miss_the_ideal(self):
        rng = random.Random(25)
        for _ in range(40):
            g = oracle.random_graph(rng, rng.randint(1, oracle.SUBSET_LIMIT), 24)
            index = cycle_index(g)
            everything = enumerate_maximal_tails(g)
            for _ in range(4):
                starts = rng.sample(g.vertices, rng.randint(0, min(3, len(g.vertices))))
                inside = saturated_hereditary_closure(g, starts)
                pair = oracle.random_ideal_pair(rng, g, [inside])
                strata = [entry.tail for entry in hull(g, pair).entries]
                kept = [t for t in everything if index.vertex[index.generator(t)] not in inside]
                assert strata == kept
                assert strata == [t for t in everything if t.vertices.isdisjoint(inside)]


def _kernel_by_enumeration(graph, shape):
    """``hull_to_pair`` as once written: every maximal tail enumerated, and
    each entry matched to one by its vertex set."""
    tails_by_vertices = {tail.vertices: tail for tail in enumerate_maximal_tails(graph)}
    strata = {}
    for entry in shape.entries:
        vertices = entry.tail.vertices
        if tails_by_vertices.get(vertices) != entry.tail:
            raise MalformedHullError(f"{sorted(vertices)} is not a maximal tail of the graph")
        if vertices in strata:
            raise MalformedHullError(f"duplicate stratum for tail {sorted(vertices)}")
        strata[vertices] = entry
    uncovered = frozenset(graph.vertices).difference(*strata)
    own = {entry.tail.cycle: entry for entry in strata.values()}
    cycle_sets = []
    for cycle in cycles_outside(graph, uncovered):
        value = own[cycle].allowed.complement()
        if value.is_full:
            raise MalformedHullError(
                f"stratum {sorted(own[cycle].tail.vertices)} allows no point of its cycle"
            )
        cycle_sets.append((cycle, value))
    return IdealPair(uncovered, tuple(cycle_sets))


def _outcome(kernel, graph, shape):
    """The pair ``kernel`` rebuilds from ``shape``, or the line it refuses it with."""
    try:
        return kernel(graph, shape)
    except MalformedHullError as err:
        return str(err)


class TestHullToPairBuildsOnlyItsStrata:
    """``hull_to_pair`` builds one tail per entry it is given, by classifying
    the entry's vertex set, and never enumerates the graph's tails."""

    CHAIN = TestHullBuildsOnlyItsStrata.CHAIN

    @pytest.mark.parametrize("kept", [32, 16, 0], ids=["zero", "lower-half", "everything"])
    def test_one_build_per_entry_on_a_chain(self, monkeypatch, kept):
        g = validate(DirectedGraph(self.CHAIN, _chain_edges(self.CHAIN)))
        pair = gauge_ideal(g, self.CHAIN[: len(self.CHAIN) - kept])
        shape = hull(g, pair)
        built = []
        build = tails._tail_at

        def counted(graph, index, position):
            built.append(position)
            return build(graph, index, position)

        def refused(graph):
            raise AssertionError("enumerated every tail of the graph")

        monkeypatch.setattr(tails, "_tail_at", counted)
        for module in (tails, lattice):
            monkeypatch.setattr(module, "enumerate_maximal_tails", refused, raising=False)
        assert hull_to_pair(g, shape) == pair
        assert len(built) == len(shape.entries) == kept

    def test_the_kernel_is_the_one_read_off_every_tail(self):
        rng = random.Random(27)
        for _ in range(40):
            g = oracle.random_graph(rng, rng.randint(1, oracle.SUBSET_LIMIT), 24)
            everything = enumerate_maximal_tails(g)
            for _ in range(4):
                starts = rng.sample(g.vertices, rng.randint(0, min(3, len(g.vertices))))
                inside = saturated_hereditary_closure(g, starts)
                pair = oracle.random_ideal_pair(rng, g, [inside])
                shape = hull(g, pair)
                assert hull_to_pair(g, shape) == pair == _kernel_by_enumeration(g, shape)
                # some strata dropped, and maybe a set that is no tail of the graph
                kept = [e for e in shape.entries if rng.random() < 0.6]
                if rng.random() < 0.3:
                    vertices = frozenset(rng.sample(g.vertices, rng.randint(0, len(g.vertices))))
                    if vertices not in {t.vertices for t in everything}:
                        fake = MaximalTail(vertices, None, 0)
                        at = rng.randint(0, len(kept))
                        kept.insert(at, HullEntry(fake, ClosedCircleSet.full()))
                sub = Hull(tuple(kept))
                assert _outcome(hull_to_pair, g, sub) == _outcome(_kernel_by_enumeration, g, sub)


class TestGaugeLatticeJoinsMinimalPrincipals:
    """The gauge lattice joins each set found only with the principal closures
    that are minimal among those outside it, so a chain's lattice costs one
    saturation per cover, not one per principal outside every set."""

    @staticmethod
    def _saturations(monkeypatch, g):
        saturated = []
        fixpoint = graph_module._saturation_fixpoint

        def recorded(graph, start, inside=frozenset()):
            saturated.append(start)
            return fixpoint(graph, start, inside)

        monkeypatch.setattr(graph_module, "_saturation_fixpoint", recorded)
        lattice_of_g = saturated_hereditary_lattice(g)
        monkeypatch.undo()
        return len(saturated), lattice_of_g

    def test_a_chain_saturates_once_per_cover(self, monkeypatch):
        ids = [f"v{i:02d}" for i in range(32)]
        g = validate(DirectedGraph(ids, _chain_edges(ids)))
        count, (sets, covers) = self._saturations(monkeypatch, g)
        # 1 + 32 principals + one join per set below the top; every
        # principal outside every set made 561
        assert count == 65
        assert sets == [frozenset(ids[: len(ids) - k]) for k in range(32, -1, -1)]
        assert covers == [(i, i + 1) for i in range(32)]

    def test_an_antichain_joins_every_principal_outside(self, monkeypatch):
        # every principal closure is minimal, so nothing is saved
        count, (sets, covers) = self._saturations(monkeypatch, antichain(8))
        assert count == 1 + 8 + 8 * 2**7
        assert (len(sets), len(covers)) == (256, 8 * 2**7)

    def test_a_cascade_has_one_principal(self, monkeypatch):
        g = cascade(40)
        count, lattice_of_g = self._saturations(monkeypatch, g)
        assert count == 42
        assert lattice_of_g == ([frozenset(), frozenset(g.vertices)], [(0, 1)])


class _Counting(Recording):
    """A recording view that also counts every lookup."""

    def __init__(self, table):
        super().__init__(table)
        self.count = 0

    def __getitem__(self, key):
        self.count += 1
        return super().__getitem__(key)


class TestSaturationReadsWhatItAdds:
    """A saturation reads the out-edges of each vertex it adds to the set
    already inside once, and of no other, so a join of a set with a
    principal closure walks only what the join adds."""

    @staticmethod
    def _reads(monkeypatch, g):
        """(out-edge lists read, |result − inside|) for each saturation the lattice makes."""
        reads = []
        out = _Counting(g._out)
        fixpoint = graph_module._saturation_fixpoint

        def recorded(graph, start, *inside):
            before = out.count
            result = fixpoint(graph, start, *inside)
            reads.append((out.count - before, len(result.difference(*inside))))
            return result

        monkeypatch.setattr(g, "_out", out)
        monkeypatch.setattr(graph_module, "_saturation_fixpoint", recorded)
        saturated_hereditary_lattice(g)
        monkeypatch.undo()
        return reads

    def test_a_chain_join_reads_one_vertex(self, monkeypatch):
        ids = [f"v{i:03d}" for i in range(200)]
        g = validate(DirectedGraph(ids, _chain_edges(ids)))
        reads = self._reads(monkeypatch, g)
        assert all(read == added for read, added in reads)
        # the 200 principals and the bottom come first, then one join per
        # cover, each adding one vertex; saturating each S ∪ p whole reads
        # every vertex of the join, 20 100 in all
        assert len(reads) == 1 + 200 + 200
        assert sum(read for read, _ in reads[201:]) == 200

    def test_an_antichain_join_reads_one_vertex(self, monkeypatch):
        reads = self._reads(monkeypatch, antichain(8))
        assert all(read == added for read, added in reads)
        assert sum(read for read, _ in reads[9:]) == 8 * 2**7
