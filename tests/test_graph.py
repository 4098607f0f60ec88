"""Graph model, closures and entrance-free cycle extraction."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from prim_lattice import (
    Cycle,
    DanglingEndpointError,
    DirectedGraph,
    EmptyGraphError,
    NotACycleError,
    SourceVertexError,
    UnknownVertexError,
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
    saturated_hereditary_lattice,
    validate,
)
from fixtures import antichain, cascade, g_double, g_flow, g_loop
from prim_lattice import graph as graph_module
from prim_lattice.oracle import brute_saturated_hereditary, random_graph


def _corpus(seed=7, count=40):
    rng = random.Random(seed)
    graphs = [g_loop, g_double, g_flow]
    graphs.extend(random_graph(rng, max_vertices=5, max_edges=8) for _ in range(count))
    return graphs


def _subsets(graph):
    for size in range(len(graph.vertices) + 1):
        for combo in itertools.combinations(graph.vertices, size):
            yield frozenset(combo)


class TestConstruction:
    def test_vertices_sorted_and_deduped(self):
        g = DirectedGraph(["b", "a", "b"], {})
        assert g.vertices == ("a", "b")

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraph(["v"], [("a", "v", "v"), ("a", "v", "v")])

    def test_edge_accessors(self):
        g = g_flow
        assert g.src("c") == "u"
        assert g.rng("c") == "v"

    def test_in_edges_stable_order(self):
        assert g_flow.in_edges("v") == ("b", "c")
        assert g_flow.in_edges("u") == ("a",)
        assert g_double.in_edges("v") == ("a", "b")

    def test_in_edges_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            g_flow.in_edges("w")

    def test_equality(self):
        assert g_flow == g_flow
        assert g_flow != g_double


class TestValidate:
    def test_fixtures_validate(self):
        for g in (g_loop, g_double, g_flow):
            assert validate(g) is g

    def test_source_vertex_detected(self):
        # dropping the u loop leaves u with no feeder
        g = DirectedGraph(["u", "v"], {"b": ("v", "v"), "c": ("u", "v")})
        with pytest.raises(SourceVertexError) as err:
            validate(g)
        assert err.value.vertex == "u"

    def test_dangling_endpoint_detected(self):
        g = DirectedGraph(["v"], {"a": ("v", "w")})
        with pytest.raises(DanglingEndpointError):
            validate(g)

    def test_empty_graph_detected(self):
        with pytest.raises(EmptyGraphError):
            validate(DirectedGraph([], {}))


class TestClosures:
    def test_hereditary_closure_pulls_sources(self):
        assert hereditary_closure(g_flow, {"v"}) == {"u", "v"}
        assert hereditary_closure(g_flow, {"u"}) == {"u"}
        assert hereditary_closure(g_flow, set()) == set()

    def test_saturated_hereditary_closure(self):
        assert saturated_hereditary_closure(g_flow, {"v"}) == {"u", "v"}
        assert saturated_hereditary_closure(g_flow, {"u"}) == {"u"}
        assert saturated_hereditary_closure(g_loop, set()) == set()

    def test_unfed_vertices_join_on_an_unvalidated_graph(self):
        # "s" has no feeders, so it is saturated vacuously and then feeds "v"
        g = DirectedGraph(["s", "v"], {"a": ("s", "v")})
        assert saturated_hereditary_closure(g, ()) == {"s", "v"}
        assert saturated_hereditary_closure(g, {"v"}) == {"s", "v"}

    def test_is_saturated_hereditary(self):
        g = g_flow
        assert is_saturated_hereditary(g, set())
        assert is_saturated_hereditary(g, {"u"})
        assert is_saturated_hereditary(g, {"u", "v"})
        assert not is_saturated_hereditary(g, {"v"})

    def test_closure_laws_on_corpus(self):
        rng = random.Random(11)
        for g in _corpus():
            for _ in range(6):
                sample = frozenset(
                    v for v in g.vertices if rng.random() < 0.4
                )
                other = frozenset(v for v in g.vertices if rng.random() < 0.4)
                for closure in (hereditary_closure, saturated_hereditary_closure):
                    closed = closure(g, sample)
                    assert sample <= closed
                    assert closure(g, closed) == closed
                    if sample <= other:
                        assert closed <= closure(g, other)

    def test_saturated_closure_is_minimal(self):
        # the closure of S is the smallest enumerated member containing S
        rng = random.Random(13)
        for g in _corpus(count=20):
            family = enumerate_saturated_hereditary(g)
            for _ in range(5):
                sample = frozenset(v for v in g.vertices if rng.random() < 0.4)
                closed = saturated_hereditary_closure(g, sample)
                smallest = min(
                    (h for h in family if sample <= h), key=len
                )
                assert closed == smallest


class TestEnumeration:
    def test_fixture_families(self):
        assert enumerate_saturated_hereditary(g_loop) == [
            frozenset(),
            frozenset({"v"}),
        ]
        assert enumerate_saturated_hereditary(g_double) == [
            frozenset(),
            frozenset({"v"}),
        ]
        assert enumerate_saturated_hereditary(g_flow) == [
            frozenset(),
            frozenset({"u"}),
            frozenset({"u", "v"}),
        ]

    def test_matches_brute_force_on_corpus(self):
        for g in _corpus():
            fast = enumerate_saturated_hereditary(g)
            assert sorted(fast) == sorted(brute_saturated_hereditary(g))
            assert fast == sorted(fast, key=lambda h: (len(h), tuple(sorted(h))))

    def test_extremes_always_present(self):
        for g in _corpus(count=10):
            family = enumerate_saturated_hereditary(g)
            assert frozenset() in family
            assert frozenset(g.vertices) in family


def _sort_key(h):
    return (len(h), tuple(sorted(h)))


@pytest.fixture(scope="module")
def law_graphs():
    """Seeded random graphs of up to 16 vertices with their brute-force families.

    Graphs with more than 4 096 sets are left out: enumerating 2^16 sets
    alone takes seconds, and ``antichain(12)`` already covers 4 096.
    """
    rng = random.Random(29)
    graphs = []
    for _ in range(40):
        g = random_graph(rng, max_vertices=16, max_edges=40)
        brute = sorted(brute_saturated_hereditary(g), key=_sort_key)
        if len(brute) <= 4096:
            graphs.append((g, brute))
    return graphs


def _hasse(family):
    """Index pairs (i, j) with family[i] < family[j] and no member between them."""
    pairs = []
    for i, low in enumerate(family):
        above = [j for j, high in enumerate(family) if low < high]
        pairs += [(i, j) for j in above if not any(family[m] < family[j] for m in above)]
    return pairs


class TestLatticeLaws:
    """The enumeration against definitions that share no code with it."""

    def test_sets_and_covers_match_the_brute_family(self, law_graphs):
        for g, brute in law_graphs:
            sets, covers = saturated_hereditary_lattice(g)
            assert sets == brute
            assert enumerate_saturated_hereditary(g) == brute
            # the literal Hasse relation is cubic in L, so only smaller lattices get it
            if len(brute) <= 512:
                assert covers == _hasse(brute)

    def test_closure_is_the_meet_of_its_closed_supersets(self, law_graphs):
        rng = random.Random(31)
        for g, brute in law_graphs:
            for _ in range(8):
                sample = frozenset(v for v in g.vertices if rng.random() < 0.3)
                supersets = [h for h in brute if sample <= h]
                assert saturated_hereditary_closure(g, sample) == frozenset.intersection(*supersets)

    def test_principals_are_the_closures_of_single_vertices(self, monkeypatch, law_graphs):
        # every set the lattice saturates, keyed by the set it started from
        saturated = {}
        fixpoint = graph_module._saturation_fixpoint

        def recorded(graph, start):
            saturated[start] = fixpoint(graph, start)
            return saturated[start]

        monkeypatch.setattr(graph_module, "_saturation_fixpoint", recorded)
        for g, brute in law_graphs:
            saturated.clear()
            saturated_hereditary_lattice(g)
            for v in g.vertices:
                principal = saturated[hereditary_closure(g, (v,))]
                assert principal == saturated_hereditary_closure(g, {v})
                assert principal == frozenset.intersection(*(h for h in brute if v in h))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_antichain_is_boolean(self, k):
        sets, covers = saturated_hereditary_lattice(antichain(k))
        assert len(sets) == 2**k
        assert len(covers) == k * 2 ** (k - 1)
        assert all(len(sets[j] - sets[i]) == 1 and sets[i] < sets[j] for i, j in covers)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_cascade_has_only_the_extremes(self, n):
        g = cascade(n)
        assert saturated_hereditary_lattice(g) == ([frozenset(), frozenset(g.vertices)], [(0, 1)])


class TestEnumerationWork:
    """A closure count that does not depend on the host's speed."""

    @staticmethod
    def _closures(monkeypatch, g):
        calls = {"_saturation_fixpoint": 0, "hereditary_closure": 0}
        for name in calls:

            def counted(graph, subset, name=name, closure=getattr(graph_module, name)):
                calls[name] += 1
                return closure(graph, subset)

            monkeypatch.setattr(graph_module, name, counted)
        family = enumerate_saturated_hereditary(g)
        monkeypatch.undo()
        saturations, hereditary = calls["_saturation_fixpoint"], calls["hereditary_closure"]
        # every member is the result of one saturation, so none can go uncounted
        assert len(family) <= saturations
        assert hereditary <= len(g.vertices)
        return saturations, len(family)

    @pytest.mark.parametrize("g", [antichain(10), cascade(60)], ids=["antichain-10", "cascade-60"])
    def test_at_most_one_closure_per_set_and_vertex(self, monkeypatch, g):
        closures, size = self._closures(monkeypatch, g)
        assert closures <= 1 + len(g.vertices) + size * len(g.vertices)

    def test_bound_on_random_graphs(self, monkeypatch):
        rng = random.Random(37)
        for _ in range(30):
            g = random_graph(rng, max_vertices=16, max_edges=40)
            closures, size = self._closures(monkeypatch, g)
            assert closures <= 1 + len(g.vertices) + size * len(g.vertices)


class TestSubgraphAndReach:
    def test_reachable_ranges(self):
        assert reachable_ranges(g_flow, {"u"}) == {"u", "v"}
        assert reachable_ranges(g_flow, {"v"}) == {"v"}
        assert reachable_ranges(g_flow, set()) == set()

    def test_complements_of_hereditary_sets_are_forward_closed(self):
        for g in _corpus(count=15):
            for h in enumerate_saturated_hereditary(g):
                outside = frozenset(g.vertices) - h
                assert reachable_ranges(g, outside) == outside


class TestPathsAndCycles:
    def _two_cycle(self):
        return validate(
            DirectedGraph(["x", "y"], {"p": ("x", "y"), "q": ("y", "x")})
        )

    def test_cycle_rotations_identified(self):
        g = self._two_cycle()
        assert cycle_from_edges(g, ["p", "q"]) == cycle_from_edges(g, ["q", "p"])
        assert cycle_from_edges(g, ["q", "p"]).edges == ("p", "q")
        assert Cycle(("q", "p")) == Cycle(("p", "q"))

    def test_least_rotation_matches_every_rotation(self):
        rng = random.Random(73)
        for _ in range(400):
            # small alphabets repeat ids, as a JSON cycle may
            alphabet = [f"e{i}" for i in range(rng.randint(1, 6))]
            ids = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            least = min(ids[i:] + ids[:i] for i in range(len(ids)))
            assert Cycle(ids).edges == least

    def test_long_ring_normalises_in_linear_memory(self):
        # sized so that building every rotation fails the bound (about
        # 130 MB) without exhausting memory, as it would at 20 000 edges
        ids = tuple(f"e{(7 * i + 3) % 4_000:04d}" for i in range(4_000))
        tracemalloc.start()
        try:
            edges = Cycle(ids).edges
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges[0] == "e0000" and sorted(edges) == sorted(ids)
        # one rotation is 32 kB
        assert peak < 1_000_000

    def test_cycle_geometry(self):
        g = self._two_cycle()
        cyc = cycle_from_edges(g, ["p", "q"])
        assert cycle_vertices(g, cyc) == {"x", "y"}
        assert cycle_base(g, cyc) == g.rng("p")
        assert len(cyc) == 2

    def test_cycle_rejections(self):
        g = g_flow
        with pytest.raises(NotACycleError):
            cycle_from_edges(g, ["c"])
        with pytest.raises(NotACycleError):
            cycle_from_edges(g, ["a", "b"])
        with pytest.raises(NotACycleError):
            cycle_from_edges(g, ["z"])
        with pytest.raises(NotACycleError):
            cycle_from_edges(g, [])

    def test_cycle_cannot_revisit_vertices(self):
        g = validate(
            DirectedGraph(
                ["x", "y"],
                {"p": ("x", "y"), "q": ("y", "x"), "r": ("x", "y"), "s": ("y", "x")},
            )
        )
        with pytest.raises(NotACycleError):
            cycle_from_edges(g, ["p", "q", "r", "s"])


class TestEntranceFreeCycles:
    def test_worked_examples(self):
        assert [c.edges for c in entrance_free_cycles(g_loop, {"v"})] == [("a",)]
        assert entrance_free_cycles(g_double, {"v"}) == []
        assert [c.edges for c in entrance_free_cycles(g_flow, {"u", "v"})] == [("a",)]
        assert [c.edges for c in entrance_free_cycles(g_flow, {"v"})] == [("b",)]
        assert entrance_free_cycles(g_flow, set()) == []

    def test_is_entrance_free_matches_listing(self):
        g = g_flow
        loop_a = cycle_from_edges(g, ["a"])
        loop_b = cycle_from_edges(g, ["b"])
        assert is_entrance_free(g, loop_a, {"u", "v"})
        assert not is_entrance_free(g, loop_b, {"u", "v"})
        assert is_entrance_free(g, loop_b, {"v"})
        assert not is_entrance_free(g, loop_a, {"v"})

    @staticmethod
    def _brute(graph, inside):
        pool = [
            e
            for e, (src, rng_v) in graph.edges.items()
            if src in inside and rng_v in inside
        ]
        found = set()
        for size in range(1, len(pool) + 1):
            for combo in itertools.permutations(pool, size):
                try:
                    cyc = cycle_from_edges(graph, combo)
                except NotACycleError:
                    continue
                if is_entrance_free(graph, cyc, inside):
                    found.add(cyc)
        return sorted(found)

    def test_matches_brute_force_on_corpus(self):
        for g in _corpus(seed=23, count=25):
            if len(g.edges) > 6:
                continue
            for inside in _subsets(g):
                fast = entrance_free_cycles(g, inside)
                assert fast == self._brute(g, inside)
                for cyc in fast:
                    assert cycle_vertices(g, cyc) <= inside
                    assert cyc.edges == min(
                        cyc.edges[i:] + cyc.edges[:i] for i in range(len(cyc))
                    )

    def test_hereditary_helpers_agree(self):
        for g in _corpus(count=15):
            for inside in _subsets(g):
                closed = hereditary_closure(g, inside)
                assert is_hereditary(g, closed)
