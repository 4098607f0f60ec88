"""Maximal tail enumeration and classification."""

from __future__ import annotations

import itertools
import random

import pytest

from prim_lattice import (
    DirectedGraph,
    NotACycleError,
    NotAMaximalTailError,
    brute_maximal_tails,
    classify_tail,
    cycle_from_edges,
    cycle_vertices,
    entrance_free_cycles,
    enumerate_maximal_tails,
    is_maximal_tail,
    is_saturated_hereditary,
    random_graph,
    reachable_ranges,
    strongly_connected_components,
    tail_of_cycle,
    validate,
)
from fixtures import census_graphs, fixture_graphs, g_double, g_flow, g_loop
from tail_laws import classification_faults

CENSUS = list(census_graphs(3, 4))


def _corpus(seed=11, count=40):
    graphs = list(fixture_graphs().values())
    rng = random.Random(seed)
    while len(graphs) < count:
        graphs.append(random_graph(rng, max_vertices=5, max_edges=8))
    return graphs


class TestAxioms:
    def test_loop_tail(self):
        assert is_maximal_tail(g_loop, {"v"})

    def test_empty_set_is_not_a_tail(self):
        assert not is_maximal_tail(g_loop, set())

    def test_flow_graph_tails(self):
        assert is_maximal_tail(g_flow, {"u", "v"})
        assert is_maximal_tail(g_flow, {"v"})
        # u alone is not forward closed: c leaves it.
        assert not is_maximal_tail(g_flow, {"u"})

    def test_common_ancestor_axiom_fails_for_disjoint_loops(self):
        g = validate(
            DirectedGraph(["u", "v"], {"a": ("u", "u"), "b": ("v", "v")})
        )
        assert not is_maximal_tail(g, {"u", "v"})
        assert is_maximal_tail(g, {"u"})
        assert is_maximal_tail(g, {"v"})

    def test_internally_fed_axiom(self):
        # w is fed only from outside {v, w}, so the pair is not a tail.
        g = validate(
            DirectedGraph(
                ["u", "v", "w"],
                {"a": ("u", "u"), "b": ("u", "w"), "c": ("v", "v"), "d": ("v", "w")},
            )
        )
        assert not is_maximal_tail(g, {"w"})
        assert is_maximal_tail(g, {"v", "w"})


class TestClassification:
    def test_loop_is_cyclic_with_period_one(self):
        tail = classify_tail(g_loop, {"v"})
        assert tail.is_cyclic
        assert tail.kind == "cyclic"
        assert tail.period == 1
        assert tail.cycle is not None and tail.cycle.edges == ("a",)

    def test_double_loop_is_aperiodic(self):
        tail = classify_tail(g_double, {"v"})
        assert not tail.is_cyclic
        assert tail.kind == "aperiodic"
        assert tail.period == 0
        assert tail.cycle is None

    def test_flow_graph_classification(self):
        big = classify_tail(g_flow, {"u", "v"})
        small = classify_tail(g_flow, {"v"})
        assert big.cycle.edges == ("a",) and big.period == 1
        # b has an entrance from outside {v}? No: within {u, v} edge c feeds
        # v, so b is not entrance free in the big tail but is in the small one.
        assert small.cycle.edges == ("b",) and small.period == 1
        assert entrance_free_cycles(g_flow, {"u", "v"}) == [big.cycle]

    @pytest.mark.parametrize("length", [2, 7, 16])
    def test_period_is_the_cycle_length(self, length):
        # a ring feeding a loop: the ring's tail is cyclic with the ring's period
        ring = {f"r{i}": (f"v{i}", f"v{(i + 1) % length}") for i in range(length)}
        edges = {**ring, "out": ("v0", "w"), "loop": ("w", "w")}
        g = validate(DirectedGraph([*(f"v{i}" for i in range(length)), "w"], edges))
        small, big = enumerate_maximal_tails(g)
        assert (small.period, small.cycle.edges) == (1, ("loop",))
        assert big.period == length and sorted(big.cycle.edges) == sorted(ring)

    def test_rejects_non_tails(self):
        with pytest.raises(NotAMaximalTailError):
            classify_tail(g_flow, {"u"})
        with pytest.raises(NotAMaximalTailError):
            classify_tail(g_loop, set())


class TestEnumeration:
    def test_fixture_families(self):
        loop = enumerate_maximal_tails(g_loop)
        assert [sorted(t.vertices) for t in loop] == [["v"]]
        double = enumerate_maximal_tails(g_double)
        assert [t.kind for t in double] == ["aperiodic"]
        flow = enumerate_maximal_tails(g_flow)
        assert [sorted(t.vertices) for t in flow] == [["v"], ["u", "v"]]
        assert [t.kind for t in flow] == ["cyclic", "cyclic"]

    def test_matches_exhaustive_search(self):
        for g in _corpus():
            fast = [t.vertices for t in enumerate_maximal_tails(g)]
            assert fast == brute_maximal_tails(g)

    def test_matches_the_oracle_up_to_sixteen_vertices(self):
        """Enumeration and classification against brute force, on graphs
        up to the oracle's 16-vertex guard; each brute-force tail's cycle
        is checked against the general entrance-free cycle scan."""
        rng = random.Random(16)
        sizes = []
        for _ in range(40):
            g = random_graph(rng, max_vertices=16, max_edges=32)
            sizes.append(len(g.vertices))
            brute = brute_maximal_tails(g)
            tails = enumerate_maximal_tails(g)
            assert [t.vertices for t in tails] == brute
            assert [classify_tail(g, vertices) for vertices in brute] == tails
            for tail in tails:
                cycles = entrance_free_cycles(g, tail.vertices)
                assert [tail.cycle] == (cycles or [None])
                assert tail.period == (len(cycles[0]) if cycles else 0)
        assert max(sizes) >= 15

    def test_each_tail_is_what_its_last_tarjan_component_reaches(self):
        """Tarjan emits a component after everything it reaches, so of the
        components inside a maximal tail the generating one comes last; the
        tail's cycle, when it has one, is the scan's only entrance-free cycle."""
        rng = random.Random(61)
        graphs = [*fixture_graphs().values(), *(random_graph(rng, 16, 32) for _ in range(40))]
        for g in graphs:
            components = strongly_connected_components(g)
            position = {v: i for i, component in enumerate(components) for v in component}
            for vertices in brute_maximal_tails(g):
                last = components[max(position[v] for v in vertices)]
                assert reachable_ranges(g, last) == vertices
                cycle = classify_tail(g, vertices).cycle
                assert ([] if cycle is None else [cycle]) == entrance_free_cycles(g, vertices)

    def test_sorted_by_size_then_members(self):
        for g in _corpus(seed=13):
            tails = enumerate_maximal_tails(g)
            keys = [(len(t.vertices), sorted(t.vertices)) for t in tails]
            assert keys == sorted(keys)

    def test_complement_is_saturated_hereditary(self):
        for g in _corpus(seed=23):
            for tail in enumerate_maximal_tails(g):
                assert is_saturated_hereditary(g, set(g.vertices) - tail.vertices)

    def test_cyclic_tail_is_span_of_its_cycle(self):
        for g in _corpus(seed=29):
            for tail in enumerate_maximal_tails(g):
                if tail.is_cyclic:
                    span = reachable_ranges(g, cycle_vertices(g, tail.cycle))
                    assert span == tail.vertices
                    assert tail.period == len(tail.cycle)

    def test_at_most_one_entrance_free_cycle(self):
        for g in _corpus(seed=31):
            for tail in enumerate_maximal_tails(g):
                assert len(entrance_free_cycles(g, tail.vertices)) <= 1


class TestTailOfCycle:
    def test_loop_cycle(self):
        tail = tail_of_cycle(g_loop, ["a"])
        assert tail.vertices == frozenset({"v"})

    def test_flow_graph_cycles(self):
        assert tail_of_cycle(g_flow, ["a"]).vertices == {"u", "v"}
        assert tail_of_cycle(g_flow, ["b"]).vertices == {"v"}

    def test_every_enumerated_cycle_round_trips(self):
        for g in _corpus(seed=41):
            for tail in enumerate_maximal_tails(g):
                if tail.is_cyclic:
                    assert tail_of_cycle(g, tail.cycle.edges) == tail


def _every_cycle(g) -> set:
    """Every cycle of ``g``, found by trying each edge sequence up to the vertex count."""
    found = set()
    for length in range(1, len(g.vertices) + 1):
        for edges in itertools.permutations(g.edges, length):
            try:
                found.add(cycle_from_edges(g, edges))
            except NotACycleError:
                pass
    return found


def _six_to_ten(seed: int, count: int) -> list:
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng, max_vertices=10, max_edges=20)
        if len(g.vertices) >= 6:
            graphs.append(g)
    return graphs


class TestOneBuilder:
    """Every maximal tail comes from one builder, at its generating position."""

    @pytest.mark.parametrize("family", ["census", "6-10 vertices"])
    def test_classify_accepts_exactly_the_brute_force_tails(self, family):
        graphs = CENSUS if family == "census" else _six_to_ten(67, 60)
        for g in graphs:
            assert classification_faults(g) == []

    def test_three_routes_give_one_record(self):
        for g in CENSUS:
            tails = enumerate_maximal_tails(g)
            for tail in tails:
                classified = classify_tail(g, tail.vertices)
                assert classified == tail and classified._home == tail._home
            by_vertices = {tail.vertices: tail for tail in tails}
            reached = set()
            for cycle in _every_cycle(g):
                built = tail_of_cycle(g, cycle)
                tail = by_vertices[built.vertices]
                assert built == tail and built._home == tail._home
                reached.add(tail)
            # every component with an edge holds a cycle
            assert reached == set(tails)


class TestStronglyConnectedComponents:
    def test_partition(self):
        for g in _corpus(seed=43):
            comps = strongly_connected_components(g)
            flat = sorted(v for comp in comps for v in comp)
            assert flat == sorted(g.vertices)

    def test_mutual_reachability(self):
        for g in _corpus(seed=47):
            for comp in strongly_connected_components(g):
                for v in comp:
                    assert comp <= reachable_ranges(g, {v})

    def test_two_cycle_merges(self):
        g = validate(
            DirectedGraph(["x", "y"], {"p": ("x", "y"), "q": ("y", "x")})
        )
        assert strongly_connected_components(g) == [frozenset({"x", "y"})]
