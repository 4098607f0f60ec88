"""The per-graph cycle index against the general entrance-free scan.

``entrance_free_cycles`` scans any vertex set; the lattice operations
read the cycle index instead, which only answers for forward-closed
sets.  These tests hold the two to the same lists on exactly the sets
the lattice asks about, check that a graph builds its index once, and
that the commands and oracle routines that need no cycles never build it.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from prim_lattice import (
    DirectedGraph,
    PrimitiveIdeal,
    closure_contains,
    entrance_free_cycles,
    enumerate_maximal_tails,
    enumerate_primitive_strata,
    enumerate_saturated_hereditary,
    hull,
    hull_to_pair,
    ideal_pair,
    meet_of_primitives,
    pair_join,
    pair_meet,
    random_graph,
    random_ideal_pair,
    zero_ideal,
)
from prim_lattice import oracle, tails
from prim_lattice.cli import main
from prim_lattice.tails import cycle_index, cycles_outside, strongly_connected_components
from fixtures import g_double, g_flow, g_loop


def _graphs(seed, count, max_vertices=16, max_edges=32):
    rng = random.Random(seed)
    return [random_graph(rng, max_vertices, max_edges) for _ in range(count)]


def _unions(parts) -> set:
    """Every union of some of ``parts``, the empty union included."""
    found = {frozenset()}
    for part in parts:
        found |= {union | part for union in found}
    return found


def _fresh(graph: DirectedGraph) -> DirectedGraph:
    """An equal graph that has built nothing yet."""
    return DirectedGraph(graph.vertices, graph.edges)


class TestAgainstTheScan:
    def test_worked_examples(self):
        assert cycles_outside(g_loop, frozenset()) == entrance_free_cycles(g_loop, {"v"})
        assert cycles_outside(g_double, frozenset()) == []
        assert [c.edges for c in cycles_outside(g_flow, frozenset())] == [("a",)]
        assert [c.edges for c in cycles_outside(g_flow, frozenset({"u"}))] == [("b",)]
        assert cycles_outside(g_flow, frozenset({"u", "v"})) == []

    # sparse random graphs are often loops side by side, with up to 2^16
    # unions of tails; those graphs are checked on a seeded sample of them
    SAMPLE = 256

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_unions_of_tails_and_saturated_complements(self, seed):
        rng = random.Random(seed)
        for g in _graphs(seed, 20):
            everything = frozenset(g.vertices)
            unions = sorted(_unions(tail.vertices for tail in enumerate_maximal_tails(g)), key=sorted)
            if len(unions) > 4 * self.SAMPLE:
                unions = rng.sample(unions, self.SAMPLE)
            else:
                hereditary = enumerate_saturated_hereditary(g)
                for h in hereditary:
                    assert cycles_outside(g, h) == entrance_free_cycles(g, everything - h)
                # the two families are one: saturated hereditary sets are
                # exactly the complements of unions of maximal tails
                assert {everything - u for u in unions} == set(hereditary)
            for union in unions:
                assert cycles_outside(g, everything - union) == entrance_free_cycles(g, union)

    def test_components_are_those_with_an_internal_edge(self):
        for g in _graphs(11, 30):
            with_edge = [
                i
                for i, c in enumerate(strongly_connected_components(g))
                if any(s in c and r in c for s, r in g.edges.values())
            ]
            assert cycle_index(g).generators == with_edge


class TestBuiltOnce:
    def test_one_tarjan_run_for_many_lattice_calls(self, monkeypatch):
        g = random_graph(random.Random(13), 12, 24)
        runs = []

        def counted(graph):
            runs.append(graph)
            return strongly_connected_components(graph)

        monkeypatch.setattr(tails, "strongly_connected_components", counted)
        rng = random.Random(17)
        pairs = [random_ideal_pair(rng, g) for _ in range(4)]
        prims = [
            PrimitiveIdeal(tail, F(1, 3) if tail.is_cyclic else 0)
            for tail in enumerate_maximal_tails(g)
        ]
        pair_meet(g, pairs)
        pair_join(g, pairs)
        zero_ideal(g)
        enumerate_primitive_strata(g)
        for p in pairs:
            hull_to_pair(g, hull(g, p))
            ideal_pair(g, p.vertices, p.cycle_sets)
        meet_of_primitives(g, prims)
        for target in prims:
            closure_contains(g, prims[:1], target)
        assert runs == [g]


class TestNeverBuilt:
    G_FLOW = (
        '{"vertices":["u","v"],"edges":['
        '{"id":"a","src":"u","rng":"u"},'
        '{"id":"b","src":"v","rng":"v"},'
        '{"id":"c","src":"u","rng":"v"}]}'
    )

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = tails.build_cycle_index

        def counted(graph):
            built.append(graph)
            return build(graph)

        monkeypatch.setattr(tails, "build_cycle_index", counted)
        return built

    @pytest.mark.parametrize("command, expected", [("sat-hered", 0), ("gauge-lattice", 0), ("tails", 1)])
    def test_graph_commands(self, capsys, builds, command, expected):
        assert main([command, "-g", self.G_FLOW]) == 0
        capsys.readouterr()
        assert len(builds) == expected

    def test_oracle_runs_without_the_index(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("the oracle must not read the cycle index")

        for g in _graphs(19, 8, max_vertices=8, max_edges=14):
            fast_tails = sorted(t.vertices for t in enumerate_maximal_tails(g))
            fast_sets = sorted(enumerate_saturated_hereditary(g))
            fast_cycles = [cycles_outside(g, h) for h in fast_sets]
            fresh = _fresh(g)
            everything = frozenset(fresh.vertices)
            with monkeypatch.context() as patch:
                patch.setattr(tails, "build_cycle_index", refuse)
                assert sorted(oracle.brute_maximal_tails(fresh)) == fast_tails
                assert sorted(oracle.brute_saturated_hereditary(fresh)) == fast_sets
                listed = [oracle.entrance_free_cycles(fresh, everything - h) for h in fast_sets]
            assert listed == fast_cycles
            assert fresh._cycle_index is None
