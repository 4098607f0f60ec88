"""Closure and containment of primitive ideals read off the tail order.

``closure_contains`` and ``contained_in_prim`` look at a tail through the
component that generates it: its Tarjan position and one of that
component's vertices.  These tests land the three facts that
make this exact (see ``tail_laws``), and hold both functions to the
literal vertex-set forms they replaced, also for tails that keep no
position (built by hand or unpickled) or keep one from an equal graph.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction as F

import pytest

from prim_lattice import (
    DirectedGraph,
    MaximalTail,
    PrimitiveIdeal,
    closure_contains,
    contained_in_prim,
    enumerate_maximal_tails,
    is_entrance_free,
    random_graph,
    random_ideal_pair,
)
from prim_lattice.jsonio import tail_from_json, tail_to_json
from fixtures import census_graphs, fixture_graphs, g_flow
from tail_laws import (
    entrance_faults,
    generator_faults,
    hereditary_sample,
    inclusion_faults,
    tail_families,
)


def _graphs(seed: int, count: int, low: int, high: int) -> list[DirectedGraph]:
    """``count`` seeded ``random_graph`` draws with ``low`` to ``high`` vertices."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng, high, 2 * high)
        if len(g.vertices) >= low:
            graphs.append(g)
    return graphs


FAMILIES = {
    "fixtures": list(fixture_graphs().values()),
    "census": list(census_graphs(3, 4)),
    "12-16 vertices": _graphs(31, 24, 12, 16),
}


def test_the_census_slice_is_whole():
    assert len(FAMILIES["census"]) == 234


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestLaws:
    def test_a_tail_lies_in_another_exactly_when_that_holds_its_generators_vertex(self, family):
        for g in FAMILIES[family]:
            assert inclusion_faults(g) == [], g

    def test_a_saturated_hereditary_set_misses_a_tail_exactly_when_it_misses_its_generator(
        self, family
    ):
        rng = random.Random(37)
        for g in FAMILIES[family]:
            assert generator_faults(g, hereditary_sample(g, rng, 128)) == [], g

    def test_a_cycle_is_entrance_free_in_a_union_exactly_when_its_holders_share_its_generator(
        self, family
    ):
        rng = random.Random(41)
        for g in FAMILIES[family]:
            assert entrance_faults(g, tail_families(g, rng, 128)) == [], g


def test_the_flow_graph_by_hand():
    big, small = sorted(enumerate_maximal_tails(g_flow), key=lambda t: -len(t.vertices))
    # the big tail is generated by u, which reaches v; v does not reach u
    assert big.cycle.edges == ("a",) and small.cycle.edges == ("b",)
    assert not generator_faults(g_flow, [frozenset(), frozenset({"u"}), frozenset({"u", "v"})])
    # b is entered from u, so it is entrance-free in the small tail alone
    assert is_entrance_free(g_flow, small.cycle, small.vertices)
    assert not is_entrance_free(g_flow, small.cycle, big.vertices)
    assert not entrance_faults(g_flow, [[small], [big], [small, big]])


def _literal_contained(pair, prim) -> bool:
    """``contained_in_prim`` as it read on vertex sets."""
    tail = prim.tail
    if not pair.vertices.isdisjoint(tail.vertices):
        return False
    key = tail.cycle.edges if tail.is_cyclic else None
    return not any(c.edges == key and value.contains(prim.angle) for c, value in pair.cycle_sets)


def _literal_closure(graph, prims, target) -> bool:
    """``closure_contains`` by its definition, on the union of the tails."""
    tail = target.tail
    if not any(tail.vertices <= prim.tail.vertices for prim in prims):
        return False
    union = frozenset().union(*(prim.tail.vertices for prim in prims))
    if tail.is_cyclic and is_entrance_free(graph, tail.cycle, union):
        return any(prim.angle == target.angle and prim.tail == tail for prim in prims)
    return True


ANGLES = [F(k, 12) for k in range(12)] + [F(1, 7)]


def _forms(copy, tail) -> list[MaximalTail]:
    """The tail built by hand, unpickled, and decoded against ``copy``, an equal graph."""
    return [
        MaximalTail(tail.vertices, tail.cycle, tail.period),
        pickle.loads(pickle.dumps(tail)),
        tail_from_json(copy, tail_to_json(tail)),
    ]


@pytest.mark.parametrize("family", ["fixtures", "random"])
def test_records_with_no_stored_position_answer_alike(family):
    graphs = list(fixture_graphs().values()) if family == "fixtures" else _graphs(43, 40, 1, 10)
    rng = random.Random(47)
    for g in graphs:
        tails = enumerate_maximal_tails(g)
        copy = DirectedGraph(g.vertices, g.edges)
        forms = {tail: _forms(copy, tail) for tail in tails}
        for tail, (by_hand, unpickled, decoded) in forms.items():
            assert by_hand == unpickled == decoded == tail
            assert by_hand._home is None and unpickled._home is None
            assert decoded._home == tail._home is not None
        pairs = [random_ideal_pair(rng, g) for _ in range(6)]
        for tail in tails:
            for angle in ANGLES if tail.is_cyclic else [F(0)]:
                prim = PrimitiveIdeal(tail, angle)
                for pair in pairs:
                    expected = _literal_contained(pair, prim)
                    assert contained_in_prim(g, pair, prim) == expected
                    for form in forms[tail]:
                        assert contained_in_prim(g, pair, PrimitiveIdeal(form, angle)) == expected
        # two primitives a tail, so a set can hold two points of one stratum
        prims = [
            PrimitiveIdeal(t, rng.choice(ANGLES) if t.is_cyclic else 0) for t in tails for _ in "ab"
        ]
        for _ in range(40):
            chosen = rng.sample(prims, rng.randint(1, min(4, len(prims))))
            target = rng.choice(prims)
            expected = _literal_closure(g, chosen, target)
            assert closure_contains(g, chosen, target) == expected
            for k in range(3):
                # every member and the target in the same one of the three forms
                moved = [PrimitiveIdeal(forms[p.tail][k], p.angle) for p in chosen]
                goal = PrimitiveIdeal(forms[target.tail][k], target.angle)
                assert closure_contains(g, moved, goal) == expected
