"""The lattice operations build their results without re-validating them.

Validation runs once, at the boundary (``ideal_pair``, ``gauge_ideal``,
``classify_tail``, ``PrimitiveIdeal`` and the JSON decoders).  These
tests check on seeded random graphs that every result the operations
build directly would also pass that validation unchanged, and that the
boundary functions still reject unknown vertices.
"""

from __future__ import annotations

import random

import pytest

from prim_lattice import (
    ClosedCircleSet,
    Cycle,
    Hull,
    HullEntry,
    MalformedHullError,
    OpenCircleSet,
    UnknownVertexError,
    classify_tail,
    entrance_free_cycles,
    gauge_ideal,
    hereditary_closure,
    hull,
    hull_to_pair,
    ideal_pair,
    improper_ideal,
    is_entrance_free,
    is_hereditary,
    is_maximal_tail,
    is_saturated_hereditary,
    meet_of_primitives,
    pair_join,
    pair_meet,
    prim_to_pair,
    random_graph,
    random_ideal_pair,
    random_primitive,
    reachable_ranges,
    zero_ideal,
)
from fixtures import fixture_graphs, g_flow, g_loop


def _graphs(seed=2024, count=40):
    rng = random.Random(seed)
    graphs = list(fixture_graphs().values())
    while len(graphs) < count:
        graphs.append(random_graph(rng, max_vertices=rng.randint(1, 6), max_edges=10))
    return rng, graphs


def _built(rng, graph):
    """Every kind of result the lattice operations build directly."""
    sample = [random_ideal_pair(rng, graph) for _ in range(4)]
    prims = [random_primitive(rng, graph) for _ in range(3)]
    yield zero_ideal(graph)
    yield improper_ideal(graph)
    for prim in prims:
        yield prim_to_pair(graph, prim)
    yield meet_of_primitives(graph, prims)
    for size in (1, 2, 3):
        yield pair_meet(graph, sample[:size])
        yield pair_join(graph, sample[-size:])
    for pair in sample:
        yield hull_to_pair(graph, hull(graph, pair))


def test_built_results_pass_boundary_validation():
    rng, graphs = _graphs()
    checked = 0
    for graph in graphs:
        for result in _built(rng, graph):
            assert ideal_pair(graph, result.vertices, result.cycle_sets) == result
            checked += 1
    assert checked > 500


UNKNOWN = {"v", "nowhere"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify_tail(g_loop, UNKNOWN),
        lambda: gauge_ideal(g_loop, UNKNOWN),
        lambda: ideal_pair(g_loop, UNKNOWN, {}),
        lambda: is_maximal_tail(g_loop, UNKNOWN),
        lambda: is_saturated_hereditary(g_loop, UNKNOWN),
        lambda: is_hereditary(g_loop, UNKNOWN),
        lambda: hereditary_closure(g_loop, UNKNOWN),
        lambda: reachable_ranges(g_loop, UNKNOWN),
        lambda: entrance_free_cycles(g_loop, UNKNOWN),
        lambda: is_entrance_free(g_loop, Cycle(("a",)), UNKNOWN),
    ],
    ids=[
        "classify_tail",
        "gauge_ideal",
        "ideal_pair",
        "is_maximal_tail",
        "is_saturated_hereditary",
        "is_hereditary",
        "hereditary_closure",
        "reachable_ranges",
        "entrance_free_cycles",
        "is_entrance_free",
    ],
)
def test_unknown_vertex_rejected(call):
    with pytest.raises(UnknownVertexError, match="nowhere"):
        call()


class TestHullToPairLookup:
    SMALL = classify_tail(g_flow, {"v"})
    BIG = classify_tail(g_flow, {"u", "v"})
    HALF = ClosedCircleSet((), ("1/2",))

    def test_omitted_strata_on_random_graphs(self):
        # every entrance-free cycle of the union of the kept strata is the
        # cycle of a kept stratum, so omitted strata never show up in U
        rng, graphs = _graphs(seed=31)
        for graph in graphs:
            entries = hull(graph, random_ideal_pair(rng, graph)).entries
            kept = tuple(e for e in entries if rng.random() < 0.6)
            pair = hull_to_pair(graph, Hull(kept))
            assert ideal_pair(graph, pair.vertices, pair.cycle_sets) == pair
            own = {e.tail.cycle: e for e in kept if e.tail.is_cyclic}
            for cycle, value in pair.cycle_sets:
                assert value == own[cycle].allowed.complement()

    def test_omitting_a_cyclic_stratum(self):
        only_big = Hull((HullEntry(self.BIG, self.HALF),))
        assert hull_to_pair(g_flow, only_big).cycle_sets == (
            (Cycle(("a",)), self.HALF.complement()),
        )
        only_small = Hull((HullEntry(self.SMALL, ClosedCircleSet.full()),))
        pair = hull_to_pair(g_flow, only_small)
        assert pair.vertices == {"u"}
        assert pair.cycle_sets == ((Cycle(("b",)), OpenCircleSet.empty()),)

    def test_stratum_on_a_fed_cycle_is_not_read(self):
        # in {u, v}, cycle 'b' is fed by 'c', so the small stratum sets nothing
        shape = Hull(
            (
                HullEntry(self.BIG, ClosedCircleSet.full()),
                HullEntry(self.SMALL, ClosedCircleSet.empty()),
            )
        )
        assert hull_to_pair(g_flow, shape).cycle_sets == ((Cycle(("a",)), OpenCircleSet.empty()),)

    def test_stratum_allowing_no_point_is_malformed(self):
        shape = Hull((HullEntry(self.SMALL, ClosedCircleSet.empty()),))
        with pytest.raises(MalformedHullError, match="allows no point"):
            hull_to_pair(g_flow, shape)
