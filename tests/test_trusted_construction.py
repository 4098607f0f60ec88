"""The lattice operations build their results without re-validating them.

Validation runs once, at the boundary (``ideal_pair``, ``gauge_ideal``,
``classify_tail``, ``PrimitiveIdeal`` and the JSON decoders).  These
tests check on seeded random graphs that every result the operations
build directly would also pass that validation unchanged, and that the
boundary functions still reject unknown vertices and coerce no input.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from prim_lattice import (
    ClosedCircleSet,
    Cycle,
    DirectedGraph,
    GraphAlgebraError,
    Hull,
    HullEntry,
    MalformedHullError,
    OpenCircleSet,
    UnknownVertexError,
    as_angle,
    classify_tail,
    cycle_from_edges,
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
    saturated_hereditary_closure,
    tail_of_cycle,
    zero_ideal,
)
import prim_lattice
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


def test_hull_strata_are_what_the_closed_set_check_builds():
    # hull builds every stratum's set directly, the {0} shared by all
    # aperiodic strata included: each must equal, integers beside the
    # fields too, the set the checking constructor builds from its fields
    rng, graphs = _graphs(seed=2025)
    aperiodic = 0
    for graph in graphs:
        for _ in range(4):
            for entry in hull(graph, random_ideal_pair(rng, graph)).entries:
                allowed = entry.allowed
                checked = ClosedCircleSet(allowed.arcs, allowed.points, allowed.is_full)
                assert checked == allowed and checked._pieces == allowed._pieces
                aperiodic += not entry.tail.is_cyclic
    assert aperiodic > 40


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


# each walk on the flow graph, asked about three unknown vertices
NAMES_AN_UNKNOWN_VERTEX = """
from prim_lattice import DirectedGraph, hereditary_closure, reachable_ranges
g = DirectedGraph(["u", "v"], {"a": ("u", "u"), "b": ("v", "v"), "c": ("u", "v")})
for walk in (hereditary_closure, reachable_ranges):
    try:
        walk(g, {"x", "y", "z"})
    except ValueError as err:
        print(err)
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_walks_name_the_least_unknown_vertex_under_every_hash_seed(seed):
    # a set's iteration order follows string hashing, which changes from
    # process to process; the error must not
    package_root = str(Path(prim_lattice.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", NAMES_AN_UNKNOWN_VERTEX],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=package_root),
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "unknown vertex 'x'\n" * 2


# ids whose order carries meaning, given as sets, which iterate in hash order
ORDERED_IDS_AS_SETS = """
from prim_lattice import Cycle, DirectedGraph, GraphAlgebraError
for build in (
    lambda: DirectedGraph(["u", "v"], [{"e", "u", "v"}, ("a", "u", "u"), ("b", "v", "v")]),
    lambda: DirectedGraph(["u", "v"], {"e": {"u", "v"}, "a": ("u", "u"), "b": ("v", "v")}),
    lambda: Cycle({"x", "y", "z"}),
):
    try:
        print(build())
    except GraphAlgebraError as err:
        print(err)
"""


def test_ordered_ids_given_as_a_set_are_refused_under_every_hash_seed():
    # read in hash order, the first row built e: v->u under some seeds and
    # named a dangling endpoint under others, and the cycle's rotation varied
    package_root = str(Path(prim_lattice.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(1, 5):
        result = subprocess.run(
            [sys.executable, "-c", ORDERED_IDS_AS_SETS],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=package_root),
        )
        assert (result.returncode, result.stderr) == (0, "")
        outputs.add(result.stdout)
    assert outputs == {
        "an edge must list string ids in order, not as a set\n"
        "an edge's ends must list string ids in order, not as a set\n"
        "a cycle must list string ids in order, not as a set\n"
    }


@pytest.mark.parametrize("row", [(), ("a",), ("a", "u"), ("a", "u", "u", "u")], ids=len)
def test_an_edge_row_that_is_no_triple_is_one_error_line(row):
    with pytest.raises(GraphAlgebraError) as caught:
        DirectedGraph(["u"], [("b", "u", "u"), row])
    assert str(caught.value) == f"an edge must be an (id, source, range) triple: {row!r}"


TWO_CYCLE = DirectedGraph(["u", "v"], {"a": ("u", "v"), "b": ("v", "u")})


class TestNoSilentCoercion:
    """A string where ids are expected, an id that is no string, and a float or
    bool where an angle is expected are each one error line, not a guess."""

    REJECTED = {
        "graph vertices as one string": lambda: DirectedGraph("uv", [("a", "u", "u"), ("b", "v", "v")]),
        "graph vertices as integers": lambda: DirectedGraph([1, 2], [("a", "1", "1"), ("b", "2", "2")]),
        "an edge's ends as one string": lambda: DirectedGraph(["u", "v"], {"a": "uu", "b": "uv"}),
        "an edge id as an integer": lambda: DirectedGraph(["u"], [(0, "u", "u")]),
        "a pair's vertices as one string": lambda: ideal_pair(g_flow, "uv", {}),
        "a cycle as one string": lambda: cycle_from_edges(TWO_CYCLE, "ab"),
        "a cycle's edges as one string": lambda: Cycle("ab"),
        "an edge row as a set": lambda: DirectedGraph(["u"], [{"a", "u"}]),
        "an edge's ends as a set": lambda: DirectedGraph(["u", "v"], {"a": {"u", "v"}}),
        "a cycle's edges as a set": lambda: Cycle({"a", "b"}),
        "a cycle as a frozenset": lambda: cycle_from_edges(TWO_CYCLE, frozenset({"a", "b"})),
        "an assignment key as a frozenset": lambda: ideal_pair(
            TWO_CYCLE, (), {frozenset({"a", "b"}): OpenCircleSet()}
        ),
        "a tail's cycle as a set": lambda: tail_of_cycle(TWO_CYCLE, {"a", "b"}),
        "a closure's start as one string": lambda: hereditary_closure(g_flow, "uv"),
        "a reach's start as one string": lambda: reachable_ranges(g_flow, "uv"),
        "a saturation's start as one string": lambda: saturated_hereditary_closure(g_flow, "uv"),
        "an angle as a float": lambda: as_angle(0.1),
        "an angle as a bool": lambda: as_angle(True),
        "an arc endpoint as a float": lambda: OpenCircleSet.from_arcs([(0.25, 0.5)]),
        "a point as a float": lambda: ClosedCircleSet((), (0.5,)),
    }

    @pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected(self, call):
        with pytest.raises(GraphAlgebraError) as caught:
            call()
        assert "\n" not in str(caught.value)

    def test_the_exact_forms_still_read(self):
        assert DirectedGraph(("u", "v"), {"a": ("u", "u"), "b": ("v", "v"), "c": ("u", "v")}) == g_flow
        assert DirectedGraph(["u", "v"], [("a", "u", "v"), ("b", "v", "u")]) == TWO_CYCLE
        assert cycle_from_edges(TWO_CYCLE, ("b", "a")) == Cycle(("a", "b"))
        assert ideal_pair(g_flow, ["u", "v"], {}).vertices == {"u", "v"}
        assert cycle_from_edges(g_flow, ["a"]) == Cycle(("a",))
        assert as_angle(F(11, 10)) == as_angle("1/10") == as_angle(-9) + F(1, 10) == F(1, 10)
        assert OpenCircleSet.from_arcs([(F(1, 4), "1/2")]) == OpenCircleSet.from_arcs([("1/4", "1/2")])

    def test_messages_name_the_input(self):
        with pytest.raises(GraphAlgebraError, match="a vertex set must list string ids: 'uv'"):
            ideal_pair(g_flow, "uv", {})
        with pytest.raises(GraphAlgebraError, match="angle 0.1 is a float, not exact"):
            as_angle(0.1)
        with pytest.raises(GraphAlgebraError, match=r"open arc \(0.25, 0.5\) has an inexact endpoint"):
            OpenCircleSet.from_arcs([(0.25, 0.5)])


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
