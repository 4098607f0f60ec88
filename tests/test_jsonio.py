"""Codec round trips: parse after print is the identity."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest

from prim_lattice import (
    ClosedCircleSet,
    DirectedGraph,
    Hull,
    HullEntry,
    MalformedHullError,
    OpenCircleSet,
    PrimitiveIdeal,
    classify_tail,
    enumerate_maximal_tails,
    enumerate_primitive_strata,
    finite_closed_set,
    hull,
    hull_to_pair,
    ideal_pair,
    punctured_circle,
    random_graph,
    random_ideal_pair,
    random_primitive,
    random_proper_open_set,
)
from prim_lattice import jsonio
from fixtures import (
    antichain, cascade, chain, fixture_graphs, g_double, g_flow, g_loop, random_flow,
)


def _corpus(seed, count=10):
    graphs = list(fixture_graphs().values())
    rng = random.Random(seed)
    while len(graphs) < count:
        graphs.append(random_graph(rng, max_vertices=4, max_edges=6))
    return rng, graphs


class TestCanonicalDumps:
    def test_compact_sorted_unicode(self):
        text = jsonio.canonical_dumps({"b": 1, "a": "\U0001d54b"})
        assert text == '{"a":"𝕋","b":1}'


class TestGraphCodec:
    def test_round_trip(self):
        rng, graphs = _corpus(seed=151)
        for g in graphs:
            assert jsonio.graph_from_json(jsonio.graph_to_json(g)) == g

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            jsonio.graph_from_json([1, 2])

    def test_rejects_bad_edge_rows(self):
        with pytest.raises(ValueError, match="'id', 'src' and 'rng'"):
            jsonio.graph_from_json({"vertices": ["v"], "edges": {"a": ["v", "v"]}})
        with pytest.raises(ValueError, match="'id', 'src' and 'rng'"):
            jsonio.graph_from_json({"vertices": ["v"], "edges": [{"id": "a"}]})
        with pytest.raises(ValueError, match="'id', 'src' and 'rng'"):
            jsonio.graph_from_json({"vertices": ["v"], "edges": None})


def _tables(graph) -> list:
    """Everything a graph's builder makes, each table in its dict order."""
    return [
        graph.vertices,
        *(list(table.items()) for table in (graph.edges, graph._in, graph._out, graph._in_degree)),
    ]


def _literal_tables(vertices, rows) -> list:
    """The tables :func:`_tables` reads, as the builder's contract states them."""
    edges = sorted(rows)
    ins = [(v, tuple(e for e, _, r in edges if r == v)) for v in sorted(vertices)]
    outs = [(v, tuple(e for e, s, _ in edges if s == v)) for v in sorted(vertices)]
    degrees = [(v, len(es)) for v, es in ins]
    return [tuple(sorted(vertices)), [(e, (s, r)) for e, s, r in edges], ins, outs, degrees]


class TestOneBuilderBehindBothEntryPoints:
    """The JSON reader and the public constructor build the same tables."""

    @staticmethod
    def _graphs():
        yield from (chain(12), antichain(6), cascade(9))
        yield from (random_flow(n, 2 * n, seed) for n in (5, 17, 28) for seed in range(2))
        rng = random.Random("one builder")
        for _ in range(200):
            yield random_graph(rng, max_vertices=8, max_edges=16)

    def test_same_tables(self):
        rng = random.Random(7)
        for g in self._graphs():
            rows = [(e, s, r) for e, (s, r) in g.edges.items()]
            rng.shuffle(rows)
            vertices = list(g.vertices)
            rng.shuffle(vertices)
            document = jsonio.graph_to_json(g)
            rng.shuffle(document["edges"])
            rng.shuffle(document["vertices"])
            built = [
                jsonio.graph_from_json(jsonio.graph_to_json(g)),
                jsonio.graph_from_json(document),
                DirectedGraph(g.vertices, rows),
                DirectedGraph(vertices, {e: (s, r) for e, s, r in reversed(rows)}),
            ]
            expected = _literal_tables(vertices, rows)
            for graph in built:
                assert type(graph) is DirectedGraph and graph._cycle_index is None
                assert _tables(graph) == expected, g


class TestCircleCodecs:
    def test_open_set_forms(self):
        assert jsonio.open_set_to_json(OpenCircleSet.full()) == "full"
        assert jsonio.open_set_to_json(OpenCircleSet.empty()) == "empty"
        wrap = punctured_circle(F(1, 2))
        assert jsonio.open_set_to_json(wrap) == [["1/2", "3/2"]]
        assert jsonio.open_set_from_json([["1/2", "3/2"]]) == wrap
        assert jsonio.open_set_from_json("full") == OpenCircleSet.full()
        assert jsonio.open_set_from_json("empty") == OpenCircleSet.empty()
        with pytest.raises(ValueError):
            jsonio.open_set_from_json({"arcs": []})

    def test_open_set_round_trip(self):
        rng = random.Random(157)
        for _ in range(100):
            s = random_proper_open_set(rng)
            assert jsonio.open_set_from_json(jsonio.open_set_to_json(s)) == s

    def test_closed_set_forms(self):
        assert jsonio.closed_set_to_json(ClosedCircleSet.full()) == "full"
        assert jsonio.closed_set_to_json(ClosedCircleSet.empty()) == "empty"
        mixed = ClosedCircleSet(((F(0), F(1, 4)),), (F(1, 2),))
        assert jsonio.closed_set_to_json(mixed) == {
            "arcs": [["0", "1/4"]],
            "points": ["1/2"],
        }
        assert jsonio.closed_set_from_json("full") == ClosedCircleSet.full()
        assert jsonio.closed_set_from_json("empty") == ClosedCircleSet.empty()
        with pytest.raises(ValueError):
            jsonio.closed_set_from_json(["1/2"])

    def test_closed_set_round_trip(self):
        rng = random.Random(163)
        for _ in range(100):
            s = random_proper_open_set(rng).complement()
            assert jsonio.closed_set_from_json(jsonio.closed_set_to_json(s)) == s


class TestTailCodec:
    def test_round_trip(self):
        rng, graphs = _corpus(seed=167)
        for g in graphs:
            for tail in enumerate_maximal_tails(g):
                assert jsonio.tail_from_json(g, jsonio.tail_to_json(tail)) == tail

    def test_vertices_alone_suffice(self):
        assert jsonio.tail_from_json(g_flow, {"vertices": ["v"]}) == classify_tail(
            g_flow, {"v"}
        )

    def test_rejects_bare_vertex_lists(self):
        with pytest.raises(ValueError, match="'vertices' field"):
            jsonio.tail_from_json(g_flow, ["v"])
        with pytest.raises(ValueError, match="'vertices' field"):
            jsonio.tail_from_json(g_flow, {"kind": "cyclic"})

    def test_declared_fields_are_cross_checked(self):
        with pytest.raises(ValueError):
            jsonio.tail_from_json(g_flow, {"vertices": ["v"], "kind": "aperiodic"})
        with pytest.raises(ValueError):
            jsonio.tail_from_json(g_flow, {"vertices": ["v"], "cycle": ["a"]})
        with pytest.raises(ValueError):
            jsonio.tail_from_json(g_flow, {"vertices": ["v"], "period": 2})

    @pytest.mark.parametrize("period", [True, 1.0, "1"])
    def test_period_must_be_a_json_integer(self, period):
        with pytest.raises(ValueError, match="must be a JSON integer"):
            jsonio.tail_from_json(g_loop, {"vertices": ["v"], "period": period})
        assert jsonio.tail_from_json(g_loop, {"vertices": ["v"], "period": 1}).period == 1

    def test_aperiodic_shape(self):
        data = jsonio.tail_to_json(classify_tail(g_double, {"v"}))
        assert data == {"vertices": ["v"], "kind": "aperiodic", "cycle": None, "period": 0}


class TestLatticeCodecs:
    def test_prim_round_trip(self):
        rng, graphs = _corpus(seed=173)
        for g in graphs:
            for _ in range(5):
                prim = random_primitive(rng, g)
                data = jsonio.prim_to_json(prim)
                assert jsonio.prim_from_json(g, data) == prim

    def test_prim_json_shape(self):
        prim = PrimitiveIdeal(classify_tail(g_loop, {"v"}), F(1, 2))
        assert jsonio.prim_to_json(prim) == {
            "tail": {"vertices": ["v"], "kind": "cyclic", "cycle": ["a"], "period": 1},
            "z": "1/2",
        }

    def test_prim_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="'tail' and 'z'"):
            jsonio.prim_from_json(g_loop, {"tail": {"vertices": ["v"]}})
        with pytest.raises(ValueError, match="'vertices' field"):
            jsonio.prim_from_json(g_loop, {"tail": ["v"], "z": "0"})

    def test_pair_round_trip(self):
        rng, graphs = _corpus(seed=179)
        for g in graphs:
            for _ in range(10):
                p = random_ideal_pair(rng, g)
                assert jsonio.pair_from_json(g, jsonio.pair_to_json(p)) == p

    def test_pair_json_shape(self):
        p = ideal_pair(g_flow, {"u"}, {("b",): punctured_circle(F(1, 2))})
        assert jsonio.pair_to_json(p) == {
            "H": ["u"],
            "U": [{"cycle": ["b"], "set": [["1/2", "3/2"]]}],
        }

    def test_pair_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="'H' and 'U'"):
            jsonio.pair_from_json(g_loop, [["a", "full"]])
        with pytest.raises(ValueError, match="'cycle' and 'set'"):
            jsonio.pair_from_json(g_loop, {"H": [], "U": [["a", "full"]]})

    def test_list_readers_decode_each_item(self):
        pairs = [random_ideal_pair(random.Random(seed), g_flow) for seed in range(3)]
        data = [jsonio.pair_to_json(p) for p in pairs]
        assert jsonio.pairs_from_json(g_flow, data) == pairs
        prims = [random_primitive(random.Random(seed), g_flow) for seed in range(3)]
        data = [jsonio.prim_to_json(p) for p in prims]
        assert jsonio.prims_from_json(g_flow, data) == prims

    @pytest.mark.parametrize("data", [{}, "[]", None])
    def test_list_readers_want_arrays(self, data):
        with pytest.raises(ValueError, match="must be a JSON array"):
            jsonio.pairs_from_json(g_loop, data)
        with pytest.raises(ValueError, match="must be a JSON array"):
            jsonio.prims_from_json(g_loop, data)

    def test_hull_round_trip(self):
        rng, graphs = _corpus(seed=181)
        for g in graphs:
            for _ in range(10):
                shape = hull(g, random_ideal_pair(rng, g))
                data = jsonio.hull_to_json(shape)
                assert jsonio.hull_from_json(g, data) == shape
                assert json.loads(jsonio.canonical_dumps(data)) == data

    def test_hull_errors(self):
        with pytest.raises(MalformedHullError):
            jsonio.hull_from_json(g_flow, {"tail": {}})
        with pytest.raises(MalformedHullError, match="'tail' and 'allowed'"):
            jsonio.hull_from_json(g_flow, [{"tail": {"vertices": ["v"]}}])
        bad_entry = [{"tail": {"vertices": ["u"]}, "allowed": "full"}]
        with pytest.raises(MalformedHullError):
            jsonio.hull_from_json(g_flow, bad_entry)

    def test_hull_must_be_a_closed_set(self):
        # the closure of the {u,v} stratum at 0 also holds the whole {v} stratum
        open_shape = [{"tail": {"vertices": ["u", "v"]}, "allowed": {"points": ["0"]}}]
        with pytest.raises(MalformedHullError, match="not a closed set"):
            jsonio.hull_from_json(g_flow, open_shape)
        closed = open_shape + [{"tail": {"vertices": ["v"]}, "allowed": "full"}]
        assert jsonio.hull_from_json(g_flow, closed[::-1]).entries[0].tail.vertices == {"v"}
        # an aperiodic stratum holds only the point 0
        with pytest.raises(MalformedHullError, match="not a closed set"):
            jsonio.hull_from_json(g_double, [{"tail": {"vertices": ["v"]}, "allowed": "full"}])

    def test_hull_accepts_exactly_the_hulls_of_kernels(self):
        rng, graphs = _corpus(seed=191, count=30)
        seen = set()
        for g in graphs:
            for _ in range(10):
                angles = {}
                for prim in (random_primitive(rng, g) for _ in range(rng.randint(1, 3))):
                    angles.setdefault(prim.tail, set()).add(prim.angle)
                shape = Hull(tuple(HullEntry(t, finite_closed_set(a)) for t, a in angles.items()))
                closure = hull(g, hull_to_pair(g, shape))
                closed = set(closure.entries) == set(shape.entries)
                seen.add(closed)
                data = jsonio.hull_to_json(shape)
                if closed:
                    assert jsonio.hull_from_json(g, data) == shape
                else:
                    with pytest.raises(MalformedHullError, match="not a closed set"):
                        jsonio.hull_from_json(g, data)
        assert seen == {True, False}

    def test_strata_shape(self):
        data = jsonio.strata_to_json(enumerate_primitive_strata(g_double))
        assert data == [
            {
                "tail": {"vertices": ["v"], "kind": "aperiodic", "cycle": None, "period": 0},
                "z": "z = 1",
            }
        ]
