"""The brute-force reference layer and the randomized law checkers."""

from __future__ import annotations

import ast
import itertools
import random
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

from prim_lattice import (
    DirectedGraph,
    InternalInvariantViolation,
    OracleReport,
    PrimitiveIdeal,
    TooLargeError,
    brute_maximal_tails,
    brute_saturated_hereditary,
    check_closure_coherence,
    check_lattice_laws,
    classify_tail,
    closure_contains,
    contained_in_prim,
    entrance_free_cycles,
    enumerate_maximal_tails,
    enumerate_saturated_hereditary,
    ideal_pair,
    improper_ideal,
    meet_of_primitives,
    pair_join,
    pair_meet,
    random_graph,
    random_ideal_pair,
    random_primitive,
    random_proper_open_set,
    validate,
    zero_ideal,
)
from fixtures import census_graphs, fixture_graphs, g_double, g_flow, g_loop
from prim_lattice import oracle as oracle_module


class TestBruteForce:
    def test_maximal_tails_on_fixtures(self):
        assert brute_maximal_tails(g_loop) == [frozenset({"v"})]
        assert brute_maximal_tails(g_double) == [frozenset({"v"})]
        assert brute_maximal_tails(g_flow) == [
            frozenset({"v"}),
            frozenset({"u", "v"}),
        ]

    def test_saturated_hereditary_on_fixtures(self):
        assert brute_saturated_hereditary(g_loop) == [frozenset(), frozenset({"v"})]
        assert brute_saturated_hereditary(g_double) == [frozenset(), frozenset({"v"})]
        assert brute_saturated_hereditary(g_flow) == [
            frozenset(),
            frozenset({"u"}),
            frozenset({"u", "v"}),
        ]

    def test_agrees_with_fast_enumeration(self):
        rng = random.Random(101)
        for _ in range(30):
            g = random_graph(rng, max_vertices=5, max_edges=8)
            assert brute_saturated_hereditary(g) == enumerate_saturated_hereditary(g)

    def test_saturated_hereditary_up_to_the_guard(self):
        # the sat-hered sets are exactly the complements of unions of maximal
        # tails; lattices of more than 4 096 sets take seconds to list, so
        # ten graphs of 12 to 16 vertices with smaller lattices are checked
        rng = random.Random(149)
        checked = 0
        while checked < 10:
            g = random_graph(rng, 16, 28)
            if len(g.vertices) < 12:
                continue
            brute = brute_saturated_hereditary(g)
            if len(brute) > 4096:
                continue
            checked += 1
            assert sorted(enumerate_saturated_hereditary(g), key=sorted) == sorted(brute, key=sorted)
            unions = {frozenset()}
            for tail in enumerate_maximal_tails(g):
                unions |= {union | tail.vertices for union in unions}
            assert {frozenset(g.vertices) - union for union in unions} == set(brute)

    def test_meet_and_join_against_primitive_containment_up_to_the_guard(self):
        # primitive ideals are prime: P contains I meet J exactly when it
        # contains I or J, and I join J exactly when it contains both.  P is
        # a tail T with an angle z, and it contains the pair (H, U) when H
        # misses T and z lies outside the set U gives T's cycle, if any
        def contains(pair, vertices, cycle, z):
            if pair.vertices & vertices:
                return False
            arcs = [arc for c, value in pair.cycle_sets if c == cycle for arc in value.arcs]
            return not any(a < z < b or a < z + 1 < b for a, b in arcs)

        rng = random.Random(157)
        checked = 0
        while checked < 8:
            g = random_graph(rng, 16, 32)
            if len(g.vertices) < 12:
                continue
            family = enumerate_saturated_hereditary(g)
            if len(family) > 4096:
                continue
            checked += 1
            tails = [(t, classify_tail(g, t).cycle) for t in brute_maximal_tails(g)]
            for _ in range(4):
                left, right = random_ideal_pair(rng, g, family), random_ideal_pair(rng, g, family)
                met, joined = pair_meet(g, [left, right]), pair_join(g, [left, right])
                ends = {F(0)}
                for pair in (left, right, met, joined):
                    ends.update(e % 1 for _, value in pair.cycle_sets for arc in value.arcs for e in arc)
                ends = sorted(ends)
                grid = ends + [(x + y) / 2 % 1 for x, y in zip(ends, ends[1:] + [ends[0] + 1])]
                for vertices, cycle in tails:
                    for z in grid if cycle else [F(0)]:
                        i, j, m, u = (contains(p, vertices, cycle, z) for p in (left, right, met, joined))
                        assert m == (i or j)
                        assert u == (i and j)

    def test_closure_against_the_hull_of_the_meet_up_to_the_guard(self):
        # the closure of primitives P_i = (T_i, z_i) is the hull of their meet.
        # The meet leaves out the union U of the tails, and on each cycle c
        # entrance-free in U (the reference scan) it is c's circle minus the
        # z_i of the tails whose own cycle is c.  P = (T, z) contains the meet
        # when T misses the rest and, if T's own cycle is such a c, z is one
        # of those z_i
        rng = random.Random(163)
        checked = 0
        while checked < 6:
            g = random_graph(rng, 16, 32)
            if len(g.vertices) < 12:
                continue
            checked += 1
            brute = brute_maximal_tails(g)
            # each tail's own cycle, the one entrance-free in it, by the scan
            own = {t: next(iter(entrance_free_cycles(g, t)), None) for t in brute}
            tails = [classify_tail(g, t) for t in brute]
            for _ in range(6):
                prims = [
                    PrimitiveIdeal(t, oracle_module.random_angle(rng) if t.is_cyclic else F(0))
                    for t in rng.sample(tails, min(len(tails), rng.randint(1, 3)))
                ]
                union = frozenset().union(*(p.tail.vertices for p in prims))
                removed = {c: set() for c in entrance_free_cycles(g, union)}
                for p in prims:
                    if own[p.tail.vertices] in removed:
                        removed[own[p.tail.vertices]].add(p.angle)
                grid = {F(0)} | {p.angle for p in prims} | {F(2 * k + 1, 48) for k in range(24)}
                for tail in tails:
                    cycle = own[tail.vertices]
                    for z in sorted(grid) if cycle else [F(0)]:
                        literal = tail.vertices <= union and (
                            cycle not in removed or z in removed[cycle]
                        )
                        assert closure_contains(g, prims, PrimitiveIdeal(tail, z)) == literal

    def test_a_tail_inside_a_union_of_tails_lies_in_one_of_them(self):
        # a maximal tail is everything one of its vertices reaches, and each
        # tail of the union that holds that vertex holds all it reaches
        rng = random.Random(167)
        for _ in range(40):
            g = random_graph(rng, 12, 24)
            tails = brute_maximal_tails(g)
            for size in range(1, min(len(tails), 4) + 1):
                for family in itertools.combinations(tails, size):
                    union = frozenset().union(*family)
                    for tail in tails:
                        if tail <= union:
                            assert any(tail <= member for member in family)

    def test_subset_guard(self):
        big = validate(
            DirectedGraph(
                [f"v{i}" for i in range(17)],
                {f"a{i}": (f"v{i}", f"v{i}") for i in range(17)},
            )
        )
        with pytest.raises(TooLargeError):
            brute_maximal_tails(big)
        with pytest.raises(TooLargeError):
            brute_saturated_hereditary(big)


class TestReport:
    def test_pass_fail(self):
        report = OracleReport()
        assert report.passed
        report.record("off by one")
        assert not report.passed
        assert report.mismatches == ["off by one"]


def test_the_oracle_reads_no_cycle_index():
    # the oracle checks the fast paths, so it must not reach the cycle index
    # they read, by an import or through a module attribute
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"cycle_index", "cycles_outside", "build_cycle_index", "CycleIndex"}


class TestSelfCheck:
    """The ``oracle`` command's report, built in one place."""

    def test_census_of_small_multigraphs(self):
        # loops and parallel edges on every vertex, where random graphs are thinnest
        graphs = list(census_graphs(3, 4))
        assert len(graphs) == 234
        for g in graphs:
            for seed in (0, 1):
                report = oracle_module.self_check(g, seed, 4)
                assert report["pass"], (g, seed, report)

    def test_report_shape(self, monkeypatch):
        boom = OracleReport(3, ["boom"])
        monkeypatch.setattr(oracle_module, "check_lattice_laws", lambda graph, sample: boom)
        report = oracle_module.self_check(g_flow, 0, 2)
        assert report["pass"] is False
        assert report["checks"]["lattice_laws"] == {
            "pass": False,
            "checked": 3,
            "mismatches": ["boom"],
        }
        assert all(
            set(check) == {"pass", "checked", "mismatches"} and check["pass"]
            for name, check in report["checks"].items()
            if name != "lattice_laws"
        )

    def test_agreement_lists_both_families(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "brute_maximal_tails", lambda graph: [])
        check = oracle_module.self_check(g_flow, 0, 0)["checks"]["tails"]
        assert check == {
            "pass": False,
            "checked": 0,
            "mismatches": [{"fast": [["v"], ["u", "v"]], "brute": []}],
        }

    def test_agreement_ignores_the_order_of_equal_families(self):
        a, b, ab = frozenset("a"), frozenset("b"), frozenset("ab")
        assert oracle_module._agreement([b, a, ab], [a, b, ab]) == OracleReport(3)
        report = oracle_module._agreement([b, ab], [a, ab])
        assert report.mismatches == [{"fast": [["b"], ["a", "b"]], "brute": [["a"], ["a", "b"]]}]

    def test_guard_comes_before_the_fast_paths(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("a fast path ran on a graph past the guard")

        monkeypatch.setattr(oracle_module, "enumerate_maximal_tails", refuse)
        big = validate(
            DirectedGraph(
                [f"v{i}" for i in range(17)],
                {f"a{i}": (f"v{i}", f"v{i}") for i in range(17)},
            )
        )
        with pytest.raises(TooLargeError):
            oracle_module.self_check(big, 0, 0)

    @pytest.mark.parametrize("seed, coherence", [(0, 28), (3, 20), (5, 16)])
    def test_draw_order_is_pinned(self, seed, coherence):
        # pairs first, then primitives, from one stream: the primitives drawn
        # set the angle grid, and so how many closures are checked
        checks = oracle_module.self_check(g_flow, seed, 3)["checks"]
        assert checks["closure_coherence"]["checked"] == coherence
        assert checks["lattice_laws"]["checked"] == 3 + 6 + 2 * 10


class TestLawChecker:
    def test_single_pair_idempotence(self):
        p = ideal_pair(g_loop, set(), {("a",): random_proper_open_set(random.Random(1))})
        report = check_lattice_laws(g_loop, [p])
        assert report.passed and report.checked > 0

    def test_random_samples_pass(self):
        rng = random.Random(103)
        for g in fixture_graphs().values():
            sample = [random_ideal_pair(rng, g) for _ in range(5)]
            assert check_lattice_laws(g, sample).passed

    def test_bounds_absorb_extremes(self):
        rng = random.Random(107)
        sample = [random_ideal_pair(rng, g_flow) for _ in range(3)]
        sample += [zero_ideal(g_flow), improper_ideal(g_flow)]
        assert check_lattice_laws(g_flow, sample).passed

    def test_tripwire_is_recorded_not_raised(self, monkeypatch):
        # a tripwire is no domain error, so the checker names it on its own
        def broken(graph, pairs):
            raise InternalInvariantViolation("planted invariant break")

        monkeypatch.setattr(oracle_module, "pair_join", broken)
        report = check_lattice_laws(g_flow, [zero_ideal(g_flow), improper_ideal(g_flow)])
        assert not report.passed and report.checked == 0
        assert all("tripwire" in m and "planted invariant break" in m for m in report.mismatches)

    def test_counts_a_family_of_three_twice(self):
        # families from a sample of 5: 5 singletons, 15 pairs and 35 triples
        rng = random.Random(127)
        report = check_lattice_laws(g_flow, [random_ideal_pair(rng, g_flow) for _ in range(5)])
        assert report.passed and report.checked == 5 + 15 + 2 * 35

    def test_non_distributive_lattice_is_flagged(self, monkeypatch):
        # the diamond 0 < a, b, c < 1 is a lattice, so every bound and
        # extremality check passes, but a meet (b join c) = a while
        # (a meet b) join (a meet c) = 0
        class Element:
            def __init__(self, name):
                self.vertices = frozenset([name])

        bottom, a, b, c, top = map(Element, "0abc1")

        def leq(graph, x, y):
            return x is y or x is bottom or y is top

        def meet(x, y):
            return x if leq(None, x, y) else y if leq(None, y, x) else bottom

        def join(x, y):
            return y if leq(None, x, y) else x if leq(None, y, x) else top

        monkeypatch.setattr(oracle_module, "pair_leq", leq)
        monkeypatch.setattr(oracle_module, "pair_meet", lambda graph, family: reduce(meet, family))
        monkeypatch.setattr(oracle_module, "pair_join", lambda graph, family: reduce(join, family))
        report = check_lattice_laws(None, [bottom, a, b, c, top])
        assert report.checked == 5 + 15 + 2 * 35
        assert report.mismatches and all(
            m.startswith("distributive law meet over join fails on ")
            or m.startswith("distributive law join over meet fails on ")
            for m in report.mismatches
        )
        assert "distributive law meet over join fails on [['a'], ['b'], ['c']]" in report.mismatches


class TestClosureChecker:
    def test_worked_example_grid(self):
        tail = classify_tail(g_flow, {"u", "v"})
        x = [PrimitiveIdeal(tail, F(1, 4)), PrimitiveIdeal(tail, F(3, 4))]
        report = check_closure_coherence(g_flow, x)
        assert report.passed and report.checked == 8
        # the checker probes both cyclic tails at 0, 1/4, 1/2 and 3/4; here
        # every eighth of a turn is probed as well
        met = meet_of_primitives(g_flow, x)
        for probe in enumerate_maximal_tails(g_flow):
            for k in range(8):
                target = PrimitiveIdeal(probe, F(k, 8))
                assert closure_contains(g_flow, x, target) == contained_in_prim(g_flow, met, target)

    def test_single_primitive(self):
        rng = random.Random(109)
        for g in fixture_graphs().values():
            prim = random_primitive(rng, g)
            assert check_closure_coherence(g, [prim]).passed

    def test_simple_fixture(self):
        # an aperiodic tail is probed at angle zero alone
        prim = PrimitiveIdeal(classify_tail(g_double, {"v"}), 0)
        report = check_closure_coherence(g_double, [prim])
        assert report.passed and report.checked == 1

    def test_random_sets_pass(self):
        rng = random.Random(113)
        for g in fixture_graphs().values():
            for _ in range(10):
                prims = [random_primitive(rng, g) for _ in range(rng.randint(1, 4))]
                assert check_closure_coherence(g, prims).passed


class TestGenerators:
    def test_graphs_are_validated_and_bounded(self):
        rng = random.Random(127)
        for _ in range(100):
            g = random_graph(rng, max_vertices=5, max_edges=10)
            assert validate(g) is g
            assert 1 <= len(g.vertices) <= 5
            assert len(g.edges) <= 10

    def test_graphs_are_reproducible(self):
        a = random_graph(random.Random(42))
        b = random_graph(random.Random(42))
        assert a == b

    def test_proper_open_sets(self):
        rng = random.Random(131)
        for _ in range(200):
            s = random_proper_open_set(rng)
            assert s.is_proper()

    def test_pairs_revalidate(self):
        rng = random.Random(137)
        for g in fixture_graphs().values():
            for _ in range(10):
                p = random_ideal_pair(rng, g)
                assert ideal_pair(g, p.vertices, p.assignment) == p

    def test_primitives_respect_the_aperiodic_pin(self):
        rng = random.Random(139)
        for _ in range(20):
            prim = random_primitive(rng, g_double)
            assert prim.angle == 0
