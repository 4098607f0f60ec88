"""The brute-force reference layer and the randomized law checkers."""

from __future__ import annotations

import random
from fractions import Fraction as F

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
    enumerate_saturated_hereditary,
    ideal_pair,
    improper_ideal,
    random_graph,
    random_ideal_pair,
    random_primitive,
    random_proper_open_set,
    validate,
    zero_ideal,
)
from fixtures import fixture_graphs, g_double, g_flow, g_loop
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


class TestClosureChecker:
    def test_worked_example_grid(self):
        tail = classify_tail(g_flow, {"u", "v"})
        x = [PrimitiveIdeal(tail, F(1, 4)), PrimitiveIdeal(tail, F(3, 4))]
        grid = [F(k, 8) for k in range(8)]
        report = check_closure_coherence(g_flow, x, grid)
        assert report.passed and report.checked >= 16

    def test_single_primitive(self):
        rng = random.Random(109)
        for g in fixture_graphs().values():
            prim = random_primitive(rng, g)
            assert check_closure_coherence(g, [prim]).passed

    def test_simple_fixture(self):
        prim = PrimitiveIdeal(classify_tail(g_double, {"v"}), 0)
        grid = [F(k, 4) for k in range(4)]
        assert check_closure_coherence(g_double, [prim], grid).passed

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
