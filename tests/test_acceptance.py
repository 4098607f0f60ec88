"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line directly
to the terminal (outside pytest's capture) so a full run always shows
the verdict per criterion, then asserts with details.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from prim_lattice import (
    STRATUM_POINT,
    Hull,
    HullEntry,
    InternalInvariantViolation,
    OpenCircleSet,
    PrimitiveIdeal,
    brute_maximal_tails,
    brute_saturated_hereditary,
    check_closure_coherence,
    check_lattice_laws,
    classify_tail,
    closure_contains,
    entrance_free_cycles,
    enumerate_maximal_tails,
    enumerate_primitive_strata,
    enumerate_saturated_hereditary,
    finite_closed_set,
    gauge_ideal,
    hull,
    hull_to_pair,
    ideal_pair,
    improper_ideal,
    is_gauge_invariant,
    meet_of_primitives,
    pair_join,
    pair_leq,
    pair_meet,
    prim_to_pair,
    punctured_circle,
    random_graph,
    random_ideal_pair,
    random_primitive,
    random_proper_open_set,
    saturated_hereditary_closure,
    zero_ideal,
)
from fixtures import fixture_graphs, g_double, g_flow, g_loop


@pytest.fixture
def verdict(capfd):
    def report(number: int, name: str, ok: bool) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}", flush=True)

    return report


@lru_cache(maxsize=None)
def _corpus():
    graphs = list(fixture_graphs().values())
    rng = random.Random(2024)
    while len(graphs) < 203:
        graphs.append(random_graph(rng, max_vertices=5, max_edges=10))
    return tuple(graphs)


def arcs(*pairs):
    return OpenCircleSet.from_arcs([(F(a), F(b)) for a, b in pairs])


def test_criterion_1_tail_enumeration_equivalence(verdict):
    mismatches = []
    for g in _corpus():
        fast = [t.vertices for t in enumerate_maximal_tails(g)]
        slow = brute_maximal_tails(g)
        if fast != slow:
            mismatches.append((g, fast, slow))
    ok = not mismatches
    verdict(1, "tail enumeration equals brute force on 203 graphs", ok)
    assert ok, mismatches[:3]


def test_criterion_2_entrance_free_cycle_uniqueness(verdict):
    violations = []
    for g in _corpus():
        try:
            for tail in enumerate_maximal_tails(g):
                cycles = entrance_free_cycles(g, tail.vertices)
                if len(cycles) > 1:
                    violations.append((g, sorted(tail.vertices), cycles))
        except InternalInvariantViolation as err:
            violations.append((g, "tripwire", str(err)))
    ok = not violations
    verdict(2, "at most one entrance-free cycle per tail", ok)
    assert ok, violations[:3]


def test_criterion_3_hull_round_trip(verdict):
    rng = random.Random(3000)
    failures = []
    for g in fixture_graphs().values():
        for _ in range(500):
            p = random_ideal_pair(rng, g)
            if hull_to_pair(g, hull(g, p)) != p:
                failures.append((g, p))
    ok = not failures
    verdict(3, "hull then rebuild is the identity on 1500 random ideals", ok)
    assert ok, failures[:3]


def test_criterion_4_lattice_laws(verdict):
    rng = random.Random(4000)
    reports = {}
    for name, g in fixture_graphs().items():
        sample = [random_ideal_pair(rng, g) for _ in range(8)]
        sample += [zero_ideal(g), improper_ideal(g)]
        report = check_lattice_laws(g, sample)
        assert report.checked >= 100
        reports[name] = report
    ok = all(r.passed for r in reports.values())
    verdict(4, "meet/join bounds and extremality, tripwires silent", ok)
    assert ok, {n: r.mismatches[:3] for n, r in reports.items() if not r.passed}


def test_criterion_5_closure_coherence(verdict):
    rng = random.Random(5000)
    failures = []
    for name, g in fixture_graphs().items():
        for _ in range(100):
            prims = [random_primitive(rng, g) for _ in range(rng.randint(1, 4))]
            report = check_closure_coherence(g, prims)
            if not report.passed:
                failures.append((name, report.mismatches[:2]))
    ok = not failures
    verdict(5, "closure agrees with meet containment on 300 prim sets", ok)
    assert ok, failures[:3]


def test_criterion_6_loop_graph_is_the_circle_lattice(verdict):
    rng = random.Random(6000)
    cycle = ("a",)
    failures = []
    escalated = kept = 0
    for _ in range(200):
        v = random_proper_open_set(rng)
        w = random_proper_open_set(rng)
        pv = ideal_pair(g_loop, set(), {cycle: v})
        pw = ideal_pair(g_loop, set(), {cycle: w})
        met = pair_meet(g_loop, [pv, pw])
        if met != ideal_pair(g_loop, set(), {cycle: v.intersect(w)}):
            failures.append(("meet", v, w, met))
        joined = pair_join(g_loop, [pv, pw])
        union = v.union(w)
        if union.is_proper():
            kept += 1
            if joined != ideal_pair(g_loop, set(), {cycle: union}):
                failures.append(("join", v, w, joined))
        else:
            escalated += 1
            if joined != improper_ideal(g_loop):
                failures.append(("escalation", v, w, joined))
    ok = not failures and escalated > 0 and kept > 0
    verdict(6, "single-loop ideals mirror circle arc arithmetic", ok)
    assert ok, (failures[:3], escalated, kept)


def test_criterion_7_double_loop_simplicity(verdict):
    tails = enumerate_maximal_tails(g_double)
    strata = enumerate_primitive_strata(g_double)
    only = PrimitiveIdeal(classify_tail(g_double, {"v"}), 0)
    checks = [
        [t.vertices for t in tails] == [frozenset({"v"})],
        tails[0].kind == "aperiodic",
        enumerate_saturated_hereditary(g_double) == [frozenset(), frozenset({"v"})],
        strata == [(tails[0], STRATUM_POINT)],
        meet_of_primitives(g_double, [only]) == zero_ideal(g_double),
    ]
    ok = all(checks)
    verdict(7, "two-loop graph is simple with one primitive ideal", ok)
    assert ok, checks


def test_criterion_8_flow_graph_catalogue(verdict):
    small = classify_tail(g_flow, {"v"})
    big = classify_tail(g_flow, {"u", "v"})
    checks = {
        "tails": enumerate_maximal_tails(g_flow) == [small, big]
        and small.cycle.edges == ("b",)
        and big.cycle.edges == ("a",)
        and small.period == big.period == 1,
        "sat-hered": enumerate_saturated_hereditary(g_flow)
        == [frozenset(), frozenset({"u"}), frozenset({"u", "v"})],
        "prim-to-pair": (
            prim_to_pair(g_flow, PrimitiveIdeal(big, 0))
            == ideal_pair(g_flow, set(), {("a",): punctured_circle(0)})
            and prim_to_pair(g_flow, PrimitiveIdeal(small, F(1, 2)))
            == ideal_pair(g_flow, {"u"}, {("b",): punctured_circle(F(1, 2))})
            and prim_to_pair(g_double, PrimitiveIdeal(classify_tail(g_double, {"v"}), 0))
            == zero_ideal(g_double)
        ),
        "meet": (
            pair_meet(
                g_loop,
                [
                    ideal_pair(g_loop, set(), {("a",): arcs((0, "3/5"))}),
                    ideal_pair(g_loop, set(), {("a",): arcs(("1/2", 1))}),
                ],
            )
            == ideal_pair(g_loop, set(), {("a",): arcs(("1/2", "3/5"))})
            and pair_meet(
                g_flow,
                [
                    ideal_pair(g_flow, {"u"}, {("b",): punctured_circle(0)}),
                    ideal_pair(g_flow, set(), {("a",): punctured_circle(F(1, 2))}),
                ],
            )
            == ideal_pair(g_flow, set(), {("a",): punctured_circle(F(1, 2))})
        ),
        "join": (
            pair_join(
                g_loop,
                [
                    ideal_pair(g_loop, set(), {("a",): arcs((0, "3/5"))}),
                    ideal_pair(g_loop, set(), {("a",): arcs(("1/2", 1))}),
                ],
            )
            == ideal_pair(g_loop, set(), {("a",): punctured_circle(0)})
            and pair_join(
                g_flow,
                [
                    ideal_pair(g_flow, set(), {("a",): arcs((0, "3/5"))}),
                    ideal_pair(g_flow, set(), {("a",): arcs(("1/2", "11/10"))}),
                ],
            )
            == gauge_ideal(g_flow, {"u"})
        ),
        "closure": (
            closure_contains(
                g_flow,
                [PrimitiveIdeal(big, F(1, 4)), PrimitiveIdeal(big, F(3, 4))],
                PrimitiveIdeal(small, 0),
            )
            is True
            and closure_contains(
                g_flow,
                [PrimitiveIdeal(big, F(1, 4)), PrimitiveIdeal(big, F(3, 4))],
                PrimitiveIdeal(big, 0),
            )
            is False
        ),
    }
    ok = all(checks.values())
    verdict(8, "two-vertex flow graph catalogue matches frozen values", ok)
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_9_gauge_invariant_sublattice(verdict):
    rng = random.Random(9000)
    failures = []
    for g in _corpus()[:60]:
        family = enumerate_saturated_hereditary(g)
        pairs = {h: gauge_ideal(g, h) for h in family}
        if len(family) <= 8:
            probes = [(h1, h2) for h1 in family for h2 in family]
        else:
            probes = [(rng.choice(family), rng.choice(family)) for _ in range(40)]
        for h1, h2 in probes:
            p1, p2 = pairs[h1], pairs[h2]
            if pair_leq(g, p1, p2) != (h1 <= h2):
                failures.append(("order", g, h1, h2))
            met = pair_meet(g, [p1, p2])
            joined = pair_join(g, [p1, p2])
            if not (is_gauge_invariant(met) and is_gauge_invariant(joined)):
                failures.append(("closure", g, h1, h2))
            if met != pairs[h1 & h2]:
                failures.append(("meet", g, h1, h2))
            if joined != pairs[saturated_hereditary_closure(g, h1 | h2)]:
                failures.append(("join", g, h1, h2))
    ok = not failures
    verdict(9, "gauge-invariant ideals mirror the vertex-set lattice", ok)
    assert ok, failures[:3]


def test_criterion_10_hull_of_kernel_is_the_closure(verdict):
    """hull ∘ kernel = closure on finite sets of primitives; the other law
    of the Galois connection, kernel ∘ hull = id, is criterion 3."""
    rng = random.Random(10000)
    probes = [F(k, 24) for k in range(24)]
    failures = []
    for g in _corpus()[:60]:
        tails = enumerate_maximal_tails(g)
        for _ in range(5):
            prims = [random_primitive(rng, g) for _ in range(rng.randint(1, 4))]
            angles = {}
            for prim in prims:
                angles.setdefault(prim.tail, []).append(prim.angle)
            shape = Hull(tuple(HullEntry(t, finite_closed_set(a)) for t, a in angles.items()))
            closure = {entry.tail: entry.allowed for entry in hull(g, hull_to_pair(g, shape)).entries}
            for tail in tails:
                for angle in probes + [p.angle for p in prims] if tail.is_cyclic else [F(0)]:
                    inside = tail in closure and closure[tail].contains(angle)
                    if inside != closure_contains(g, prims, PrimitiveIdeal(tail, angle)):
                        failures.append((g, prims, tail, angle))
    ok = not failures
    verdict(10, "hull of kernel is the closure on 300 finite sets of primitives", ok)
    assert ok, failures[:3]
