"""Ideal pairs, primitive ideals, and the lattice operations."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from prim_lattice import (
    STRATUM_CIRCLE,
    STRATUM_POINT,
    ClosedCircleSet,
    Cycle,
    DirectedGraph,
    Hull,
    HullEntry,
    IdealPair,
    MalformedHullError,
    MaximalTail,
    OpenCircleSet,
    PrimitiveIdeal,
    as_primitive,
    classify_tail,
    closure_contains,
    contained_in_prim,
    cycle_base,
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
    random_angle,
    random_graph,
    random_ideal_pair,
    random_primitive,
    random_proper_open_set,
    saturated_hereditary_closure,
    zero_ideal,
)
from prim_lattice import lattice as lattice_module
from prim_lattice.graph import _saturation_fixpoint
from fixtures import fixture_graphs, g_double, g_flow, g_loop

A = Cycle(("a",))
B = Cycle(("b",))
LOOP_TAIL = classify_tail(g_loop, {"v"})
DOUBLE_TAIL = classify_tail(g_double, {"v"})
FLOW_SMALL = classify_tail(g_flow, {"v"})
FLOW_BIG = classify_tail(g_flow, {"u", "v"})


def arcs(*pairs):
    return OpenCircleSet.from_arcs([(F(a), F(b)) for a, b in pairs])


def _literal_set(pair, cycle):
    """The open set ``pair`` gives ``cycle``, found by a linear scan, or ``None``."""
    for key, value in pair.cycle_sets:
        if key == cycle:
            return value
    return None


def _corpus(seed, count=12):
    graphs = list(fixture_graphs().values())
    rng = random.Random(seed)
    while len(graphs) < count:
        graphs.append(random_graph(rng, max_vertices=4, max_edges=6))
    return rng, graphs


class TestPrimitiveIdeal:
    def test_angle_normalised(self):
        assert PrimitiveIdeal(LOOP_TAIL, F(5, 4)).angle == F(1, 4)
        assert PrimitiveIdeal(LOOP_TAIL, "3/4").angle == F(3, 4)

    def test_aperiodic_tail_pins_the_angle(self):
        assert PrimitiveIdeal(DOUBLE_TAIL, 0).angle == 0
        with pytest.raises(ValueError):
            PrimitiveIdeal(DOUBLE_TAIL, F(1, 2))

    def test_strata(self):
        assert enumerate_primitive_strata(g_double) == [(DOUBLE_TAIL, STRATUM_POINT)]
        assert enumerate_primitive_strata(g_loop) == [(LOOP_TAIL, STRATUM_CIRCLE)]
        assert enumerate_primitive_strata(g_flow) == [
            (FLOW_SMALL, STRATUM_CIRCLE),
            (FLOW_BIG, STRATUM_CIRCLE),
        ]


class TestPairValidation:
    def test_vertices_must_be_saturated_hereditary(self):
        with pytest.raises(ValueError):
            ideal_pair(g_flow, {"v"}, {A: OpenCircleSet.empty()})

    def test_keys_must_match_complement_cycles(self):
        with pytest.raises(ValueError):
            ideal_pair(g_flow, set(), {})
        with pytest.raises(ValueError):
            ideal_pair(g_flow, set(), {A: arcs((0, "1/2")), B: arcs((0, "1/2"))})
        with pytest.raises(ValueError):
            ideal_pair(g_flow, {"u"}, {A: arcs((0, "1/2"))})

    def test_values_must_be_proper_open_sets(self):
        with pytest.raises(ValueError):
            ideal_pair(g_loop, set(), {A: OpenCircleSet.full()})
        with pytest.raises(ValueError):
            ideal_pair(g_loop, set(), {A: finite_closed_set([0])})

    def test_duplicate_cycle_key_rejected(self):
        with pytest.raises(ValueError):
            ideal_pair(g_loop, set(), [(["a"], arcs((0, "1/2"))), (A, arcs((0, "1/4")))])

    def test_edge_sequences_accepted_as_keys(self):
        p = ideal_pair(g_loop, [], {("a",): arcs((0, "1/2"))})
        assert p.assignment == {A: arcs((0, "1/2"))}

    def test_bounds(self):
        assert zero_ideal(g_flow).vertices == frozenset()
        assert improper_ideal(g_flow).vertices == {"u", "v"}
        assert improper_ideal(g_flow).cycle_sets == ()
        assert gauge_ideal(g_flow, {"u"}) == ideal_pair(g_flow, {"u"}, {B: OpenCircleSet.empty()})

    def test_vertex_readback(self):
        assert gauge_ideal(g_flow, {"u"}).vertices == {"u"}
        assert zero_ideal(g_loop).vertices == frozenset()


class TestPrimPairTranslation:
    def test_prim_to_pair_catalogue(self):
        big = prim_to_pair(g_flow, PrimitiveIdeal(FLOW_BIG, 0))
        assert big == ideal_pair(g_flow, set(), {A: punctured_circle(0)})
        simple = prim_to_pair(g_double, PrimitiveIdeal(DOUBLE_TAIL, 0))
        assert simple == zero_ideal(g_double)
        small = prim_to_pair(g_flow, PrimitiveIdeal(FLOW_SMALL, F(1, 2)))
        assert small == ideal_pair(g_flow, {"u"}, {B: punctured_circle(F(1, 2))})

    def test_as_primitive_recognises_co_point_sets(self):
        p = ideal_pair(g_loop, set(), {A: punctured_circle(0)})
        assert as_primitive(g_loop, p) == PrimitiveIdeal(LOOP_TAIL, 0)

    def test_as_primitive_rejects_other_shapes(self):
        assert as_primitive(g_loop, ideal_pair(g_loop, set(), {A: arcs((0, "1/2"))})) is None
        assert as_primitive(g_flow, gauge_ideal(g_flow, {"u"})) is None
        # complements that are no maximal tail: empty, and two unrelated loops
        assert as_primitive(g_flow, improper_ideal(g_flow)) is None
        loops = DirectedGraph(["u", "v"], {"a": ("u", "u"), "b": ("v", "v")})
        assert as_primitive(loops, zero_ideal(loops)) is None

    def test_round_trip(self):
        rng, graphs = _corpus(seed=53)
        for g in graphs:
            for _ in range(10):
                prim = random_primitive(rng, g)
                assert as_primitive(g, prim_to_pair(g, prim)) == prim


class TestOrder:
    def test_reflexive(self):
        p = ideal_pair(g_loop, set(), {A: arcs((0, "1/2"))})
        assert pair_leq(g_loop, p, p)

    def test_arc_containment(self):
        lo = ideal_pair(g_loop, set(), {A: arcs(("1/4", "1/2"))})
        hi = ideal_pair(g_loop, set(), {A: arcs((0, "3/5"))})
        assert pair_leq(g_loop, lo, hi)
        assert not pair_leq(g_loop, hi, lo)

    def test_no_condition_on_disjoint_cycle_families(self):
        lo = ideal_pair(g_flow, set(), {A: arcs((0, "1/2"))})
        hi = gauge_ideal(g_flow, {"u"})
        assert pair_leq(g_flow, lo, hi)

    def test_extremes(self):
        rng, graphs = _corpus(seed=59)
        for g in graphs:
            bottom, top = zero_ideal(g), improper_ideal(g)
            for _ in range(8):
                p = random_ideal_pair(rng, g)
                assert pair_leq(g, bottom, p)
                assert pair_leq(g, p, top)

    def test_partial_order_laws(self):
        rng, graphs = _corpus(seed=61)
        for g in graphs:
            sample = [random_ideal_pair(rng, g) for _ in range(6)]
            sample += [zero_ideal(g), improper_ideal(g)]
            for p in sample:
                assert pair_leq(g, p, p)
                for q in sample:
                    if pair_leq(g, p, q) and pair_leq(g, q, p):
                        assert p == q
                    for r in sample:
                        if pair_leq(g, p, q) and pair_leq(g, q, r):
                            assert pair_leq(g, p, r)

    def test_same_tail_primitives_incomparable(self):
        rng, graphs = _corpus(seed=67)
        for g in graphs:
            for tail in enumerate_maximal_tails(g):
                if not tail.is_cyclic:
                    continue
                p = prim_to_pair(g, PrimitiveIdeal(tail, F(1, 3)))
                q = prim_to_pair(g, PrimitiveIdeal(tail, F(2, 3)))
                assert not pair_leq(g, p, q)
                assert not pair_leq(g, q, p)


class TestMeetJoin:
    def test_singletons(self):
        p = ideal_pair(g_loop, set(), {A: arcs((0, "3/5"))})
        assert pair_meet(g_loop, [p]) == p
        assert pair_join(g_loop, [p]) == p

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            pair_meet(g_loop, [])
        with pytest.raises(ValueError):
            pair_join(g_loop, [])

    def test_loop_arc_arithmetic(self):
        v = ideal_pair(g_loop, set(), {A: arcs((0, "3/5"))})
        w = ideal_pair(g_loop, set(), {A: arcs(("1/2", 1))})
        assert pair_meet(g_loop, [v, w]) == ideal_pair(g_loop, set(), {A: arcs(("1/2", "3/5"))})
        joined = pair_join(g_loop, [v, w])
        assert joined == ideal_pair(g_loop, set(), {A: punctured_circle(0)})
        assert as_primitive(g_loop, joined) == PrimitiveIdeal(LOOP_TAIL, 0)

    def test_meet_skips_cycles_buried_in_a_member(self):
        inner = ideal_pair(g_flow, {"u"}, {B: punctured_circle(0)})
        outer = ideal_pair(g_flow, set(), {A: punctured_circle(F(1, 2))})
        assert pair_meet(g_flow, [inner, outer]) == outer

    def test_join_promotes_cycle_covered_by_the_union(self):
        v = ideal_pair(g_flow, set(), {A: arcs((0, "3/5"))})
        w = ideal_pair(g_flow, set(), {A: arcs(("1/2", "11/10"))})
        assert pair_join(g_flow, [v, w]) == gauge_ideal(g_flow, {"u"})

    def test_join_saturates_the_pooled_union_like_the_full_closure(self, monkeypatch):
        rng = random.Random(79)
        cases = []
        for _ in range(40):
            g = random_graph(rng, max_vertices=10, max_edges=20)
            cases.append((g, [random_ideal_pair(rng, g) for _ in range(rng.randint(1, 3))]))
        for g, family in cases:
            pooled = frozenset().union(*(p.vertices for p in family))
            assert _saturation_fixpoint(g, pooled) == saturated_hereditary_closure(g, pooled)
        joins = [pair_join(g, family) for g, family in cases]
        monkeypatch.setattr(lattice_module, "_saturation_fixpoint", saturated_hereditary_closure)
        assert [pair_join(g, family) for g, family in cases] == joins

    @staticmethod
    def _two_pass_join(g, pairs):
        """The join formula taken literally: close, promote, close again.

        Returns the join and whether any cycle was promoted.
        """
        base = saturated_hereditary_closure(g, frozenset().union(*(p.vertices for p in pairs)))

        def pooled_set(cycle):
            value = OpenCircleSet.empty()
            for p in pairs:
                if _literal_set(p, cycle) is not None:
                    value = value.union(_literal_set(p, cycle))
            return value

        promoted = {
            cycle_base(g, c)
            for c in entrance_free_cycles(g, frozenset(g.vertices) - base)
            if pooled_set(c).is_full
        }
        joined = saturated_hereditary_closure(g, base | promoted)
        cycles = entrance_free_cycles(g, frozenset(g.vertices) - joined)
        return IdealPair(joined, tuple((c, pooled_set(c)) for c in cycles)), bool(promoted)

    def test_join_without_promotion_lists_cycles_once(self, monkeypatch):
        rng = random.Random(83)
        listed = []
        lookup = lattice_module.cycles_outside

        def counted(graph, hereditary):
            listed.append(hereditary)
            return lookup(graph, hereditary)

        monkeypatch.setattr(lattice_module, "cycles_outside", counted)
        outcomes = set()
        for _ in range(200):
            g = random_graph(rng, max_vertices=8, max_edges=16)
            family = [random_ideal_pair(rng, g) for _ in range(rng.randint(1, 3))]
            expected, promoted = self._two_pass_join(g, family)
            listed.clear()
            assert pair_join(g, family) == expected
            assert len(listed) == (2 if promoted else 1)
            outcomes.add(promoted)
        # the seeded families exercise both branches
        assert outcomes == {False, True}

    # Literal forms of the other order operations: a linear lookup per
    # cycle, the general entrance-free cycle scan, and closure membership
    # read off a finite closed set.

    @staticmethod
    def _literal_leq(g, left, right):
        if not left.vertices <= right.vertices:
            return False
        for cycle, value in left.cycle_sets:
            if _literal_set(right, cycle) is not None:
                if not value.is_subset(_literal_set(right, cycle)):
                    return False
        return True

    @staticmethod
    def _literal_meet(g, pairs):
        met = frozenset(g.vertices).intersection(*(p.vertices for p in pairs))
        cycle_sets = []
        for cycle in entrance_free_cycles(g, frozenset(g.vertices) - met):
            members = [p for p in pairs if _literal_set(p, cycle) is not None]
            value = _literal_set(members[0], cycle)
            for member in members[1:]:
                value = value.intersect(_literal_set(member, cycle))
            cycle_sets.append((cycle, value))
        return IdealPair(met, tuple(cycle_sets))

    @staticmethod
    def _literal_contained_in_prim(g, pair, prim):
        if pair.vertices & prim.tail.vertices:
            return False
        tail = prim.tail
        if tail.is_cyclic and _literal_set(pair, tail.cycle) is not None:
            return not _literal_set(pair, tail.cycle).contains(prim.angle)
        return True

    @staticmethod
    def _literal_closure_contains(g, prims, target):
        covered = frozenset()
        for prim in prims:
            covered |= prim.tail.vertices
        if not target.tail.vertices <= covered:
            return False
        tail = target.tail
        if tail.is_cyclic and tail.cycle in entrance_free_cycles(g, covered):
            points = finite_closed_set(prim.angle for prim in prims if prim.tail == tail)
            return points.contains(target.angle)
        return True

    def test_order_operations_match_their_literal_forms(self):
        # angles with denominators up to 4 make members' sets cover the
        # circle (promotion) and primitives repeat their points
        rng = random.Random(131)
        seen = set()
        for _ in range(60):
            g = random_graph(rng, max_vertices=16, max_edges=32)
            strata = enumerate_saturated_hereditary(g)
            tails = enumerate_maximal_tails(g)

            def pair():
                h = rng.choice(strata)
                cycles = entrance_free_cycles(g, frozenset(g.vertices) - h)
                sets = {c: random_proper_open_set(rng, max_denominator=4) for c in cycles}
                return ideal_pair(g, h, sets)

            def prim():
                tail = rng.choice(tails)
                return PrimitiveIdeal(tail, random_angle(rng, 4) if tail.is_cyclic else 0)

            sample = [pair() for _ in range(4)]
            points = [prim() for _ in range(4)]
            for _ in range(5):
                family = [rng.choice(sample) for _ in range(rng.randint(1, 3))]
                met, (joined, promoted) = pair_meet(g, family), self._two_pass_join(g, family)
                assert met == self._literal_meet(g, family)
                assert pair_join(g, family) == joined
                seen.add(("promoted", promoted))
                if any(_literal_set(p, c) is None for c, _ in met.cycle_sets for p in family):
                    seen.add("a member leaves a cycle of the meet unconstrained")
                for left in family + [met, joined]:
                    for right in family + [met, joined]:
                        leq = pair_leq(g, left, right)
                        assert leq == self._literal_leq(g, left, right)
                        seen.add(("leq", leq))
                for p in family + [met, joined]:
                    for point in points:
                        inside = contained_in_prim(g, p, point)
                        assert inside == self._literal_contained_in_prim(g, p, point)
                        seen.add(("contained", inside))
                chosen = [rng.choice(points) for _ in range(rng.randint(1, 4))]
                for target in points + chosen:
                    closed = closure_contains(g, chosen, target)
                    assert closed == self._literal_closure_contains(g, chosen, target)
                    seen.add(("closure", closed))
                if len(set(chosen)) < len(chosen):
                    seen.add("a point repeats")
        assert seen == {
            ("promoted", False), ("promoted", True),
            "a member leaves a cycle of the meet unconstrained",
            ("leq", False), ("leq", True),
            ("contained", False), ("contained", True),
            ("closure", False), ("closure", True),
            "a point repeats",
        }

    def test_bounds_and_extremality(self):
        rng, graphs = _corpus(seed=71)
        for g in graphs:
            sample = [random_ideal_pair(rng, g) for _ in range(5)]
            for _ in range(12):
                family = [rng.choice(sample) for _ in range(rng.randint(1, 3))]
                met, joined = pair_meet(g, family), pair_join(g, family)
                for p in family:
                    assert pair_leq(g, met, p)
                    assert pair_leq(g, p, joined)
                for probe in sample:
                    if all(pair_leq(g, probe, p) for p in family):
                        assert pair_leq(g, probe, met)
                    if all(pair_leq(g, p, probe) for p in family):
                        assert pair_leq(g, joined, probe)

    def test_gauge_invariant_sublattice(self):
        rng, graphs = _corpus(seed=73)
        for g in graphs:
            family = enumerate_saturated_hereditary(g)
            for _ in range(15):
                h1, h2 = rng.choice(family), rng.choice(family)
                p1, p2 = gauge_ideal(g, h1), gauge_ideal(g, h2)
                assert is_gauge_invariant(p1)
                met = pair_meet(g, [p1, p2])
                joined = pair_join(g, [p1, p2])
                assert is_gauge_invariant(met) and is_gauge_invariant(joined)
                assert met == gauge_ideal(g, h1 & h2)
                assert joined == gauge_ideal(g, saturated_hereditary_closure(g, h1 | h2))
                assert pair_leq(g, p1, p2) == (h1 <= h2)


class TestContainmentAndClosure:
    def test_contained_in_prim_examples(self):
        p = ideal_pair(g_flow, set(), {A: arcs((0, "1/2"))})
        assert contained_in_prim(g_flow, p, PrimitiveIdeal(FLOW_BIG, 0))
        assert not contained_in_prim(g_flow, p, PrimitiveIdeal(FLOW_BIG, F(1, 4)))

    def test_zero_ideal_in_every_primitive(self):
        rng, graphs = _corpus(seed=79)
        for g in graphs:
            bottom = zero_ideal(g)
            for _ in range(8):
                assert contained_in_prim(g, bottom, random_primitive(rng, g))

    def test_containment_matches_order(self):
        rng, graphs = _corpus(seed=83)
        for g in graphs:
            for _ in range(15):
                p = random_ideal_pair(rng, g)
                prim = random_primitive(rng, g)
                assert contained_in_prim(g, p, prim) == pair_leq(g, p, prim_to_pair(g, prim))

    def test_closure_reflexive(self):
        rng, graphs = _corpus(seed=89)
        for g in graphs:
            for _ in range(8):
                prim = random_primitive(rng, g)
                assert closure_contains(g, [prim], prim)

    def test_closure_examples(self):
        x = [PrimitiveIdeal(FLOW_BIG, F(1, 4)), PrimitiveIdeal(FLOW_BIG, F(3, 4))]
        assert closure_contains(g_flow, x, PrimitiveIdeal(FLOW_SMALL, 0))
        assert not closure_contains(g_flow, x, PrimitiveIdeal(FLOW_BIG, 0))
        assert closure_contains(g_flow, x, PrimitiveIdeal(FLOW_BIG, F(1, 4)))


class TestHull:
    def test_loop_hull(self):
        p = ideal_pair(g_loop, set(), {A: arcs((0, "1/2"))})
        shape = hull(g_loop, p)
        assert shape.entries == (HullEntry(LOOP_TAIL, arcs((0, "1/2")).complement()),)

    def test_improper_ideal_has_empty_hull(self):
        assert hull(g_flow, improper_ideal(g_flow)).entries == ()

    def test_tails_meeting_the_vertex_set_are_dropped(self):
        shape = hull(g_flow, gauge_ideal(g_flow, {"u"}))
        assert shape.entries == (HullEntry(FLOW_SMALL, ClosedCircleSet.full()),)

    def test_unconstrained_cycles_allow_everything(self):
        shape = hull(g_flow, zero_ideal(g_flow))
        full = ClosedCircleSet.full()
        assert shape.entries == (HullEntry(FLOW_SMALL, full), HullEntry(FLOW_BIG, full))

    def test_aperiodic_stratum_uses_the_sentinel_point(self):
        shape = hull(g_double, zero_ideal(g_double))
        assert shape.entries == (HullEntry(DOUBLE_TAIL, finite_closed_set([0])),)

    def test_hull_to_pair_examples(self):
        assert hull_to_pair(g_flow, Hull(())) == improper_ideal(g_flow)
        shape = Hull(
            (
                HullEntry(FLOW_SMALL, ClosedCircleSet.full()),
                HullEntry(FLOW_BIG, finite_closed_set([0])),
            )
        )
        assert hull_to_pair(g_flow, shape) == ideal_pair(g_flow, set(), {A: punctured_circle(0)})

    def test_malformed_hulls_rejected(self):
        fake = MaximalTail(frozenset({"u"}), None, 0)
        with pytest.raises(MalformedHullError):
            hull_to_pair(g_flow, Hull((HullEntry(fake, ClosedCircleSet.full()),)))
        misclassified = MaximalTail(frozenset({"v"}), None, 0)
        with pytest.raises(MalformedHullError):
            hull_to_pair(g_flow, Hull((HullEntry(misclassified, ClosedCircleSet.full()),)))
        doubled = Hull(
            (
                HullEntry(FLOW_SMALL, ClosedCircleSet.full()),
                HullEntry(FLOW_SMALL, finite_closed_set([0])),
            )
        )
        with pytest.raises(MalformedHullError):
            hull_to_pair(g_flow, doubled)

    def test_round_trip(self):
        rng, graphs = _corpus(seed=97)
        for g in graphs:
            for _ in range(20):
                p = random_ideal_pair(rng, g)
                assert hull_to_pair(g, hull(g, p)) == p

    def test_hull_of_kernel_is_the_closure_on_shapes(self):
        """Hull of kernel is the closure; ``test_round_trip`` checks the
        other law of the Galois connection, kernel of hull = identity."""
        rng = random.Random(103)
        probes = [F(k, 24) for k in range(24)]
        for _ in range(40):
            g = random_graph(rng, max_vertices=8, max_edges=14)
            for _ in range(5):
                prims = [random_primitive(rng, g) for _ in range(rng.randint(1, 4))]
                angles = {}
                for prim in prims:
                    angles.setdefault(prim.tail, []).append(prim.angle)
                shape = Hull(tuple(HullEntry(t, finite_closed_set(a)) for t, a in angles.items()))
                kernel = hull_to_pair(g, shape)
                assert kernel == meet_of_primitives(g, prims)
                closure = {entry.tail: entry.allowed for entry in hull(g, kernel).entries}
                for tail in enumerate_maximal_tails(g):
                    for angle in (probes + [p.angle for p in prims]) if tail.is_cyclic else [F(0)]:
                        inside = tail in closure and closure[tail].contains(angle)
                        assert inside == closure_contains(g, prims, PrimitiveIdeal(tail, angle))


@pytest.fixture(scope="module")
def law_triples():
    """Seeded triples of ideal pairs on random graphs of up to 10 vertices.

    Each graph's pool holds random pairs and both extremes, so some
    triples share or cover each other's cycles.
    """
    rng = random.Random(7070)
    triples = []
    for _ in range(100):
        g = random_graph(rng, max_vertices=10, max_edges=20)
        pool = [random_ideal_pair(rng, g) for _ in range(4)]
        pool += [zero_ideal(g), improper_ideal(g)]
        triples += [(g, *(rng.choice(pool) for _ in range(3))) for _ in range(6)]
    return triples


class TestLatticeLaws:
    """The ideal lattice is the lattice of open sets of Prim, so it is a
    distributive lattice: its laws hold as equalities of canonical pairs."""

    def test_distributive(self, law_triples):
        for g, x, y, z in law_triples:
            assert pair_meet(g, [x, pair_join(g, [y, z])]) == pair_join(
                g, [pair_meet(g, [x, y]), pair_meet(g, [x, z])]
            )
            assert pair_join(g, [x, pair_meet(g, [y, z])]) == pair_meet(
                g, [pair_join(g, [x, y]), pair_join(g, [x, z])]
            )

    def test_absorption_and_idempotence(self, law_triples):
        for g, x, y, _ in law_triples:
            assert pair_meet(g, [x, pair_join(g, [x, y])]) == x
            assert pair_join(g, [x, pair_meet(g, [x, y])]) == x
            assert pair_meet(g, [x, x]) == x == pair_join(g, [x, x])

    def test_families_ignore_order_and_grouping(self, law_triples):
        for g, x, y, z in law_triples:
            for op in (pair_meet, pair_join):
                whole = op(g, [x, y, z])
                assert op(g, [z, x, y]) == op(g, [y, z, x]) == whole
                assert op(g, [op(g, [x, y]), z]) == op(g, [x, op(g, [y, z])]) == whole


class TestMeetOfPrimitives:
    def test_singleton(self):
        prim = PrimitiveIdeal(FLOW_SMALL, F(1, 3))
        assert meet_of_primitives(g_flow, [prim]) == prim_to_pair(g_flow, prim)

    def test_two_points_on_one_cycle(self):
        x = [PrimitiveIdeal(FLOW_BIG, F(1, 4)), PrimitiveIdeal(FLOW_BIG, F(3, 4))]
        expected = ideal_pair(g_flow, set(), {A: arcs(("1/4", "3/4"), ("3/4", "5/4"))})
        assert meet_of_primitives(g_flow, x) == expected

    def test_simple_algebra_meets_to_zero(self):
        met = meet_of_primitives(g_double, [PrimitiveIdeal(DOUBLE_TAIL, 0)])
        assert met == zero_ideal(g_double)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            meet_of_primitives(g_flow, [])


class TestGaugeFlags:
    def test_is_gauge_invariant(self):
        assert is_gauge_invariant(ideal_pair(g_loop, set(), {A: OpenCircleSet.empty()}))
        assert not is_gauge_invariant(ideal_pair(g_loop, set(), {A: arcs((0, "1/2"))}))
        assert is_gauge_invariant(gauge_ideal(g_flow, {"u"}))
        assert is_gauge_invariant(improper_ideal(g_flow))
