"""The value records: equality, hashing, ordering, immutability, construction."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

import prim_lattice
from prim_lattice import (
    ClosedCircleSet,
    Cycle,
    Hull,
    HullEntry,
    IdealPair,
    MaximalTail,
    OpenCircleSet,
    OracleReport,
    PrimitiveIdeal,
    classify_tail,
    finite_closed_set,
    zero_ideal,
)
from prim_lattice.record import Record, set_field
from fixtures import g_flow, g_loop

LOOP_TAIL = classify_tail(g_loop, {"v"})
FLOW_TAIL = classify_tail(g_flow, {"u", "v"})


def _samples():
    """One record of every class, paired with its field tuple."""
    half = OpenCircleSet(((0, F(1, 2)),))
    closed = ClosedCircleSet(((0, F(1, 4)),), (F(1, 2),))
    entry = HullEntry(LOOP_TAIL, closed)
    pair = zero_ideal(g_loop)
    prim = PrimitiveIdeal(LOOP_TAIL, F(1, 3))
    return [
        (half, (((F(0), F(1, 2)),), False)),
        (closed, (((F(0), F(1, 4)),), (F(1, 2),), False)),
        (Cycle(("b", "a")), (("a", "b"),)),
        (LOOP_TAIL, (frozenset({"v"}), Cycle(("a",)), 1)),
        (prim, (LOOP_TAIL, F(1, 3))),
        (pair, (frozenset(), ((Cycle(("a",)), OpenCircleSet()),))),
        (entry, (LOOP_TAIL, closed)),
        (Hull((entry,)), ((entry,),)),
    ]


class TestEquality:
    def test_equal_to_a_rebuilt_copy(self):
        for record, fields in _samples():
            twin = type(record)(*fields)
            assert record == twin and not record != twin
            assert hash(record) == hash(twin)

    def test_hash_is_hash_of_the_field_tuple(self):
        for record, fields in _samples():
            assert hash(record) == hash(fields)

    def test_unequal_across_classes_with_equal_fields(self):
        assert Hull(("a",)) != Cycle(("a",))
        assert HullEntry(frozenset(), ()) != IdealPair(frozenset(), ())
        assert OpenCircleSet() != ClosedCircleSet()
        for record, fields in _samples():
            assert record != fields

    def test_unequal_when_a_field_differs(self):
        assert OpenCircleSet.full() != OpenCircleSet()
        assert PrimitiveIdeal(LOOP_TAIL, F(1, 3)) != PrimitiveIdeal(LOOP_TAIL, F(1, 2))
        assert LOOP_TAIL != FLOW_TAIL
        assert Cycle(("a",)) != Cycle(("b",))

    def test_set_and_dict_membership(self):
        records = [record for record, _ in _samples()]
        table = {record: i for i, record in enumerate(records)}
        for i, (record, fields) in enumerate(_samples()):
            assert table[type(record)(*fields)] == i
        assert len(set(records + records)) == len(records)

    def test_repr_names_class_and_fields(self):
        assert repr(Cycle(("b", "a"))) == "Cycle(edges=('a', 'b'))"
        assert repr(OpenCircleSet.full()) == "OpenCircleSet(arcs=(), is_full=True)"
        assert repr(finite_closed_set([F(1, 2)])) == (
            "ClosedCircleSet(arcs=(), points=(Fraction(1, 2),), is_full=False)"
        )


class TestCycleOrder:
    def test_rotations_compare_and_hash_equal(self):
        rotations = [Cycle(("c", "a", "b")), Cycle(("a", "b", "c")), Cycle(("b", "c", "a"))]
        assert len(set(rotations)) == 1
        assert len({hash(c) for c in rotations}) == 1
        assert all(c.edges == ("a", "b", "c") for c in rotations)

    def test_sorts_by_canonical_rotation(self):
        cycles = [Cycle(("b",)), Cycle(("c", "a")), Cycle(("a", "d")), Cycle(("a",))]
        assert [c.edges for c in sorted(cycles)] == [("a",), ("a", "c"), ("a", "d"), ("b",)]
        assert min(cycles) == Cycle(("a",))
        assert Cycle(("a",)) < Cycle(("b",)) <= Cycle(("b",))
        assert Cycle(("b",)) > Cycle(("a", "z")) >= Cycle(("z", "a"))

    def test_no_order_against_other_types(self):
        with pytest.raises(TypeError):
            Cycle(("a",)) < ("a",)


class TestImmutability:
    def test_assignment_raises(self):
        for record, _ in _samples():
            name = record.__slots__[0]
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_copy_and_pickle_round_trip(self):
        for record, _ in _samples():
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record


class TestConstruction:
    def test_defaults(self):
        assert OpenCircleSet().arcs == () and not OpenCircleSet().is_full
        assert ClosedCircleSet().is_empty()
        report = OracleReport()
        assert report.checked == 0 and report.mismatches == [] and report.passed

    def test_keywords(self):
        assert OpenCircleSet(is_full=True) == OpenCircleSet.full()
        assert OpenCircleSet(arcs=((0, F(1, 2)),)) == OpenCircleSet(((0, F(1, 2)),))
        assert ClosedCircleSet(points=(F(3, 2),)) == finite_closed_set([F(1, 2)])
        assert ClosedCircleSet(is_full=True).is_full
        assert Cycle(edges=("b", "a")).edges == ("a", "b")
        tail = MaximalTail(vertices=frozenset({"v"}), cycle=Cycle(("a",)), period=1)
        assert tail == LOOP_TAIL
        assert PrimitiveIdeal(tail=tail, angle="5/4").angle == F(1, 4)
        assert IdealPair(vertices=frozenset(), cycle_sets=()) == IdealPair(frozenset(), ())
        assert HullEntry(tail=tail, allowed=ClosedCircleSet()).tail == tail
        assert Hull(entries=()).entries == ()
        assert OracleReport(checked=2).checked == 2

    def test_construction_canonicalises(self):
        assert OpenCircleSet(((F(1, 2), 1), (0, F(1, 2)))).arcs == ((0, F(1, 2)), (F(1, 2), 1))
        assert OpenCircleSet(((0, 2),)).is_full
        assert ClosedCircleSet(points=(F(1, 2), F(3, 2))).points == (F(1, 2),)

    def test_oracle_report_is_mutable_and_unhashable(self):
        report = OracleReport()
        report.checked += 1
        report.record("one")
        assert report == OracleReport(1, ["one"])
        assert not report.passed
        with pytest.raises(TypeError):
            hash(report)

    def test_a_subclass_defining_eq_alone_is_unhashable(self):
        class Named(Record):
            __slots__ = ("name",)

            def __init__(self, name):
                set_field(self, "name", name)

            def __eq__(self, other):
                return isinstance(other, Named) and self.name.lower() == other.name.lower()

        assert Named("A") == Named("a") and Named.__hash__ is None
        with pytest.raises(TypeError):
            hash(Named("a"))


class TestPackageSurface:
    def test_every_exported_name_resolves(self):
        assert len(set(prim_lattice.__all__)) == len(prim_lattice.__all__)
        for name in prim_lattice.__all__:
            assert getattr(prim_lattice, name) is not None

    def test_oracle_names_load_lazily(self):
        from prim_lattice import oracle

        assert prim_lattice.brute_maximal_tails is oracle.brute_maximal_tails
        with pytest.raises(AttributeError):
            prim_lattice.no_such_name
