"""Exact circle-set algebra, checked against rational grid sampling."""

from __future__ import annotations

import functools
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from prim_lattice import circle
from prim_lattice import (
    ClosedCircleSet,
    OpenCircleSet,
    as_angle,
    finite_closed_set,
    format_angle,
    punctured_circle,
)


def _grid(*sets):
    """All multiples of 1/N for N twice the lcm of every denominator seen.

    Endpoints land on the grid and so do points strictly between any two
    of them, so two canonical sets agree everywhere iff they agree here.
    """
    denominators = [1]
    for s in sets:
        for a, b in s.arcs:
            denominators += [a.denominator, b.denominator]
        for p in getattr(s, "points", ()):
            denominators.append(p.denominator)
    n = 2 * math.lcm(*denominators)
    return [F(k, n) for k in range(n)]


def _random_open(rng):
    arcs = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 10)
        start = F(rng.randrange(d), d)
        e = rng.randint(1, 10)
        length = F(rng.randint(1, e), e)
        arcs.append((start, start + length))
    return OpenCircleSet.from_arcs(arcs)


class TestAngles:
    def test_parse_and_format(self):
        assert as_angle("1/2") == F(1, 2)
        assert as_angle("0") == 0
        assert format_angle(F(3, 4)) == "3/4"
        assert format_angle(F(0)) == "0"

    def test_wraps_onto_the_circle(self):
        assert as_angle(F(11, 10)) == F(1, 10)
        assert as_angle(-F(1, 4)) == F(3, 4)


class TestCanonicalForm:
    def test_overlapping_arcs_merge(self):
        s = OpenCircleSet.from_arcs([(F(0), F(3, 5)), (F(1, 2), F(1))])
        assert s.arcs == ((F(0), F(1)),)

    def test_touching_open_arcs_stay_split(self):
        s = OpenCircleSet.from_arcs([(F(0), F(1, 2)), (F(1, 2), F(1))])
        assert s.arcs == ((F(0), F(1, 2)), (F(1, 2), F(1)))

    def test_wraparound_cover_detected_as_full(self):
        s = OpenCircleSet.from_arcs([(F(0), F(3, 5)), (F(1, 2), F(11, 10))])
        assert s.is_full

    def test_wrap_arc_swallows_leading_arc(self):
        s = OpenCircleSet.from_arcs([(F(0), F(1, 2)), (F(1, 2), F(3, 2))])
        assert s.arcs == ((F(1, 2), F(3, 2)),)

    def test_wrap_arc_contains_seam(self):
        s = OpenCircleSet.from_arcs([(F(3, 4), F(9, 8))])
        assert s.contains(0)
        assert s.contains(F(7, 8))
        assert not s.contains(F(1, 8))
        assert not s.contains(F(3, 4))

    def test_circle_minus_point(self):
        s = punctured_circle(F(1, 2))
        assert s.arcs == ((F(1, 2), F(3, 2)),)
        assert s.is_proper()
        assert not s.contains(F(1, 2))
        assert s.contains(0)

    def test_punctured_circle_is_the_checked_arc(self):
        # built straight from its one canonical piece, it must equal the
        # outside-input route, integers beside the fields included
        rng = random.Random(211)
        long = 10**3999 + 7
        angles = [0, F(0), F(1, 2), F(long - 1, long), F(rng.randrange(long), long)]
        angles += [F(rng.randrange(d), d) for d in (rng.randint(1, 720) for _ in range(40))]
        for z in angles:
            z = as_angle(z)
            built, checked = punctured_circle(z), OpenCircleSet(((z, z + 1),))
            assert built == checked and hash(built) == hash(checked)
            assert built._pieces == checked._pieces

    def test_union_of_one_set_is_that_set(self):
        s = OpenCircleSet.from_arcs([(F(3, 4), F(9, 8)), (F(1, 4), F(1, 2))])
        assert circle.open_union([s]) is s
        assert circle.open_union([OpenCircleSet.full()]).is_full
        assert circle.open_union([]) == OpenCircleSet.empty()

    def test_degenerate_arc_rejected(self):
        with pytest.raises(ValueError):
            OpenCircleSet.from_arcs([(F(1, 2), F(1, 2))])

    def test_closed_touching_pieces_merge(self):
        s = ClosedCircleSet(((F(0), F(1, 4)), (F(1, 4), F(1, 2))), ())
        assert s.arcs == ((F(0), F(1, 2)),)
        full = ClosedCircleSet(((F(0), F(1, 2)), (F(1, 2), F(1))), ())
        assert full.is_full

    def test_closed_point_absorbed_by_arc(self):
        s = ClosedCircleSet(((F(0), F(1, 4)),), (F(1, 4), F(3, 4)))
        assert s.arcs == ((F(0), F(1, 4)),)
        assert s.points == (F(3, 4),)

    def test_closed_wrap_through_seam(self):
        s = ClosedCircleSet(((F(3, 4), F(1)), (F(0), F(1, 4))), ())
        assert s.arcs == ((F(3, 4), F(5, 4)),)
        assert s.contains(0)

    def test_finite_closed_set_dedupes(self):
        s = finite_closed_set([F(1, 2), F(3, 2), F(0)])
        assert s.points == (F(0), F(1, 2))
        assert s.arcs == ()

    def test_reconstruction_is_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            s = _random_open(rng)
            assert OpenCircleSet(s.arcs, s.is_full) == s
            c = s.complement()
            assert ClosedCircleSet(c.arcs, c.points, c.is_full) == c


class TestOperations:
    def test_intersect_worked_example(self):
        a = OpenCircleSet.from_arcs([(F(0), F(3, 5))])
        b = OpenCircleSet.from_arcs([(F(1, 2), F(1))])
        assert a.intersect(b).arcs == ((F(1, 2), F(3, 5)),)
        assert a.union(b).arcs == ((F(0), F(1)),)

    def test_complement_worked_examples(self):
        a = OpenCircleSet.from_arcs([(F(0), F(1, 2))])
        c = a.complement()
        assert c.arcs == ((F(1, 2), F(1)),)
        assert c.points == ()
        assert c.contains(0)
        assert punctured_circle(0).complement() == finite_closed_set([0])

    def test_closure_fills_shared_endpoint(self):
        a = OpenCircleSet.from_arcs([(F(0), F(3, 5)), (F(3, 5), F(1))])
        assert a.closure().is_full

    def test_full_and_empty_algebra(self):
        full, empty = OpenCircleSet.full(), OpenCircleSet.empty()
        assert full.union(empty) == full
        assert full.intersect(empty) == empty
        assert not full.is_proper()
        assert empty.is_proper() and empty.is_empty()
        assert full.complement() == ClosedCircleSet.empty()
        assert empty.complement() == ClosedCircleSet.full()
        assert ClosedCircleSet.full().interior() == full

    def test_closed_full_and_empty_algebra(self):
        full, empty = ClosedCircleSet.full(), ClosedCircleSet.empty()
        point = finite_closed_set([F(1, 3)])
        assert point.union(full) == full and full.union(point) == full
        assert point.union(empty) == point and empty.union(point) == point
        assert point.intersect(full) == point and full.intersect(point) == point
        assert point.intersect(empty) == empty and empty.intersect(point) == empty
        assert full.intersect(empty) == empty and full.intersect(full) == full

    def test_interior_drops_points(self):
        c = ClosedCircleSet(((F(0), F(1, 4)),), (F(1, 2),))
        assert c.interior() == OpenCircleSet.from_arcs([(F(0), F(1, 4))])

    def test_subset_order(self):
        a = OpenCircleSet.from_arcs([(F(0), F(1, 4))])
        b = OpenCircleSet.from_arcs([(F(0), F(1, 2))])
        assert a.is_subset(b)
        assert not b.is_subset(a)
        assert OpenCircleSet.empty().is_subset(a)
        assert a.is_subset(OpenCircleSet.full())


class TestSampledLaws:
    def test_union_intersect_membership(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b = _random_open(rng), _random_open(rng)
            union, meet = a.union(b), a.intersect(b)
            for theta in _grid(a, b, union, meet):
                assert union.contains(theta) == (a.contains(theta) or b.contains(theta))
                assert meet.contains(theta) == (a.contains(theta) and b.contains(theta))

    def test_complement_membership(self):
        rng = random.Random(19)
        for _ in range(100):
            a = _random_open(rng)
            c = a.complement()
            for theta in _grid(a, c):
                assert c.contains(theta) == (not a.contains(theta))
            assert c.complement() == a

    def test_de_morgan(self):
        rng = random.Random(29)
        for _ in range(80):
            a, b = _random_open(rng), _random_open(rng)
            assert a.union(b).complement() == a.complement().intersect(b.complement())
            assert a.intersect(b).complement() == a.complement().union(b.complement())

    def test_lattice_laws(self):
        rng = random.Random(31)
        for _ in range(80):
            a, b, c = _random_open(rng), _random_open(rng), _random_open(rng)
            assert a.union(b) == b.union(a)
            assert a.intersect(b) == b.intersect(a)
            assert a.union(a) == a
            assert a.intersect(a) == a
            assert a.union(b.union(c)) == a.union(b).union(c)
            assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)
            assert a.intersect(b).is_subset(a)
            assert a.is_subset(a.union(b))

    def test_closure_interior_duality(self):
        rng = random.Random(37)
        for _ in range(80):
            a = _random_open(rng)
            assert a.closure().complement() == a.complement().interior()
            closed = a.closure()
            assert closed.interior().closure() == closed
            for theta in _grid(a, closed):
                if a.contains(theta):
                    assert closed.contains(theta)
            inner = a.complement().interior()
            for theta in _grid(a, inner):
                if inner.contains(theta):
                    assert not a.contains(theta)


def _angle(rng, denominators):
    q = rng.choice(denominators)
    return F(rng.randrange(q), q)


def _query_set(rng, denominators):
    """An open set shaped like a benchmark query argument.

    Mostly 1 to 12 arcs, some wrapping past the seam and some touching
    their neighbours, and now and then a punctured, full or empty circle.
    """
    shape = rng.randrange(10)
    if shape == 0:
        return OpenCircleSet.full()
    if shape == 1:
        return OpenCircleSet.empty()
    if shape == 2:
        return punctured_circle(_angle(rng, denominators))
    count = rng.randint(1, 12)
    cuts = set()
    while len(cuts) < 2 * count:
        cuts.add(_angle(rng, denominators))
    ends = sorted(cuts)
    if rng.randrange(2):
        # rotating the cuts by one lets the last arc wrap past the seam
        ends = ends[1:] + [ends[0] + 1]
    arcs = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
    if rng.randrange(2):
        # fill some gaps with arcs that touch the arcs on both sides
        arcs += [(ends[i], ends[i + 1]) for i in range(1, len(ends) - 1, 4)]
    return OpenCircleSet.from_arcs(arcs)


def _pairwise_intersect(a, b):
    """The literal formula: each arc against each other arc shifted by -1, 0 and 1 turn."""
    if a.is_full or b.is_full:
        return b if a.is_full else a
    pieces = [
        (max(a1, a2 + shift), min(b1, b2 + shift))
        for a1, b1 in a.arcs
        for a2, b2 in b.arcs
        for shift in (-1, 0, 1)
    ]
    return OpenCircleSet(tuple((lo, hi) for lo, hi in pieces if lo < hi))


def _pairwise_union(a, b):
    if a.is_full or b.is_full:
        return OpenCircleSet.full()
    return OpenCircleSet(a.arcs + b.arcs)


def _assert_canonical(r):
    if isinstance(r, OpenCircleSet):
        assert OpenCircleSet(r.arcs, r.is_full) == r
    else:
        assert ClosedCircleSet(r.arcs, r.points, r.is_full) == r
    assert all(type(e) is F for arc in r.arcs for e in arc)


# every denominator up to 720, as the benchmark draws them, and the
# divisors of 60, which keep the sampling grid of two sets small
QUERY_DENOMINATORS = range(1, 721)
GRID_DENOMINATORS = [d for d in range(1, 61) if 60 % d == 0]


class TestMergeKernels:
    """The merge passes against the literal pairwise formula and a grid."""

    @pytest.mark.parametrize("seed", range(2))
    def test_against_the_pairwise_formula(self, seed):
        rng = random.Random(f"kernels:{seed}")
        for _ in range(150):
            a, b = _query_set(rng, QUERY_DENOMINATORS), _query_set(rng, QUERY_DENOMINATORS)
            meet, join = a.intersect(b), a.union(b)
            _assert_canonical(meet)
            _assert_canonical(join)
            assert meet == _pairwise_intersect(a, b)
            assert join == _pairwise_union(a, b)
            assert a.is_subset(b) == (_pairwise_intersect(a, b) == a)
            assert meet.is_subset(a) and meet.is_subset(b)
            assert a.is_subset(join) and b.is_subset(join)
            # closed sets: A <= B exactly when the complement of B lies in that of A
            ca, cb = a.complement(), b.complement()
            assert ca.is_subset(cb) == (_pairwise_intersect(cb.complement(), ca.complement()) == cb.complement())
            assert ca.is_subset(cb) == b.is_subset(a)

    def test_against_grid_sampling(self):
        rng = random.Random("kernels:grid")
        for _ in range(60):
            a, b = _query_set(rng, GRID_DENOMINATORS), _query_set(rng, GRID_DENOMINATORS)
            meet, join = a.intersect(b), a.union(b)
            ca, cb = a.complement(), b.complement()
            inside_a = inside_b = True
            closed_a = closed_b = True
            for theta in _grid(a, b):
                in_a, in_b = a.contains(theta), b.contains(theta)
                assert meet.contains(theta) == (in_a and in_b)
                assert join.contains(theta) == (in_a or in_b)
                inside_a &= in_b or not in_a
                inside_b &= in_a or not in_b
                closed_a &= cb.contains(theta) or not ca.contains(theta)
                closed_b &= ca.contains(theta) or not cb.contains(theta)
            assert a.is_subset(b) == inside_a and b.is_subset(a) == inside_b
            assert ca.is_subset(cb) == closed_a and cb.is_subset(ca) == closed_b

    @pytest.mark.parametrize(
        "a, b, meet",
        [
            # the stored wrap arc past 1 meets arcs near 0 only one turn up
            ([("3/4", "5/4")], [("0", "1/8")], [("0", "1/8")]),
            # an arc near 0 meets the wrap arc only one turn down
            ([("0", "1/8")], [("3/4", "5/4")], [("0", "1/8")]),
            # touching open arcs stay split; the seam piece leads once wrapped
            ([("1/2", "3/2")], [("1/4", "5/4")], [("1/4", "1/2"), ("1/2", "5/4")]),
            ([("0", "1/2"), ("1/2", "1")], [("1/4", "3/4")], [("1/4", "1/2"), ("1/2", "3/4")]),
        ],
    )
    def test_seam_cases(self, a, b, meet):
        a, b = OpenCircleSet.from_arcs(a), OpenCircleSet.from_arcs(b)
        expected = OpenCircleSet.from_arcs(meet)
        assert a.intersect(b) == expected and b.intersect(a) == expected
        assert expected.is_subset(a) and expected.is_subset(b)
        assert a.is_subset(b) == (expected == a)

    def test_closed_subset_across_the_seam(self):
        wrap = ClosedCircleSet(((F(3, 4), F(5, 4)),), ())
        assert finite_closed_set([0, F(1, 8)]).is_subset(wrap)
        assert ClosedCircleSet(((F(0), F(1, 4)),), (F(7, 8),)).is_subset(wrap)
        assert not ClosedCircleSet(((F(0), F(1, 2)),), ()).is_subset(wrap)
        assert not finite_closed_set([F(1, 2)]).is_subset(wrap)
        assert ClosedCircleSet.empty().is_subset(finite_closed_set([0]))
        assert not ClosedCircleSet.full().is_subset(wrap)


class TestMeetByComplements:
    """Open and closed sets meet through one routine, the gaps of the union
    of the operands' gaps; a full or empty operand is answered before it."""

    @pytest.mark.parametrize("seed", range(2))
    def test_against_the_pairwise_formula_with_full_and_empty_operands(self, seed):
        rng = random.Random(f"meets:{seed}")
        extremes = [OpenCircleSet.full(), OpenCircleSet.empty()]
        for _ in range(100):
            a = _query_set(rng, QUERY_DENOMINATORS)
            for b in [*extremes, _query_set(rng, QUERY_DENOMINATORS)]:
                for x, y in ((a, b), (b, a)):
                    meet = x.intersect(y)
                    _assert_canonical(meet)
                    assert meet == _pairwise_intersect(x, y)
                    # the closed sets meet where their open complements' union is not
                    closed_meet = x.complement().intersect(y.complement())
                    _assert_canonical(closed_meet)
                    assert closed_meet == _pairwise_union(x, y).complement()

    @pytest.mark.parametrize("seed", range(3))
    def test_one_pass_over_many_operands_is_the_pairwise_fold(self, seed):
        # families of one to four sets, full and empty ones among them: one
        # variadic call gives the very pieces that meeting two at a time gives
        rng = random.Random(f"variadic meets:{seed}")
        extremes = [OpenCircleSet.full(), OpenCircleSet.empty()]
        for _ in range(100):
            family = [
                rng.choice(extremes) if rng.randrange(8) == 0 else _query_set(rng, QUERY_DENOMINATORS)
                for _ in range(rng.randint(1, 4))
            ]
            met = family[0].intersect(*family[1:])
            folded = functools.reduce(OpenCircleSet.intersect, family)
            assert (met._pieces, met.is_full) == (folded._pieces, folded.is_full)
            assert met == functools.reduce(_pairwise_intersect, family)
            # closed sets meet two at a time, through the same routine
            closed = functools.reduce(ClosedCircleSet.intersect, [v.complement() for v in family])
            assert closed == circle.open_union(family).complement()


class TestKernelWork:
    """Kernel work as exact counts, which do not depend on the host's speed:
    lines run inside ``circle.py``, and ``Fraction`` comparisons."""

    COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")

    @staticmethod
    def _sets(k):
        # k arcs each, the last wrapping past the seam, staggered so that
        # every arc of one set meets two arcs of the other
        step = F(1, 2 * k)
        a = OpenCircleSet.from_arcs((i * 2 * step + step / 2, i * 2 * step + step * 3 / 2) for i in range(k))
        b = OpenCircleSet.from_arcs((i * 2 * step + step, i * 2 * step + step * 2) for i in range(k))
        return a, b

    @staticmethod
    def _lines(operation, args):
        """Line events inside ``circle.py`` during one call, generators included."""
        lines = [0]

        def local(frame, event, arg):
            lines[0] += event == "line"
            return local

        def calls(frame, event, arg):
            return local if frame.f_code.co_filename == circle.__file__ else None

        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            operation(*args)
        finally:
            sys.settrace(previous)
        return lines[0]

    def _comparisons(self, monkeypatch, operation, args):
        calls = [0]
        for name in self.COMPARISONS:
            original = getattr(F, name)

            def counted(x, y, original=original):
                calls[0] += 1
                return original(x, y)

            monkeypatch.setattr(F, name, counted)
        operation(*args)
        monkeypatch.undo()
        return calls[0]

    @pytest.mark.parametrize(
        "prepare, operation",
        [
            (lambda a, b: (a, b), OpenCircleSet.intersect),
            (lambda a, b: (a, b), OpenCircleSet.union),
            (lambda a, b: (a, b), OpenCircleSet.is_subset),
            (lambda a, b: (a.intersect(b), b), OpenCircleSet.is_subset),
            (lambda a, b: (a.closure(), a.union(b).closure()), ClosedCircleSet.is_subset),
        ],
        ids=["intersect", "union", "is_subset", "is_subset-true", "closed-is_subset"],
    )
    def test_comparisons_grow_linearly_in_the_arc_count(self, prepare, operation):
        # the kernels compare endpoints as integers, which no hook counts,
        # so their work is counted as the lines they run
        small = self._lines(operation, prepare(*self._sets(12)))
        large = self._lines(operation, prepare(*self._sets(48)))
        assert 0 < small and large <= 5 * small

    @pytest.mark.parametrize(
        "operation",
        [
            OpenCircleSet.intersect,
            OpenCircleSet.union,
            OpenCircleSet.is_subset,
            lambda a, b: b.is_subset(a.union(b)),
            lambda a, b: a.complement(),
            lambda a, b: [a.contains(start) for start, _ in b.arcs],
        ],
        ids=["intersect", "union", "is_subset", "is_subset-true", "complement", "contains"],
    )
    def test_open_kernels_compare_no_fractions(self, monkeypatch, operation):
        assert self._comparisons(monkeypatch, operation, self._sets(12)) == 0


class TestLongEndpoints:
    def test_two_hundred_arcs_with_distinct_long_denominators(self):
        # each endpoint has its own denominator of about 4 000 digits, so one
        # common denominator for a set would have hundreds of thousands
        base = 10**3996

        def arcs(shift):
            ends = [F(j, 400) + F(1, base + 2 * j + shift) for j in range(400)]
            if shift:
                # half a step along, wrapping past the seam: each arc overlaps
                # the end of one arc of the other set
                ends = ends[1:] + [ends[0] + 1]
            return [(ends[i], ends[i + 1]) for i in range(0, 400, 2)]

        first, second = arcs(0), arcs(1)
        for step in ("construct", "intersect", "union", "is_subset"):
            started = time.perf_counter()
            if step == "construct":
                a, b = OpenCircleSet.from_arcs(first), OpenCircleSet.from_arcs(second)
            elif step == "intersect":
                meet = a.intersect(b)
            elif step == "union":
                join = a.union(b)
            else:
                inside = meet.is_subset(a) and meet.is_subset(b) and a.is_subset(join)
            assert time.perf_counter() - started < 5, step
        assert len(a.arcs) == len(b.arcs) == 200
        assert len(meet.arcs) == 200 and len(join.arcs) == 200
        assert inside and not a.is_subset(b)
