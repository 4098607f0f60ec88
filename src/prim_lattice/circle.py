"""Exact subsets of the unit circle with rational endpoints.

Points of the circle are angles: reduced fractions in ``[0, 1)``, with
``0`` standing for the point ``1`` of the complex circle.  Every set
here is a finite union of arcs and isolated points with rational
endpoints, which is closed under all the operations the rest of the
package needs, so no floating point ever appears.

Arcs are stored as ``(start, end)`` with ``start`` in ``[0, 1)`` and
``start < end <= start + 1``.  An arc whose ``end`` exceeds ``1`` wraps
past the zero point and contains it; an arc of length exactly ``1`` is
the circle minus its start point.  Canonical form keeps arcs disjoint,
unmergeable and sorted by start, so structural equality is set equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .record import Record, set_field

Angle = Fraction

ONE = Fraction(1)

# what ``Fraction`` raises for ``"1/0"`` and for infinite floats
_NOT_FINITE = (ZeroDivisionError, OverflowError)


def as_angle(value) -> Fraction:
    """Coerce a fraction, integer or ``p/q`` string onto the circle."""
    try:
        return Fraction(value) % 1
    except _NOT_FINITE as err:
        raise ValueError(f"angle {value} is not a finite rational") from err


def format_angle(angle: Fraction) -> str:
    return str(Fraction(angle))


def _normalise_open(raw) -> tuple[tuple, bool]:
    segments = []
    for a, b in raw:
        try:
            a, b = Fraction(a), Fraction(b)
        except _NOT_FINITE as err:
            raise ValueError(
                f"open arc ({a}, {b}) has an endpoint that is not a finite rational"
            ) from err
        length = b - a
        if length <= 0:
            raise ValueError(f"open arc ({a}, {b}) has no interior")
        if length > 1:
            return (), True
        start = a % 1
        segments.append((start, start + length))
    if not segments:
        return (), False
    segments.sort()
    merged = [segments[0]]
    for lo, hi in segments[1:]:
        last_lo, last_hi = merged[-1]
        if lo < last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    # the final arc may spill past 1 and swallow arcs at the seam
    while len(merged) > 1 and merged[-1][1] > 1:
        first_lo, first_hi = merged[0]
        last_lo, last_hi = merged[-1]
        if first_lo + 1 < last_hi:
            merged[-1] = (last_lo, max(last_hi, first_hi + 1))
            merged.pop(0)
        else:
            break
    if len(merged) == 1 and merged[0][1] - merged[0][0] > 1:
        return (), True
    return tuple(merged), False


def _normalise_closed(raw_arcs, raw_points) -> tuple[tuple, tuple, bool]:
    segments = []
    for a, b in raw_arcs:
        try:
            a, b = Fraction(a), Fraction(b)
        except _NOT_FINITE as err:
            raise ValueError(
                f"closed arc ({a}, {b}) has an endpoint that is not a finite rational"
            ) from err
        length = b - a
        if length < 0:
            raise ValueError(f"closed arc ({a}, {b}) runs backwards")
        if length >= 1:
            return (), (), True
        start = a % 1
        segments.append((start, start + length))
    for p in raw_points:
        p = as_angle(p)
        segments.append((p, p))
    if not segments:
        return (), (), False
    segments.sort()
    merged = [segments[0]]
    for lo, hi in segments[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    while len(merged) > 1 and merged[-1][1] >= 1:
        first_lo, first_hi = merged[0]
        last_lo, last_hi = merged[-1]
        if first_lo + 1 <= last_hi:
            merged[-1] = (last_lo, max(last_hi, first_hi + 1))
            merged.pop(0)
        else:
            break
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= 1:
        return (), (), True
    arcs = tuple(s for s in merged if s[0] != s[1])
    points = tuple(s[0] for s in merged if s[0] == s[1])
    return arcs, points, False


class OpenCircleSet(Record):
    """An open subset of the circle in canonical arc form."""

    __slots__ = ("arcs", "is_full")

    def __init__(self, arcs: tuple = (), is_full: bool = False):
        self.__post_init__(arcs, is_full)

    def __post_init__(self, arcs, is_full):
        # canonical form is computed here rather than in __init__ so that
        # perfbench/spans.py can time construction by wrapping this method
        if is_full:
            arcs, is_full = (), True
        else:
            arcs, is_full = _normalise_open(arcs)
        set_field(self, "arcs", arcs)
        set_field(self, "is_full", is_full)

    @classmethod
    def empty(cls) -> "OpenCircleSet":
        return cls()

    @classmethod
    def full(cls) -> "OpenCircleSet":
        return cls(is_full=True)

    @classmethod
    def from_arcs(cls, pairs: Iterable) -> "OpenCircleSet":
        return cls(tuple((a, b) for a, b in pairs))

    def is_empty(self) -> bool:
        return not self.is_full and not self.arcs

    def is_proper(self) -> bool:
        return not self.is_full

    def contains(self, angle) -> bool:
        if self.is_full:
            return True
        theta = as_angle(angle)
        return any(a < t < b for a, b in self.arcs for t in (theta, theta + 1))

    def union(self, other: "OpenCircleSet") -> "OpenCircleSet":
        if self.is_full or other.is_full:
            return OpenCircleSet.full()
        return OpenCircleSet(self.arcs + other.arcs)

    def intersect(self, other: "OpenCircleSet") -> "OpenCircleSet":
        if self.is_full:
            return other
        if other.is_full:
            return self
        pieces = []
        for a1, b1 in self.arcs:
            for a2, b2 in other.arcs:
                for shift in (-1, 0, 1):
                    lo = max(a1, a2 + shift)
                    hi = min(b1, b2 + shift)
                    if lo < hi:
                        pieces.append((lo, hi))
        return OpenCircleSet(tuple(pieces))

    def is_subset(self, other: "OpenCircleSet") -> bool:
        return self.intersect(other) == self

    def complement(self) -> "ClosedCircleSet":
        if self.is_full:
            return ClosedCircleSet.empty()
        if not self.arcs:
            return ClosedCircleSet.full()
        arcs = []
        points = []
        count = len(self.arcs)
        for i in range(count):
            gap_start = self.arcs[i][1] % 1
            gap_length = (self.arcs[(i + 1) % count][0] - gap_start) % 1
            if gap_length == 0:
                points.append(gap_start)
            else:
                arcs.append((gap_start, gap_start + gap_length))
        return ClosedCircleSet(tuple(arcs), tuple(points))

    def closure(self) -> "ClosedCircleSet":
        if self.is_full:
            return ClosedCircleSet.full()
        return ClosedCircleSet(self.arcs, ())

    def endpoints(self) -> frozenset:
        return frozenset(e % 1 for arc in self.arcs for e in arc)


class ClosedCircleSet(Record):
    """A closed subset of the circle: disjoint closed arcs plus points."""

    __slots__ = ("arcs", "points", "is_full")

    def __init__(self, arcs: tuple = (), points: tuple = (), is_full: bool = False):
        self.__post_init__(arcs, points, is_full)

    def __post_init__(self, arcs, points, is_full):
        # see OpenCircleSet.__post_init__
        if is_full:
            arcs, points, is_full = (), (), True
        else:
            arcs, points, is_full = _normalise_closed(arcs, points)
        set_field(self, "arcs", arcs)
        set_field(self, "points", points)
        set_field(self, "is_full", is_full)

    @classmethod
    def empty(cls) -> "ClosedCircleSet":
        return cls()

    @classmethod
    def full(cls) -> "ClosedCircleSet":
        return cls(is_full=True)

    def is_empty(self) -> bool:
        return not self.is_full and not self.arcs and not self.points

    def contains(self, angle) -> bool:
        if self.is_full:
            return True
        theta = as_angle(angle)
        if theta in self.points:
            return True
        return any(a <= t <= b for a, b in self.arcs for t in (theta, theta + 1))

    def complement(self) -> OpenCircleSet:
        if self.is_full:
            return OpenCircleSet.empty()
        pieces = sorted(self.arcs + tuple((p, p) for p in self.points))
        if not pieces:
            return OpenCircleSet.full()
        arcs = []
        count = len(pieces)
        for i in range(count):
            gap_start = pieces[i][1] % 1
            gap_length = (pieces[(i + 1) % count][0] - gap_start) % 1
            if gap_length == 0:
                # only a lone point leaves a gap of full measure
                gap_length = ONE
            arcs.append((gap_start, gap_start + gap_length))
        return OpenCircleSet(tuple(arcs))

    def interior(self) -> OpenCircleSet:
        if self.is_full:
            return OpenCircleSet.full()
        return OpenCircleSet(self.arcs)

    def union(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        if self.is_full or other.is_full:
            return ClosedCircleSet.full()
        return ClosedCircleSet(
            self.arcs + other.arcs, self.points + other.points
        )

    def intersect(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        return self.complement().union(other.complement()).complement()

    def is_subset(self, other: "ClosedCircleSet") -> bool:
        return self.intersect(other) == self

    def endpoints(self) -> frozenset:
        ends = {e % 1 for arc in self.arcs for e in arc}
        ends.update(self.points)
        return frozenset(ends)


def finite_closed_set(angles: Iterable) -> ClosedCircleSet:
    """The closed set consisting of finitely many points."""
    return ClosedCircleSet((), tuple(as_angle(a) for a in angles))


def punctured_circle(angle) -> OpenCircleSet:
    """The circle with a single point removed."""
    theta = as_angle(angle)
    return OpenCircleSet(((theta, theta + 1),))
