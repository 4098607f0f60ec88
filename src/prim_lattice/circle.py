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
So at most one arc, the last, ends past ``1``, and it ends by the first
start plus one: the arcs followed by the same arcs one turn up are still
sorted and disjoint, on ``[0, 2)``.  Closed sets keep the same order
over their arcs and points taken together.  Each set operation is one
merge pass that relies on this order, and builds its result directly;
only outside input goes through the checks in the constructors.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from operator import itemgetter, le, lt

from .errors import GraphAlgebraError, excerpt
from .record import Record, set_field

Angle = Fraction

# what ``Fraction`` raises for a bad or overlong literal, ``"1/0"`` and infinity
_NOT_RATIONAL = (ValueError, ZeroDivisionError, OverflowError)


def as_angle(value) -> Fraction:
    """Coerce a fraction, integer or ``p/q`` string onto the circle."""
    try:
        return Fraction(value) % 1
    except _NOT_RATIONAL as err:
        raise GraphAlgebraError(f"angle {excerpt(str(value))} is not a finite rational") from err


def format_angle(angle: Fraction) -> str:
    return str(Fraction(angle))


def _checked(raw, kind: str, joins) -> list | None:
    """Outside arcs as ``(start, start + length)``, or ``None`` if one covers
    the circle.  ``joins`` is ``<`` for open arcs, which merge when they
    overlap, and ``<=`` for closed ones, which merge when they touch."""
    segments = []
    for a, b in raw:
        try:
            a, b = Fraction(a), Fraction(b)
        except _NOT_RATIONAL as err:
            fault = "has an endpoint that is not a finite rational"
            raise GraphAlgebraError(f"{kind} arc {excerpt(f'({a}, {b})')} {fault}") from err
        length = b - a
        if not joins(0, length):
            fault = "has no interior" if kind == "open" else "runs backwards"
            raise GraphAlgebraError(f"{kind} arc {excerpt(f'({a}, {b})')} {fault}")
        if joins(1, length):
            return None
        start = a % 1
        segments.append((start, start + length))
    return segments


def _coalesce(pieces, joins=lt) -> tuple[tuple, bool]:
    """Canonical ``(pieces, is_full)`` from pieces sorted by a start in ``[0, 1)``."""
    merged = []
    for lo, hi in pieces:
        if merged and joins(lo, merged[-1][1]):
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    # the final piece may spill past 1 and swallow pieces at the seam
    while len(merged) > 1 and joins(merged[0][0] + 1, merged[-1][1]):
        first = merged.pop(0)
        merged[-1] = (merged[-1][0], max(merged[-1][1], first[1] + 1))
    if len(merged) == 1 and joins(1, merged[0][1] - merged[0][0]):
        return (), True
    return tuple(merged), False


def _normalise_open(raw) -> tuple[tuple, bool]:
    pieces = _checked(raw, "open", lt)
    return ((), True) if pieces is None else _coalesce(sorted(pieces))


def _normalise_closed(raw_arcs, raw_points) -> tuple[tuple, tuple, bool]:
    pieces = _checked(raw_arcs, "closed", le)
    if pieces is None:
        return (), (), True
    pieces += [(p, p) for p in map(as_angle, raw_points)]
    merged, is_full = _coalesce(sorted(pieces), le)
    arcs = tuple(s for s in merged if s[0] != s[1])
    points = tuple(s[0] for s in merged if s[0] == s[1])
    return arcs, points, is_full


def _turns(pieces):
    """Canonical pieces lifted over ``[0, 2)``, still sorted and disjoint:
    the last one turn down, all as stored, then all one turn up."""
    for lo, hi in pieces[-1:]:
        yield lo - 1, hi - 1
    yield from pieces
    for lo, hi in pieces:
        yield lo + 1, hi + 1


def _gaps(pieces):
    """The gaps between canonical pieces, as ``(end, next start)``: each
    piece's end with the next one's start, and the last end with the first
    start plus one.  A gap may start past ``1``; the constructors reduce it."""
    return zip([hi for _, hi in pieces], [lo for lo, _ in pieces[1:]] + [pieces[0][0] + 1])


# a cover piece beyond every stored piece, standing in once a cover runs out
_PAST = (3, 3)


def _within(pieces, cover) -> bool:
    """Whether each of the sorted, disjoint pieces lies in one cover piece."""
    cover = iter(cover)
    c = d = -1
    for a, b in pieces:
        # the first cover piece to reach b is the only one that can hold (a, b)
        while d < b:
            c, d = next(cover, _PAST)
        if a < c:
            return False
    return True


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
    def _trusted(cls, arcs: tuple, is_full: bool = False) -> "OpenCircleSet":
        """A set from arcs that are canonical already: no checks."""
        new = cls.__new__(cls)
        set_field(new, "arcs", arcs)
        set_field(new, "is_full", is_full)
        return new

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
        return open_union((self, other))

    def intersect(self, other: "OpenCircleSet") -> "OpenCircleSet":
        if self.is_full:
            return other
        if other.is_full:
            return self
        # the stored arcs against the other set's lifts; a piece past the
        # seam comes from the last arc and leads once taken a turn down
        wrapped, pieces = [], []
        cover = _turns(other.arcs)
        c, d = next(cover, _PAST)
        for a, b in self.arcs:
            while True:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    if lo < 1:
                        pieces.append((lo, hi))
                    else:
                        wrapped.append((lo - 1, hi - 1))
                if b <= d:
                    break
                c, d = next(cover, _PAST)
        return OpenCircleSet._trusted(tuple(wrapped + pieces))

    def is_subset(self, other: "OpenCircleSet") -> bool:
        if self.is_full or other.is_full:
            return other.is_full
        return _within(self.arcs, _turns(other.arcs))

    def complement(self) -> "ClosedCircleSet":
        if self.is_full:
            return ClosedCircleSet.empty()
        if not self.arcs:
            return ClosedCircleSet.full()
        # a gap between arcs that touch is the point they share
        gaps = tuple(_gaps(self.arcs))
        arcs = tuple(gap for gap in gaps if gap[0] != gap[1])
        return ClosedCircleSet(arcs, tuple(a for a, b in gaps if a == b))

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
        pieces = self._pieces()
        if not pieces:
            return OpenCircleSet.full()
        # closed pieces never touch, so every gap is an arc: a lone point's
        # gap runs a whole turn, which is the circle minus that point
        return OpenCircleSet(tuple(_gaps(pieces)))

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
        if self.is_full or other.is_full:
            return other.is_full
        return _within(self._pieces(), _turns(other._pieces()))

    def _pieces(self) -> list:
        """Arcs and points (as zero-length arcs) together, sorted by start."""
        return sorted(self.arcs + tuple((p, p) for p in self.points))


def open_union(sets: Iterable[OpenCircleSet]) -> OpenCircleSet:
    """The union of finitely many open sets, the empty set for none: one merge pass."""
    arcs = []
    for value in sets:
        if value.is_full:
            return OpenCircleSet.full()
        arcs += value.arcs
    # each set's arcs are a sorted run, and arcs that share a start merge in any order
    return OpenCircleSet._trusted(*_coalesce(sorted(arcs, key=itemgetter(0))))


def finite_closed_set(angles: Iterable) -> ClosedCircleSet:
    """The closed set consisting of finitely many points."""
    return ClosedCircleSet((), tuple(as_angle(a) for a in angles))


def punctured_circle(angle) -> OpenCircleSet:
    """The circle with a single point removed."""
    theta = as_angle(angle)
    return OpenCircleSet(((theta, theta + 1),))
