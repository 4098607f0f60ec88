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
over their arcs and points taken together.  Union is one merge pass that
relies on this order, complement one pass over the gaps, and intersection
the gaps of the union of gaps.  Each builds its result directly; only
outside input goes through the checks in the constructors.  Open and
closed sets differ only in whether touching pieces merge and in the kind
of their complement, so each operation has one body for both.

Endpoints are exact rationals that the merge passes compare as plain
integers, each by its own numerator and denominator: ``a/b < c/d`` is
``a*d < c*b``, and one turn up is ``(a + b)/b``.  Sets keep these
integers beside their ``Fraction`` fields.  A result's endpoints are its
arguments', some shifted by a turn: the integers are shifted by hand, but
``_gaps`` and ``_coalesce`` still shift the ``Fraction`` field by
``Fraction`` arithmetic, which takes a ``gcd`` (ROADMAP item 10).  There
is no common denominator per set: the lcm of n unrelated denominators can
have n times their digits, where a cross product has the digits of two.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from operator import le, lt

from .errors import GraphAlgebraError, excerpt
from .record import Record, set_field

Angle = Fraction

# what ``Fraction`` raises for a bad or overlong literal, ``"1/0"``, infinity or no number
_NOT_RATIONAL = (ValueError, ZeroDivisionError, OverflowError, TypeError)

# the one string form of an angle, ``-1/2`` or ``3``: ``Fraction`` alone also reads
# decimals, spaces, signs and exponents, and expands ``1e30000000`` digit by digit;
# 4000 digits a number keep derived endpoints below Python's 4300-digit print limit
_FRACTION = re.compile(r"-?[0-9]{1,4000}(?:/[0-9]{1,4000})?")


def _rational(value) -> Fraction:
    """``Fraction(value)``, refusing a string of any other form than ``_FRACTION``
    with a ``GraphAlgebraError``, a ``ValueError`` that callers word as ``Fraction``'s."""
    if isinstance(value, str) and not _FRACTION.fullmatch(value):
        raise GraphAlgebraError(f"{excerpt(repr(value))} is not a fraction string")
    return Fraction(value)


def as_angle(value) -> Fraction:
    """Coerce a fraction, integer or ``p/q`` string onto the circle."""
    if type(value) is Fraction and 0 <= value.numerator < value.denominator:
        return value
    if isinstance(value, (float, bool)):
        raise GraphAlgebraError(f"angle {value!r} is a {type(value).__name__}, not exact")
    try:
        return _rational(value) % 1
    except _NOT_RATIONAL as err:
        raise GraphAlgebraError(f"angle {excerpt(str(value))} is not a finite rational") from err


def format_angle(angle: Fraction) -> str:
    return str(Fraction(angle))


def _entry(lo: Fraction, hi: Fraction) -> tuple:
    """A piece as ``(lo, hi)`` followed by their numerators and denominators."""
    return lo, hi, lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _is_point(piece) -> bool:
    return piece[2] == piece[4] and piece[3] == piece[5]


def _listed(values, what: str):
    """``values``, refused if no iterable, or one string or bytes read item by item."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise GraphAlgebraError(f"{what}: {excerpt(repr(values))}")
    return values


def _normalise(raw, points, joins) -> tuple[list, bool]:
    """Canonical ``(pieces, is_full)`` of outside arcs and points.  ``joins``
    is ``<`` for open arcs, which merge when they overlap, and ``<=`` for
    closed ones, which merge when they touch."""
    kind = "open" if joins is lt else "closed"
    segments = []
    for arc in _listed(raw, f"{kind} arcs must list (start, end) pairs"):
        try:
            a, b = () if isinstance(arc, (str, bytes)) else arc  # no string, even "12", is an arc
        except (TypeError, ValueError):
            raise GraphAlgebraError(f"{kind} arc {excerpt(repr(arc))} must have two endpoints")
        if isinstance(a, (float, bool)) or isinstance(b, (float, bool)):
            raise GraphAlgebraError(f"{kind} arc {excerpt(repr((a, b)))} has an inexact endpoint")
        try:
            a, b = _rational(a), _rational(b)
        except _NOT_RATIONAL as err:
            fault = "has an endpoint that is not a finite rational"
            raise GraphAlgebraError(f"{kind} arc {excerpt(f'({a}, {b})')} {fault}") from err
        length = b - a
        if not joins(0, length):
            fault = "has no interior" if kind == "open" else "runs backwards"
            raise GraphAlgebraError(f"{kind} arc {excerpt(f'({a}, {b})')} {fault}")
        if joins(1, length):
            return [], True
        start = a % 1
        segments.append(_entry(start, start + length))
    points = _listed(points, "closed set points must list angles")
    segments += [_entry(p, p) for p in map(as_angle, points)]
    return _coalesce(_in_order([[p] for p in segments]), joins)


def _merge(first, second=()) -> list:
    """Two runs of pieces sorted by start, merged into one."""
    merged, second = [], iter(second)
    y = next(second, None)
    for x in first:
        while y is not None and y[2] * x[3] < x[2] * y[3]:
            merged.append(y)
            y = next(second, None)
        merged.append(x)
    return merged if y is None else merged + [y, *second]


def _in_order(runs: list):
    """Runs of pieces sorted by start, merged two at a time into one sorted
    run: O(n log k) steps for n pieces in k runs."""
    while len(runs) > 1:
        runs = [_merge(*runs[i : i + 2]) for i in range(0, len(runs), 2)]
    return runs[0] if runs else ()


def _coalesce(pieces, joins) -> tuple[list, bool]:
    """Canonical ``(pieces, is_full)`` from pieces sorted by a start in
    ``[0, 1)``, ``joins`` comparing cross products (see :func:`_normalise`)."""
    merged = []
    for piece in pieces:
        if merged:
            last = merged[-1]
            if joins(piece[2] * last[5], last[4] * piece[3]):
                if last[4] * piece[5] < piece[4] * last[5]:
                    merged[-1] = (last[0], piece[1], last[2], last[3], piece[4], piece[5])
                continue
        merged.append(piece)
    # the final piece may spill past 1 and swallow pieces at the seam
    while len(merged) > 1:
        first, last = merged[0], merged[-1]
        if not joins((first[2] + first[3]) * last[5], last[4] * first[3]):
            break
        del merged[0]
        if last[4] * first[5] < (first[4] + first[5]) * last[5]:
            merged[-1] = (last[0], first[1] + 1, last[2], last[3], first[4] + first[5], first[5])
    if len(merged) == 1:
        _, _, ln, ld, hn, hd = merged[0]
        # the one piece is longer than a turn, or a whole turn when closed
        if joins(hd * ld, hn * ld - ln * hd):
            return [], True
    return merged, False


def _lifts(pieces):
    """Canonical pieces lifted over ``[0, 2)``, still sorted and disjoint, as integers
    ``(start n, start d, end n, end d)``: the last one turn down, all, all one turn up."""
    for p in pieces[-1:]:
        yield p[2] - p[3], p[3], p[4] - p[5], p[5]
    for p in pieces:
        yield p[2], p[3], p[4], p[5]
    for p in pieces:
        yield p[2] + p[3], p[3], p[4] + p[5], p[5]


# a lift beyond every stored piece, standing in once a cover runs out
_PAST = (3, 1, 3, 1)


def _gaps(pieces) -> list:
    """The gaps between canonical pieces, in canonical order: each piece's
    end with the next one's start, and the last end with the first start
    one turn up, taken a turn down to lead when it starts at 1 or past it."""
    gaps = [(x[1], y[0], x[4], x[5], y[2], y[3]) for x, y in zip(pieces, pieces[1:])]
    first, last = pieces[0], pieces[-1]
    if last[4] < last[5]:
        gaps.append((last[1], first[0] + 1, last[4], last[5], first[2] + first[3], first[3]))
    else:
        gaps.insert(0, (last[1] - 1, first[0], last[4] - last[5], last[5], first[2], first[3]))
    return gaps


def _within(pieces, cover) -> bool:
    """Whether each of the sorted, disjoint pieces lies in one lift of ``cover``."""
    cn = dn = -1
    cd = dd = 1
    for _, _, an, ad, bn, bd in pieces:
        # the first lift to reach b is the only one that can hold (a, b)
        while dn * bd < bn * dd:
            cn, cd, dn, dd = next(cover, _PAST)
        if an * cd < cn * ad:
            return False
    return True


def _holds(pieces, n: int, d: int, joins) -> bool:
    """Whether the angle ``n/d`` in ``[0, 1)`` or one turn up is in a piece (on it, for ``<=``)."""
    for _, _, ln, ld, hn, hd in pieces:
        for t in (n, n + d):
            if joins(ln * d, t * ld) and joins(t * hd, hn * d):
                return True
    return False


def _trusted(cls, pieces, is_full: bool = False):
    """A set of class ``cls`` from pieces that are canonical already: no checks."""
    new = cls.__new__(cls)
    new._fill(pieces, is_full)
    return new


class OpenCircleSet(Record):
    """An open subset of the circle in canonical arc form."""

    __slots__ = ("arcs", "is_full", "_pieces")

    # the two facts in which the kinds differ: open pieces merge when they overlap,
    # and the complement (set below the classes) is closed
    _joins = lt

    def __init__(self, *args, **kwargs):
        # canonical form is computed in __post_init__, where perfbench/spans.py times it
        self.__post_init__(*args, **kwargs)

    def __post_init__(self, arcs: tuple = (), is_full: bool = False):
        self._fill(*(([], True) if is_full else _normalise(arcs, (), lt)))

    def _fill(self, pieces, is_full: bool) -> None:
        """Store canonical pieces: their arcs as fields, their integers beside."""
        set_field(self, "arcs", tuple([p[:2] for p in pieces]))
        set_field(self, "is_full", is_full)
        set_field(self, "_pieces", tuple(pieces))

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def full(cls):
        return cls(is_full=True)

    @classmethod
    def from_arcs(cls, pairs: Iterable) -> "OpenCircleSet":
        return cls(pairs)

    def is_empty(self) -> bool:
        return not self.is_full and not self._pieces

    def is_proper(self) -> bool:
        return not self.is_full

    def contains(self, angle) -> bool:
        return self.contains_point(*as_angle(angle).as_integer_ratio())

    def contains_point(self, n: int, d: int) -> bool:
        """Whether the set holds the angle ``n/d``, given reduced and in ``[0, 1)``."""
        return self.is_full or _holds(self._pieces, n, d, self._joins)

    def union(self, *others):
        """The union with sets of the same kind: one merge pass, none for a full
        member, which is the answer, or for a set alone, its own union."""
        sets = (self, *others)
        for value in sets:
            if value.is_full:
                return value
        if not others:
            return self
        return _trusted(type(self), *_coalesce(_in_order([v._pieces for v in sets]), self._joins))

    def intersect(self, *others):
        """The intersection with sets of the same kind: the gaps of the union, in one
        merge pass, of every proper member's gaps, merged as the complement's pieces.
        An empty member is the answer, full ones drop out, and one proper is its own."""
        proper = []
        for value in (self, *others):
            if value.is_empty():
                return value
            if not value.is_full:
                proper.append(value)
        if len(proper) < 2:
            return proper[0] if proper else self
        gaps = _in_order([_gaps(v._pieces) for v in proper])
        pieces, is_full = _coalesce(gaps, self._complement_kind._joins)
        return _trusted(type(self), [] if is_full else _gaps(pieces))

    def is_subset(self, other) -> bool:
        if self.is_full or other.is_full:
            return other.is_full
        return _within(self._pieces, _lifts(other._pieces))

    def complement(self):
        """The gaps, as the other kind: a point where open arcs touch, and arcs
        between closed pieces, a whole turn but its point for a lone point."""
        kind = self._complement_kind
        if self.is_full:
            return kind.empty()
        if not self._pieces:
            return kind.full()
        return _trusted(kind, _gaps(self._pieces))

    def closure(self) -> "ClosedCircleSet":
        if self.is_full:
            return ClosedCircleSet.full()
        return _trusted(ClosedCircleSet, *_coalesce(self._pieces, le))

    def endpoints(self) -> frozenset:
        return frozenset(e % 1 for arc in self.arcs for e in arc)


class ClosedCircleSet(Record):
    """A closed subset of the circle: disjoint closed arcs plus points."""

    __slots__ = ("arcs", "points", "is_full", "_pieces")

    # closed pieces merge when they touch, and the complement is open
    _joins = le
    _complement_kind = OpenCircleSet

    def __post_init__(self, arcs: tuple = (), points: tuple = (), is_full: bool = False):
        self._fill(*(([], True) if is_full else _normalise(arcs, points, le)))

    def _fill(self, pieces, is_full: bool) -> None:
        """Store canonical pieces: arcs and points as fields, integers beside."""
        set_field(self, "arcs", tuple([p[:2] for p in pieces if not _is_point(p)]))
        set_field(self, "points", tuple([p[0] for p in pieces if _is_point(p)]))
        set_field(self, "is_full", is_full)
        set_field(self, "_pieces", tuple(pieces))

    # one body per operation: the open sets', bound by name into this class's own
    # namespace, where perfbench/spans.py wraps each method
    empty, full = vars(OpenCircleSet)["empty"], vars(OpenCircleSet)["full"]
    __init__, is_empty = OpenCircleSet.__init__, OpenCircleSet.is_empty
    contains, contains_point = OpenCircleSet.contains, OpenCircleSet.contains_point
    complement, is_subset = OpenCircleSet.complement, OpenCircleSet.is_subset
    union, intersect = OpenCircleSet.union, OpenCircleSet.intersect

    def interior(self) -> OpenCircleSet:
        if self.is_full:
            return OpenCircleSet.full()
        return _trusted(OpenCircleSet, [p for p in self._pieces if not _is_point(p)])


OpenCircleSet._complement_kind = ClosedCircleSet


def open_union(sets: Iterable[OpenCircleSet]) -> OpenCircleSet:
    """The union of finitely many open sets, the empty set for none, through
    ``OpenCircleSet.union``, which a traced run times."""
    members = tuple(sets)
    return OpenCircleSet.union(*members) if members else OpenCircleSet.empty()


def finite_closed_set(angles: Iterable) -> ClosedCircleSet:
    """The closed set consisting of finitely many points."""
    return ClosedCircleSet((), angles)


def punctured_circle(angle) -> OpenCircleSet:
    """The circle with a single point removed: one arc, canonical already."""
    theta = as_angle(angle)
    n, d = theta.numerator, theta.denominator
    return _trusted(OpenCircleSet, [(theta, theta + 1, n, d, n + d, d)])
