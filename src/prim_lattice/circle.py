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

Endpoints are exact rationals that the merge passes compare as plain
integers, each by its own numerator and denominator: ``a/b < c/d`` is
``a*d < c*b``, and one turn up is ``(a + b)/b``.  Sets keep these
integers beside their ``Fraction`` fields.  A result's endpoints are its
arguments', some shifted by a turn, so no ``gcd`` is taken.  There is no
common denominator per set: the lcm of n unrelated denominators can have
n times their digits, where a cross product has the digits of two.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from operator import le, lt

from .errors import GraphAlgebraError, excerpt
from .record import Record, set_field

Angle = Fraction

# what ``Fraction`` raises for a bad or overlong literal, ``"1/0"`` and infinity
_NOT_RATIONAL = (ValueError, ZeroDivisionError, OverflowError)


def as_angle(value) -> Fraction:
    """Coerce a fraction, integer or ``p/q`` string onto the circle."""
    if type(value) is Fraction and 0 <= value.numerator < value.denominator:
        return value
    if isinstance(value, (float, bool)):
        raise GraphAlgebraError(f"angle {value!r} is a {type(value).__name__}, not exact")
    try:
        return Fraction(value) % 1
    except _NOT_RATIONAL as err:
        raise GraphAlgebraError(f"angle {excerpt(str(value))} is not a finite rational") from err


def format_angle(angle: Fraction) -> str:
    return str(Fraction(angle))


def _entry(lo: Fraction, hi: Fraction) -> tuple:
    """A piece as ``(lo, hi)`` followed by their numerators and denominators."""
    return lo, hi, lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _is_point(piece) -> bool:
    return piece[2] == piece[4] and piece[3] == piece[5]


def _normalise(raw, points, joins) -> tuple[list, bool]:
    """Canonical ``(pieces, is_full)`` of outside arcs and points.  ``joins``
    is ``<`` for open arcs, which merge when they overlap, and ``<=`` for
    closed ones, which merge when they touch."""
    kind = "open" if joins is lt else "closed"
    segments = []
    for a, b in raw:
        if isinstance(a, (float, bool)) or isinstance(b, (float, bool)):
            raise GraphAlgebraError(f"{kind} arc {excerpt(repr((a, b)))} has an inexact endpoint")
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
            return [], True
        start = a % 1
        segments.append(_entry(start, start + length))
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
    """Canonical pieces lifted over ``[0, 2)``, still sorted and disjoint, as
    ``(start n, start d, end n, end d, turns, piece)``: the last one turn
    down, all as stored, then all one turn up."""
    for p in pieces[-1:]:
        yield p[2] - p[3], p[3], p[4] - p[5], p[5], -1, p
    for p in pieces:
        yield p[2], p[3], p[4], p[5], 0, p
    for p in pieces:
        yield p[2] + p[3], p[3], p[4] + p[5], p[5], 1, p


# a lift beyond every stored piece, standing in once a cover runs out
_PAST = (3, 1, 3, 1, 0, None)


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
            cn, cd, dn, dd, _, _ = next(cover, _PAST)
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

    def __init__(self, arcs: tuple = (), is_full: bool = False):
        self.__post_init__(arcs, is_full)

    def __post_init__(self, arcs, is_full):
        # canonical form is computed here rather than in __init__ so that
        # perfbench/spans.py can time construction by wrapping this method
        self._fill(*(([], True) if is_full else _normalise(arcs, (), lt)))

    def _fill(self, pieces, is_full: bool) -> None:
        """Store canonical pieces: their arcs as fields, their integers beside."""
        set_field(self, "arcs", tuple([p[:2] for p in pieces]))
        set_field(self, "is_full", is_full)
        set_field(self, "_pieces", tuple(pieces))

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
        return self.is_full or _holds(self._pieces, *as_angle(angle).as_integer_ratio(), lt)

    def contains_point(self, n: int, d: int) -> bool:
        """Whether the set holds the angle ``n/d``, given reduced and in ``[0, 1)``."""
        return self.is_full or _holds(self._pieces, n, d, lt)

    def union(self, other: "OpenCircleSet") -> "OpenCircleSet":
        return open_union((self, other))

    def intersect(self, other: "OpenCircleSet") -> "OpenCircleSet":
        if self.is_full:
            return other
        if other.is_full:
            return self
        # the stored pieces against the other set's lifts; a piece past the
        # seam comes from a lift one turn up and leads once taken a turn down
        wrapped, pieces = [], []
        cover = _lifts(other._pieces)
        cn, cd, dn, dd, turns, lift = next(cover, _PAST)
        for a, b, an, ad, bn, bd in self._pieces:
            while True:
                # the overlap runs from the later start to the earlier end
                later, earlier = an * cd < cn * ad, dn * bd < bn * dd
                if an * dd < dn * ad and cn * bd < bn * cd:
                    # a piece on a lift one turn up is stored a turn down, so
                    # only an end of b - 1, or of a lift one turn down, is new
                    x, xn, xd = (lift[0], lift[2], lift[3]) if later else (a, an, ad)
                    if earlier:
                        y, yn, yd = (lift[1], lift[4], lift[5]) if turns >= 0 else (lift[1] - 1, dn, dd)
                    else:
                        y, yn, yd = (b, bn, bd) if turns <= 0 else (b - 1, bn - bd, bd)
                    (wrapped if turns > 0 else pieces).append((x, y, xn, xd, yn, yd))
                if not earlier:
                    break
                cn, cd, dn, dd, turns, lift = next(cover, _PAST)
        return _trusted(OpenCircleSet, wrapped + pieces)

    def is_subset(self, other: "OpenCircleSet") -> bool:
        if self.is_full or other.is_full:
            return other.is_full
        return _within(self._pieces, _lifts(other._pieces))

    def complement(self) -> "ClosedCircleSet":
        if self.is_full:
            return ClosedCircleSet.empty()
        if not self._pieces:
            return ClosedCircleSet.full()
        # a gap between arcs that touch is the point they share
        return _trusted(ClosedCircleSet, _gaps(self._pieces))

    def closure(self) -> "ClosedCircleSet":
        if self.is_full:
            return ClosedCircleSet.full()
        return _trusted(ClosedCircleSet, *_coalesce(self._pieces, le))

    def endpoints(self) -> frozenset:
        return frozenset(e % 1 for arc in self.arcs for e in arc)


class ClosedCircleSet(Record):
    """A closed subset of the circle: disjoint closed arcs plus points."""

    __slots__ = ("arcs", "points", "is_full", "_pieces")

    def __init__(self, arcs: tuple = (), points: tuple = (), is_full: bool = False):
        self.__post_init__(arcs, points, is_full)

    def __post_init__(self, arcs, points, is_full):
        # see OpenCircleSet.__post_init__
        self._fill(*(([], True) if is_full else _normalise(arcs, points, le)))

    def _fill(self, pieces, is_full: bool) -> None:
        """Store canonical pieces: arcs and points as fields, integers beside."""
        set_field(self, "arcs", tuple([p[:2] for p in pieces if not _is_point(p)]))
        set_field(self, "points", tuple([p[0] for p in pieces if _is_point(p)]))
        set_field(self, "is_full", is_full)
        set_field(self, "_pieces", tuple(pieces))

    @classmethod
    def empty(cls) -> "ClosedCircleSet":
        return cls()

    @classmethod
    def full(cls) -> "ClosedCircleSet":
        return cls(is_full=True)

    def is_empty(self) -> bool:
        return not self.is_full and not self.arcs and not self.points

    def contains(self, angle) -> bool:
        return self.is_full or _holds(self._pieces, *as_angle(angle).as_integer_ratio(), le)

    def complement(self) -> OpenCircleSet:
        if self.is_full:
            return OpenCircleSet.empty()
        if not self._pieces:
            return OpenCircleSet.full()
        # closed pieces never touch, so every gap is an arc: a lone point's
        # gap runs a whole turn, which is the circle minus that point
        return _trusted(OpenCircleSet, _gaps(self._pieces))

    def interior(self) -> OpenCircleSet:
        if self.is_full:
            return OpenCircleSet.full()
        return _trusted(OpenCircleSet, [p for p in self._pieces if not _is_point(p)])

    def union(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        if self.is_full or other.is_full:
            return ClosedCircleSet.full()
        return _trusted(ClosedCircleSet, *_coalesce(_in_order([self._pieces, other._pieces]), le))

    def intersect(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        return self.complement().union(other.complement()).complement()

    def is_subset(self, other: "ClosedCircleSet") -> bool:
        if self.is_full or other.is_full:
            return other.is_full
        return _within(self._pieces, _lifts(other._pieces))


def open_union(sets: Iterable[OpenCircleSet]) -> OpenCircleSet:
    """The union of finitely many open sets, the empty set for none: one merge
    pass, and none for one set, which is its own union."""
    members = []
    for value in sets:
        if value.is_full:
            return OpenCircleSet.full()
        members.append(value)
    if len(members) == 1:
        return members[0]
    return _trusted(OpenCircleSet, *_coalesce(_in_order([v._pieces for v in members]), lt))


def finite_closed_set(angles: Iterable) -> ClosedCircleSet:
    """The closed set consisting of finitely many points."""
    return ClosedCircleSet((), tuple(as_angle(a) for a in angles))


def punctured_circle(angle) -> OpenCircleSet:
    """The circle with a single point removed: one arc, canonical already."""
    theta = as_angle(angle)
    n, d = theta.numerator, theta.denominator
    return _trusted(OpenCircleSet, [(theta, theta + 1, n, d, n + d, d)])
