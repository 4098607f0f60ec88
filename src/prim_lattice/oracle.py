"""Brute-force reference computations and randomized law checking.

Everything here recomputes answers from first principles, by exhaustive
subset enumeration or by direct axiom checks, so the fast paths in the
other modules have something independent to be compared against.  The
random generators are plain ``random.Random`` consumers, so seeded runs
are reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .circle import OpenCircleSet, punctured_circle
from .errors import GraphAlgebraError, InternalInvariantViolation, TooLargeError
from .graph import (
    DirectedGraph,
    enumerate_saturated_hereditary,
    entrance_free_cycles,
)
from .lattice import (
    IdealPair,
    PrimitiveIdeal,
    closure_contains,
    contained_in_prim,
    ideal_pair,
    meet_of_primitives,
    pair_join,
    pair_leq,
    pair_meet,
)
from .record import Record
from .tails import enumerate_maximal_tails

SUBSET_LIMIT = 16


class OracleReport(Record):
    """Outcome of one oracle run: how much was checked, what disagreed.

    Unlike the package's value records a report is mutable, and so
    unhashable.
    """

    __slots__ = ("checked", "mismatches")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, checked: int = 0, mismatches: list | None = None):
        self.checked = checked
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def record(self, mismatch) -> None:
        self.mismatches.append(mismatch)


def _all_subsets(graph: DirectedGraph):
    vertices = graph.vertices
    if len(vertices) > SUBSET_LIMIT:
        raise TooLargeError(
            f"{len(vertices)} vertices exceed the {SUBSET_LIMIT}-vertex "
            "brute-force guard"
        )
    for size in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            yield frozenset(combo)


def _closed_and_fed(graph: DirectedGraph, subset: frozenset) -> bool:
    """Whether ``subset`` is forward closed and feeds each of its vertices."""
    for src, rng in graph.edges.values():
        if src in subset and rng not in subset:
            return False
    return all(any(graph.src(e) in subset for e in graph.in_edges(v)) for v in subset)


def _satisfies_tail_axioms(graph: DirectedGraph, subset: frozenset) -> bool:
    """The three maximal-tail axioms, checked literally.

    Nonempty, forward closed, every vertex fed from inside, and any two
    members share an ancestor inside (a vertex is its own ancestor).
    Reachability is searched here afresh so that no fast path is reused.
    """
    if not subset or not _closed_and_fed(graph, subset):
        return False
    descendants = {}
    for v in subset:
        seen = {v}
        stack = [v]
        while stack:
            for e in graph.out_edges(stack.pop()):
                w = graph.rng(e)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        descendants[v] = seen
    for v, w in itertools.combinations(subset, 2):
        if not any(v in descendants[y] and w in descendants[y] for y in subset):
            return False
    return True


def brute_maximal_tails(graph: DirectedGraph) -> list[frozenset]:
    """Every subset passing the maximal-tail axioms, exhaustively."""
    return [s for s in _all_subsets(graph) if _satisfies_tail_axioms(graph, s)]


def brute_saturated_hereditary(graph: DirectedGraph) -> list[frozenset]:
    """Every subset whose complement is forward closed and internally fed.

    This checks the two complement axioms directly instead of reusing
    the closure operators, so it is an independent route to the same
    family the fast enumeration generates.
    """
    everything = frozenset(graph.vertices)
    return [s for s in _all_subsets(graph) if _closed_and_fed(graph, everything - s)]


def _broken_distributive_laws(graph: DirectedGraph, family) -> list[str]:
    """The distributive laws that fail on three pairs, each taking the outer place in turn."""
    broken = []
    for a, b, c in (family, family[1:] + family[:1], family[2:] + family[:2]):
        for outer, inner, law in (
            (pair_meet, pair_join, "meet over join"), (pair_join, pair_meet, "join over meet")
        ):
            left = outer(graph, [a, inner(graph, [b, c])])
            right = inner(graph, [outer(graph, [a, b]), outer(graph, [a, c])])
            if not (pair_leq(graph, left, right) and pair_leq(graph, right, left)):
                broken.append(f"distributive law {law} fails")
    return broken


def check_lattice_laws(graph: DirectedGraph, sample: list[IdealPair]) -> OracleReport:
    """Bound, extremality and distributivity checks over a sample.

    Every multiset of up to three pairs drawn from ``sample`` is met and
    joined; the results must bound the family and must be extremal among
    the sample, and each of three must obey both distributive laws (the
    lattice is that of the open sets of Prim), all judged through the
    order relation alone.  A family counts one check, and one more for
    its distributive laws.  Tripwire errors are recorded as mismatches
    rather than raised, and their family counts no check.
    """
    report = OracleReport()
    families = []
    for size in (1, 2, 3):
        families.extend(itertools.combinations_with_replacement(sample, size))
    for family in families:
        label = [sorted(p.vertices) for p in family]
        try:
            met = pair_meet(graph, list(family))
            joined = pair_join(graph, list(family))
            broken = _broken_distributive_laws(graph, family) if len(family) == 3 else []
        except (GraphAlgebraError, InternalInvariantViolation) as err:
            report.record(f"tripwire on {label}: {err}")
            continue
        for law in broken:
            report.record(f"{law} on {label}")
        for pair in family:
            if not pair_leq(graph, met, pair):
                report.record(f"meet of {label} is not a lower bound")
            if not pair_leq(graph, pair, joined):
                report.record(f"join of {label} is not an upper bound")
        for probe in sample:
            if all(pair_leq(graph, probe, pair) for pair in family):
                if not pair_leq(graph, probe, met):
                    report.record(
                        f"meet of {label} misses a greater lower bound"
                    )
            if all(pair_leq(graph, pair, probe) for pair in family):
                if not pair_leq(graph, joined, probe):
                    report.record(
                        f"join of {label} misses a smaller upper bound"
                    )
        report.checked += 2 if len(family) == 3 else 1
    return report


def _enriched_angles(prims, pair: IdealPair) -> list[Fraction]:
    """The probe grid: given angles, arc endpoints, and their midpoints."""
    points = {prim.angle for prim in prims}
    for _, value in pair.cycle_sets:
        points.update(value.endpoints())
    ordered = sorted(points)
    for here, there in zip(ordered, ordered[1:] + ordered[:1]):
        gap = (there - here) % 1
        if gap == 0:
            gap = Fraction(1)
        points.add((here + gap / 2) % 1)
    return sorted(points)


def check_closure_coherence(
    graph: DirectedGraph, prims: list[PrimitiveIdeal], tails=None
) -> OracleReport:
    """Compare topological closure against containment in the meet.

    A primitive ideal lies in the closure of a finite set exactly when
    it contains the intersection of the set, so the direct closure test
    and the composed meet-then-containment test must agree everywhere.
    The angle grid is enriched with every angle and endpoint appearing
    in the inputs plus the midpoints between consecutive ones.  Every
    maximal tail is probed; ``tails`` lists them, if not ``None``.
    """
    report = OracleReport()
    met = meet_of_primitives(graph, prims)
    angles = _enriched_angles(prims, met)
    for tail in enumerate_maximal_tails(graph) if tails is None else tails:
        probes = angles if tail.is_cyclic else [Fraction(0)]
        for angle in probes:
            target = PrimitiveIdeal(tail, angle)
            direct = closure_contains(graph, prims, target)
            composed = contained_in_prim(graph, met, target)
            if direct != composed:
                report.record(
                    f"tail {sorted(tail.vertices)} at {angle}: closure says "
                    f"{direct}, meet containment says {composed}"
                )
            report.checked += 1
    return report


def random_graph(
    rng: random.Random, max_vertices: int = 5, max_edges: int = 10
) -> DirectedGraph:
    """A random source-free graph: vertices without feeders get a loop."""
    count = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(count)]
    edges = {}
    for i in range(rng.randint(0, max(0, max_edges - count))):
        edges[f"e{i}"] = (rng.choice(vertices), rng.choice(vertices))
    fed = {rng_v for _, rng_v in edges.values()}
    for i, v in enumerate(vertices):
        if v not in fed:
            edges[f"loop{i}"] = (v, v)
    return DirectedGraph(vertices, edges)


def random_angle(rng: random.Random, max_denominator: int = 12) -> Fraction:
    denominator = rng.randint(1, max_denominator)
    return Fraction(rng.randrange(denominator), denominator)


def random_proper_open_set(
    rng: random.Random, max_arcs: int = 3, max_denominator: int = 12
) -> OpenCircleSet:
    """A random proper open circle set, biased toward interesting shapes."""
    style = rng.random()
    if style < 0.15:
        return OpenCircleSet.empty()
    if style < 0.3:
        return punctured_circle(random_angle(rng, max_denominator))
    for _ in range(20):
        arcs = []
        for _ in range(rng.randint(1, max_arcs)):
            start = random_angle(rng, max_denominator)
            length = random_angle(rng, max_denominator)
            if length == 0:
                length = Fraction(1, max_denominator)
            arcs.append((start, start + length))
        candidate = OpenCircleSet.from_arcs(arcs)
        if candidate.is_proper():
            return candidate
    return OpenCircleSet.empty()


def random_ideal_pair(rng: random.Random, graph: DirectedGraph, family=None) -> IdealPair:
    """A pair on a set drawn from ``family``, all sat-hered sets if ``None``."""
    hereditary = rng.choice(enumerate_saturated_hereditary(graph) if family is None else family)
    cycles = entrance_free_cycles(graph, frozenset(graph.vertices) - hereditary)
    assignment = {c: random_proper_open_set(rng) for c in cycles}
    return ideal_pair(graph, hereditary, assignment)


def random_primitive(rng: random.Random, graph: DirectedGraph, tails=None) -> PrimitiveIdeal:
    """A primitive on a tail drawn from ``tails``, all maximal tails if ``None``."""
    tail = rng.choice(enumerate_maximal_tails(graph) if tails is None else tails)
    angle = random_angle(rng) if tail.is_cyclic else Fraction(0)
    return PrimitiveIdeal(tail, angle)


def _agreement(fast, brute) -> OracleReport:
    """Whether two families of vertex sets agree, one check per brute-force set."""
    # sorted members, by size then members: sets themselves only order by inclusion
    fast, brute = (sorted(map(sorted, sets), key=lambda s: (len(s), s)) for sets in (fast, brute))
    report = OracleReport(len(brute))
    if fast != brute:
        report.record({"fast": fast, "brute": brute})
    return report


def self_check(graph: DirectedGraph, seed: int, samples: int) -> dict:
    """The ``oracle`` command's report: fast against brute-force tails and
    sat-hered sets, then the lattice laws on ``samples`` ideal pairs and
    closure coherence on ``samples`` sets of primitives, all drawn from
    ``random.Random(seed)``."""
    # the brute-force guard turns a large graph away before the fast paths run
    brute_tails = brute_maximal_tails(graph)
    # each family is listed once, and every draw and probe reads that list
    tails = enumerate_maximal_tails(graph)
    family = enumerate_saturated_hereditary(graph)
    reports = {
        "tails": _agreement([t.vertices for t in tails], brute_tails),
        "saturated_hereditary": _agreement(family, brute_saturated_hereditary(graph)),
    }
    rng = random.Random(seed)
    sample = [random_ideal_pair(rng, graph, family) for _ in range(samples)]
    reports["lattice_laws"] = check_lattice_laws(graph, sample)
    # the sets of primitives report as one check
    merged = reports["closure_coherence"] = OracleReport()
    for _ in range(samples):
        prims = [random_primitive(rng, graph, tails) for _ in range(rng.randint(1, 3))]
        report = check_closure_coherence(graph, prims, tails=tails)
        merged.checked += report.checked
        merged.mismatches += report.mismatches
    checks = {
        name: {"pass": report.passed, "checked": report.checked, "mismatches": report.mismatches}
        for name, report in reports.items()
    }
    return {"pass": all(report.passed for report in reports.values()), "checks": checks}
