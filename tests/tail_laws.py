"""The facts the tail order rests on, each checked against its vertex-set form.

``closure_contains`` and ``contained_in_prim`` read maximal tails through
the cycle index: a tail is what its generating component reaches, and
the index keeps one vertex of each component.  Three facts make that
exact:

(a) ``tail(c)`` lies in ``tail(d)`` exactly when ``tail(d)`` holds the
    vertex the index keeps for component ``c``, where ``tail(c)`` is
    everything component ``c`` reaches, itself included;
(b) a saturated hereditary ``H`` misses a maximal tail ``T`` exactly when
    ``T``'s generator lies outside ``H``;
(c) a cyclic ``T``'s cycle is entrance-free in a union of tails holding
    ``T`` exactly when every tail of that union that contains ``T`` has
    ``T``'s generator.

Each checker returns a list of faults, empty when its fact holds.  Tails
are taken both as enumerated, which keep their generator's position,
and as built by hand, which keep none.  The tier-1 tests and the CI
census (``tests/census.py``) share these checkers.
"""

from __future__ import annotations

import random

from prim_lattice.graph import (
    enumerate_saturated_hereditary,
    is_entrance_free,
    reachable_ranges,
    saturated_hereditary_closure,
)
from prim_lattice.tails import MaximalTail, cycle_index, enumerate_maximal_tails


def both_forms(graph) -> list[tuple[MaximalTail, MaximalTail]]:
    """Each maximal tail as enumerated, beside an equal one built by hand."""
    return [(t, MaximalTail(t.vertices, t.cycle, t.period)) for t in enumerate_maximal_tails(graph)]


def inclusion_faults(graph) -> list[str]:
    """Fact (a), over every pair of Tarjan positions."""
    index = cycle_index(graph)
    members = {}
    for v, position in index.home.items():
        members.setdefault(position, set()).add(v)
    tails = [reachable_ranges(graph, members[c]) for c in range(len(members))]
    outside = [c for c in members if index.vertex[c] not in members[c]]
    return [f"vertex[{c}] is outside component {c}" for c in outside] + [
        f"tail({c}) <= tail({d}) is {small <= big}, but vertex[{c}] in tail({d}) disagrees"
        for c, small in enumerate(tails)
        for d, big in enumerate(tails)
        if (small <= big) != (index.vertex[c] in big)
    ]


def hereditary_sample(graph, rng: random.Random, limit: int) -> list[frozenset]:
    """Every saturated hereditary set when there can be at most ``limit`` of
    them, else ``limit`` closures of random vertex sets and the two extremes."""
    if 2 ** len(cycle_index(graph).components) <= limit:
        return enumerate_saturated_hereditary(graph)
    vertices = graph.vertices
    drawn = {frozenset(), frozenset(vertices)}
    for _ in range(limit):
        chosen = rng.sample(vertices, rng.randint(1, len(vertices)))
        drawn.add(saturated_hereditary_closure(graph, chosen))
    return sorted(drawn, key=sorted)


def generator_faults(graph, hereditary: list[frozenset]) -> list[str]:
    """Fact (b), for every given set and maximal tail."""
    index = cycle_index(graph)
    faults = []
    for tail in (t for pair in both_forms(graph) for t in pair):
        generator = index.vertex[index.generator(tail)]
        for h in hereditary:
            if h.isdisjoint(tail.vertices) != (generator not in h):
                shown = f"tail {sorted(tail.vertices)} with generator {generator}"
                faults.append(f"{sorted(h)} against {shown}")
    return faults


def tail_families(graph, rng: random.Random, limit: int) -> list[list[MaximalTail]]:
    """Every nonempty family of maximal tails, or ``limit`` random ones when
    there are more; each member is taken at random as enumerated or by hand."""
    forms = both_forms(graph)
    count = 2 ** len(forms) - 1
    masks = range(1, count + 1) if count <= limit else [rng.randint(1, count) for _ in range(limit)]
    return [[rng.choice(form) for i, form in enumerate(forms) if mask >> i & 1] for mask in masks]


def entrance_faults(graph, families: list[list[MaximalTail]]) -> list[str]:
    """Fact (c), for every cyclic maximal tail and every given family that holds it."""
    index = cycle_index(graph)
    cyclic = [tail for tail in enumerate_maximal_tails(graph) if tail.is_cyclic]
    faults = []
    for family in families:
        union = frozenset().union(*(t.vertices for t in family))
        for tail in cyclic:
            if not tail.vertices <= union:
                continue
            home = index.generator(tail)
            holders = [t for t in family if tail.vertices <= t.vertices]
            ruled = all(index.generator(t) == home for t in holders)
            if is_entrance_free(graph, tail.cycle, union) != ruled:
                shown = [sorted(t.vertices) for t in family]
                faults.append(f"cycle {tail.cycle.edges} in the union of {shown}")
    return faults


def tail_order_faults(graph, seed: int = 0, limit: int = 256) -> list[str]:
    """Facts (a) to (c) on one graph, with seeded samples past ``limit``."""
    rng = random.Random(seed)
    return (
        inclusion_faults(graph)
        + generator_faults(graph, hereditary_sample(graph, rng, limit))
        + entrance_faults(graph, tail_families(graph, rng, limit))
    )
