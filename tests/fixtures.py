"""Small reference graphs shared by the tests.

Graphs are immutable, so these are shared module-level constants.
"""

from __future__ import annotations

import itertools
import random

from prim_lattice.graph import DirectedGraph, validate

# one vertex with one loop
g_loop = validate(DirectedGraph(["v"], {"a": ("v", "v")}))

# one vertex with two loops
g_double = validate(DirectedGraph(["v"], {"a": ("v", "v"), "b": ("v", "v")}))

# two looped vertices with a connecting edge from u to v
g_flow = validate(
    DirectedGraph(
        ["u", "v"],
        {"a": ("u", "u"), "b": ("v", "v"), "c": ("u", "v")},
    )
)


def fixture_graphs() -> dict[str, DirectedGraph]:
    return {"g_loop": g_loop, "g_double": g_double, "g_flow": g_flow}


def antichain(k: int) -> DirectedGraph:
    """k disjoint loops, so the gauge lattice is the Boolean lattice on k points."""
    ids = [f"v{i:02d}" for i in range(k)]
    return validate(DirectedGraph(ids, {f"e{v}": (v, v) for v in ids}))


def chain(n: int) -> DirectedGraph:
    """Looped vertices, each feeding the next: n nested cyclic tails."""
    ids = [f"v{i:03d}" for i in range(n)]
    edges = {f"loop-{v}": (v, v) for v in ids}
    edges.update({f"step-{v}": (v, w) for v, w in zip(ids, ids[1:])})
    return validate(DirectedGraph(ids, edges))


def random_flow(n: int, m: int, seed: int) -> DirectedGraph:
    """m seeded uniform edges on n vertices, then a loop on every unfed vertex."""
    rng = random.Random(f"random_flow:{n}:{m}:{seed}")
    ids = [f"v{i:03d}" for i in range(n)]
    edges = {f"e{j:04d}": (rng.choice(ids), rng.choice(ids)) for j in range(m)}
    fed = {r for _, r in edges.values()}
    edges.update({f"loop-{v}": (v, v) for v in ids if v not in fed})
    return validate(DirectedGraph(ids, edges))


def cascade(n: int) -> DirectedGraph:
    """A looped root feeding a path that runs against the id order.

    Every vertex's closure is the whole graph, so its only saturated
    hereditary sets are the empty set and V.
    """
    ids = [f"v{i:03d}" for i in range(n)]
    edges = {"loop": (ids[-1], ids[-1])}
    edges.update({f"e{v}": (ids[i + 1], v) for i, v in enumerate(ids[:-1])})
    return validate(DirectedGraph(ids, edges))


def census_graphs(max_vertices: int, max_edges: int):
    """Every labelled source-free multigraph up to the given sizes, loops
    and parallel edges included: one per multiset of (source, range) pairs
    on ``v0 .. v(n-1)`` that feeds every vertex."""
    for n in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(n)]
        arrows = list(itertools.product(vertices, repeat=2))
        for k in range(n, max_edges + 1):
            for chosen in itertools.combinations_with_replacement(arrows, k):
                if {rng for _, rng in chosen} == set(vertices):
                    yield DirectedGraph(vertices, {f"e{i}": a for i, a in enumerate(chosen)})
