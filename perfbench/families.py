"""Deterministic graph families and value generators for the benchmark.

Graphs are plain JSON documents in the format ``prim-lattice`` reads, so
the program under test only ever sees generated inputs.  Vertex ids are
zero padded, which makes their sort order the numeric order the family
definitions talk about.

Every catalogue key names one graph, for example ``chain-40`` or
``random-64-128-2``; the reference digests in ``reference.json`` are
keyed by it, so a workload seed may only choose among catalogue keys.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _vid(i: int) -> str:
    return f"v{i:03d}"


def _graph(n: int, edges) -> dict:
    return {
        "vertices": [_vid(i) for i in range(n)],
        "edges": [
            {"id": f"e{j:04d}", "src": _vid(s), "rng": _vid(r)}
            for j, (s, r) in enumerate(edges)
        ],
    }


def chain(n: int) -> dict:
    """Looped vertices ``v_i -> v_{i+1}``: n nested cyclic tails of period 1."""
    edges = [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    return _graph(n, edges)


def antichain(k: int) -> dict:
    """k disjoint loops, so the gauge lattice is the Boolean lattice 2^k."""
    return _graph(k, [(i, i) for i in range(k)])


def cascade(n: int) -> dict:
    """One looped root feeding a path that runs against the id order.

    The root is the last id and each path vertex has a smaller id than
    its feeder, so a sweep in id order absorbs one vertex per round.
    Its only saturated hereditary sets are the empty set and V.
    """
    order = list(range(n - 1, -1, -1))
    edges = [(order[0], order[0])] + list(zip(order, order[1:]))
    return _graph(n, edges)


def random_graph(n: int, m: int, seed: int) -> dict:
    """m uniform edges on n vertices, then a loop on every unfed vertex."""
    rng = random.Random(f"random:{n}:{m}:{seed}")
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    fed = {r for _, r in edges}
    edges += [(v, v) for v in range(n) if v not in fed]
    return _graph(n, edges)


def build(key: str) -> dict:
    """The graph JSON named by a catalogue key."""
    family, *sizes = key.split("-")
    args = [int(s) for s in sizes]
    if family == "chain":
        return chain(*args)
    if family == "antichain":
        return antichain(*args)
    if family == "cascade":
        return cascade(*args)
    if family == "random":
        return random_graph(*args)
    raise ValueError(f"unknown graph family in {key!r}")


def relabel(graph: dict, prefix: str) -> dict:
    """The same graph with every id prefixed, so no two requests share one.

    A common prefix keeps the sort order of ids, so the program's output
    for the relabelled graph is its output for the original with the
    prefix added in front of every id.
    """
    return {
        "vertices": [prefix + v for v in graph["vertices"]],
        "edges": [
            {"id": prefix + e["id"], "src": prefix + e["src"], "rng": prefix + e["rng"]}
            for e in graph["edges"]
        ],
    }


# --- value objects in the JSON shapes the CLI and jsonio accept ---------


def angle(rng: random.Random, max_denominator: int) -> str:
    q = rng.randint(1, max_denominator)
    return str(Fraction(rng.randrange(q), q))


def open_set(rng: random.Random, max_arcs: int, max_denominator: int):
    """A proper open circle set of 1 to ``max_arcs`` disjoint arcs."""
    count = rng.randint(1, max_arcs)
    cuts = set()
    while len(cuts) < 2 * count:
        q = rng.randint(2, max_denominator)
        cuts.add(Fraction(rng.randrange(q), q))
    ends = sorted(cuts)
    # pair consecutive cut points; rotating by one lets the last arc wrap past 0
    if rng.randrange(2):
        ends = ends[1:] + [ends[0] + 1]
    return [[str(ends[i]), str(ends[i + 1])] for i in range(0, len(ends), 2)]


def ideal_pair(rng, vertices, tails, cycles_of, max_arcs, max_denominator) -> dict:
    """A pair whose H is the complement of a random union of maximal tails.

    ``tails`` lists vertex lists; ``cycles_of`` maps the union to the
    entrance-free cycles inside it, each of which needs an open set.
    """
    chosen = [t for t in tails if rng.random() < 0.5] or [rng.choice(tails)]
    covered = frozenset().union(*chosen)
    return {
        "H": sorted(set(vertices) - covered),
        "U": [
            {"cycle": list(c), "set": open_set(rng, max_arcs, max_denominator)}
            for c in cycles_of(covered)
        ],
    }


def primitive(rng, tail: dict, max_denominator: int) -> dict:
    """A primitive ideal on a tail given in ``tails`` command output form."""
    z = angle(rng, max_denominator) if tail["kind"] == "cyclic" else "0"
    return {"tail": {"vertices": tail["vertices"]}, "z": z}
