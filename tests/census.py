"""Bounded-exhaustive oracle census: every small source-free multigraph.

Runs ``oracle.self_check`` (seeds 0 and 1, four samples each), checks
the three facts of the tail order (``tail_laws``, on every saturated
hereditary set and every family of tails), checks ``classify_tail``
against the brute-force tails on every vertex set, and checks the gauge
lattice's sets and Hasse covers against the brute-force family and its
literal cover relation, on every labelled source-free multigraph with at
most three vertices and six edges, or with four vertices and at most
five edges.  It takes about 40 s, so pytest does not collect it.  Run
it from the repository root:

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import sys
import time

from fixtures import census_graphs
from prim_lattice.graph import saturated_hereditary_lattice
from prim_lattice.oracle import brute_saturated_hereditary, self_check
from tail_laws import classification_faults, tail_order_faults

# the number of graphs this generator yields in that scope
EXPECTED = 5461


def brute_lattice(g) -> tuple[list, list]:
    """The brute-force family, sorted by size then members, and every pair
    ``(i, j)`` with set ``i`` strictly inside set ``j`` and no set between."""
    family = sorted(brute_saturated_hereditary(g), key=lambda h: (len(h), sorted(h)))
    covers = []
    for i, low in enumerate(family):
        for j, high in enumerate(family):
            if low < high and not any(low < mid < high for mid in family):
                covers.append((i, j))
    return family, covers


def main() -> int:
    started = time.perf_counter()
    graphs = [*census_graphs(3, 6), *(g for g in census_graphs(4, 5) if len(g.vertices) == 4)]
    if len(graphs) != EXPECTED:
        print(f"{len(graphs)} graphs, expected {EXPECTED}", file=sys.stderr)
        return 1
    failed = 0
    for g in graphs:
        for seed in (0, 1):
            report = self_check(g, seed, 4)
            if not report["pass"]:
                failed += 1
                print(f"mismatch at seed {seed} on {g!r}: {report}", file=sys.stderr)
        faults = tail_order_faults(g)
        if faults:
            failed += 1
            print(f"tail order fails on {g!r}: {faults}", file=sys.stderr)
        faults = classification_faults(g)
        if faults:
            failed += 1
            print(f"classify_tail fails on {g!r}: {faults}", file=sys.stderr)
        if saturated_hereditary_lattice(g) != brute_lattice(g):
            failed += 1
            print(f"gauge lattice covers fail on {g!r}", file=sys.stderr)
    seconds = time.perf_counter() - started
    checks = "tail-order, classification and gauge-lattice cover checks"
    runs = f"{2 * len(graphs)} oracle runs, {len(graphs)} {checks}"
    print(f"{len(graphs)} graphs, {runs}, {failed} failed, {seconds:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
