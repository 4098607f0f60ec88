"""Regenerate ``reference.json``: the digests every benchmark answer must match.

    python3 perfbench/reference.py

Run from the root of a checkout whose answers are trusted.  For every
catalogue graph it stores V, E, the tail count T and the gauge lattice
size L, and for every catalogue request the SHA-256 of its canonical
output.  L is counted here from the tails alone: saturated hereditary
sets are the complements of unions of maximal tails, and those unions
correspond to the antichains of the tails under inclusion.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import families
import run
import workloads


def count_antichains(sets: list[frozenset]) -> int:
    comparable = [
        frozenset(j for j, other in enumerate(sets) if j != i and (s <= other or other <= s))
        for i, s in enumerate(sets)
    ]

    @functools.cache
    def count(remaining: frozenset) -> int:
        if not remaining:
            return 1
        x = min(remaining)
        return count(remaining - {x}) + count(remaining - {x} - comparable[x])

    return count(frozenset(range(len(sets))))


def graph_meta(lib, key: str) -> dict:
    data = families.build(key)
    graph = lib.graph.validate(lib.jsonio.graph_from_json(data))
    tails = [t.vertices for t in lib.tails.enumerate_maximal_tails(graph)]
    return {"V": len(data["vertices"]), "E": len(data["edges"]), "T": len(tails), "L": count_antichains(tails)}


def build_reference(lib, workdir: Path) -> dict:
    graphs, digests = {}, {}
    cli = workloads.Cli(lib, 0, workdir, {})

    def plain(key, kind):
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(families.build(key)))
        return [kind, "-g", str(path)]

    runs = [
        (workloads.Tails.catalogue(), workloads.Tails.kinds, plain),
        (workloads.Gauge.catalogue(), workloads.Gauge.kinds, plain),
        (workloads.cli_catalogue(), workloads.CLI_COMMANDS, cli.arguments),
    ]
    for keys, kinds, arguments in runs:
        for key in keys:
            graphs[key] = graph_meta(lib, key)
            for kind in kinds:
                code, text = workloads.run_cli_in_process(lib, arguments(key, kind))
                if code != 0:
                    raise RuntimeError(f"{key}:{kind} exited with {code}")
                digests[f"{key}:{kind}"] = workloads.digest(text)
        print(f"{len(digests)} digests", file=sys.stderr)
    for key in workloads.QUERY_GRAPHS:
        graphs[key] = graph_meta(lib, key)
        pool = workloads.Pool(lib, key)
        for op, items in pool.catalogue.items():
            for index, item in enumerate(items):
                result = getattr(lib.lattice, op)(pool.graph, *pool.arguments(op, item))
                digests[f"{key}:{op}:{index}"] = workloads.digest(workloads.canonical_answer(lib, op, result))
    return {"graphs": graphs, "digests": digests}


def main() -> int:
    root = Path.cwd()
    lib = run.load_program(root)
    workdir = root / ".perfbench" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = build_reference(lib, workdir)
    run.REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")
    print(f"wrote {len(reference['digests'])} digests for {len(reference['graphs'])} graphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
