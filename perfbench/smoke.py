"""Tiny-size smoke check of the benchmark, about a second long.

    python3 perfbench/smoke.py

Runs the CLI in process on a few small catalogue graphs and checks three
things against each other: the answers, the committed reference
digests, and the brute-force oracles.  The sat-hered digest is also
rebuilt from the oracle's own sets, so a wrong reference file fails too.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

SMOKE_GRAPHS = ("chain-4", "antichain-3", "cascade-5", "random-6-12-0", "random-9-18-2")


def smoke(root: Path) -> list[str]:
    lib = run.load_program(root)
    reference = json.loads(run.REFERENCE.read_text())
    problems = []
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        stream = workloads.Cli(lib, 0, Path(scratch), reference)
        for key in SMOKE_GRAPHS:
            graph = lib.graph.validate(lib.jsonio.graph_from_json(workloads.families.build(key)))
            brute_tails = sorted(sorted(t) for t in lib.oracle.brute_maximal_tails(graph))
            brute_sets = sorted(
                lib.oracle.brute_saturated_hereditary(graph), key=lambda h: (len(h), sorted(h))
            )
            expected_sat = lib.jsonio.canonical_dumps([sorted(h) for h in brute_sets]) + "\n"
            if workloads.digest(expected_sat) != reference["digests"][f"{key}:sat-hered"]:
                problems.append(f"{key}: reference sat-hered digest disagrees with the oracle")
            for command in workloads.CLI_COMMANDS:
                request = workloads.Request(command, key, f"{key}:{command}")
                request.args = stream.arguments(key, command)
                problems += stream.check(request, workloads.run_cli_in_process(lib, request.args))
            answers = stream.seen[key]
            if answers["tails"] != brute_tails:
                problems.append(f"{key}: tails disagree with the oracle")
            if reference["graphs"][key]["L"] != len(brute_sets):
                problems.append(f"{key}: reference L disagrees with the oracle")
        problems += stream.finish()
    return problems


def main() -> int:
    problems = smoke(Path.cwd())
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
