"""Golden corpus: digests of what ``prim-lattice`` prints, for byte identity.

Every case runs ``cli.main`` in process and records its exit code, stdout
and stderr.  The cases come in groups:

* ``fixtures``: the three graphs of ``fixtures.py``;
* ``families``: every graph of the benchmark catalogue (built by
  ``perfbench/families.py``) with at most 48 vertices;
* ``random``: 80 graphs drawn by ``oracle.random_graph(rng, 8, 16)``;
* ``malformed-12`` to ``malformed-14``: the malformed command lines of
  ``malformed.py`` at seeds 12, 13 and 14 (``test_bad_input.py`` sweeps
  seed 12);
* ``unknown-vertices``: on the three fixture graphs, pairs, tails and
  primitives that name two to five vertices the graph does not declare,
  four draws per graph, so each error line must name the least of them
  under every hash seed.

On each graph of the first three groups every command but ``oracle``
runs once, with arguments drawn from a seed fixed per graph, and
``gauge-lattice`` runs once more with ``--dot``.  ``golden.json`` keeps
one SHA-256 digest per group and command.  A case that exits 4 (a bug,
whose traceback names local paths) stops the run.  pytest does not
collect this file, which needs no pytest to run; ``test_golden.py``
checks the ``fixtures``, ``random`` and ``unknown-vertices`` groups.
Run it from the repository root:

    PYTHONPATH=src python tests/golden.py          # check, PYTHONHASHSEED 0, 1, 2
    PYTHONPATH=src python tests/golden.py --write  # regenerate golden.json

Both run the corpus in one child process per hash seed, one after the
other, and ``--write`` writes only digests that all three agree on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
PERFBENCH = HERE.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import families  # noqa: E402
from fixtures import fixture_graphs  # noqa: E402
from malformed import malformed_argvs  # noqa: E402
from prim_lattice import cli, jsonio, lattice  # noqa: E402
from prim_lattice.graph import entrance_free_cycles  # noqa: E402
from prim_lattice.oracle import random_graph  # noqa: E402
from prim_lattice.tails import enumerate_maximal_tails  # noqa: E402

HASH_SEEDS = ("0", "1", "2")
MALFORMED_SEEDS = (12, 13, 14)
# the commands run on each graph, in this order, by their golden.json names
COMMANDS = (
    "validate", "tails", "prims", "sat-hered", "leq", "meet", "join", "hull",
    "from-hull", "closure", "contains", "gauge-lattice", "gauge-lattice --dot",
)


def _flags(doc: dict, key: str) -> dict:
    """The flags after ``-g`` of each command on one graph, drawn from ``key``."""
    rng = random.Random(f"golden:{key}")
    graph = jsonio.graph_from_json(doc)
    tails = [jsonio.tail_to_json(t) for t in enumerate_maximal_tails(graph)]
    covers = [frozenset(t["vertices"]) for t in tails]

    def cycles_of(covered):
        return [c.edges for c in entrance_free_cycles(graph, covered)]

    pairs = [families.ideal_pair(rng, graph.vertices, covers, cycles_of, 4, 24) for _ in range(6)]
    prims = [families.primitive(rng, rng.choice(tails), 24) for _ in range(5)]
    hull = lattice.hull(graph, jsonio.pair_from_json(graph, pairs[4]))
    return {
        "leq": ["-p", pairs[0], "-q", pairs[1]],
        "meet": ["-P", pairs[1:4]],
        "join": ["-P", pairs[2:4]],
        "hull": ["-p", pairs[4]],
        "from-hull": ["-H", jsonio.hull_to_json(hull)],
        "closure": ["-X", prims[: rng.randint(1, 3)], "-t", prims[3]],
        "contains": ["-p", pairs[5], "-r", prims[4]],
        "gauge-lattice --dot": ["--dot"],
    }


def _graph_cases(graphs):
    """``(command, key, argv)`` for every command on each ``(key, document)``."""
    for key, doc in graphs:
        flags = _flags(doc, key)
        for command in COMMANDS:
            yield command, key, [command.split()[0], "-g", doc, *flags.get(command, [])]


def _malformed_cases(seed: int):
    """The malformed command lines at ``seed``, as ``test_bad_input`` sweeps them."""
    for i, argv in enumerate(malformed_argvs(seed)):
        yield argv[0], str(i), argv


# ids that no graph of the corpus declares
GHOSTS = tuple(f"{letter}{digit}" for letter in "pqrst" for digit in range(4))


def _unknown_cases():
    """Commands whose pairs, tails and primitives name several undeclared vertices."""
    rng = random.Random("golden:unknown")
    for key, graph in fixture_graphs().items():
        doc = jsonio.graph_to_json(graph)

        def named():
            ids = rng.sample(GHOSTS, rng.randint(2, 5)) + [rng.choice(doc["vertices"])]
            rng.shuffle(ids)
            return ids

        for i in range(4):
            pair, prim = {"H": named(), "U": []}, {"tail": {"vertices": named()}, "z": "0"}
            stratum = {"tail": {"vertices": named()}, "allowed": {"arcs": [], "points": ["0"]}}
            flags = {
                "leq": ["-p", pair, "-q", pair],
                "meet": ["-P", [pair, pair]],
                "join": ["-P", [pair]],
                "hull": ["-p", pair],
                "from-hull": ["-H", [stratum]],
                "closure": ["-X", [prim], "-t", prim],
                "contains": ["-p", {"H": doc["vertices"], "U": []}, "-r", prim],
            }
            for command, rest in flags.items():
                yield command, f"{key}-{i}", [command, "-g", doc, *rest]


def groups() -> dict:
    """Each group's name and a function yielding its cases."""
    family_keys = sorted(
        key for key in json.loads((PERFBENCH / "reference.json").read_text())["graphs"]
        if len(families.build(key)["vertices"]) <= 48
    )

    def drawn():
        rng = random.Random(0)
        return [(f"random-{i}", jsonio.graph_to_json(random_graph(rng, 8, 16))) for i in range(80)]

    found = {
        "fixtures": lambda: _graph_cases((k, jsonio.graph_to_json(g)) for k, g in fixture_graphs().items()),
        "families": lambda: _graph_cases((k, families.build(k)) for k in family_keys),
        "random": lambda: _graph_cases(drawn()),
    }
    for seed in MALFORMED_SEEDS:
        found[f"malformed-{seed}"] = lambda seed=seed: _malformed_cases(seed)
    found["unknown-vertices"] = _unknown_cases
    return found


def digests(cases) -> dict:
    """One digest per command over the exit codes and output of ``cases``."""
    hashes = {}
    for command, key, argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a if isinstance(a, str) else json.dumps(a) for a in argv])
        if code == 4:
            raise AssertionError(f"{command} on {key} exited 4:\n{err.getvalue()}")
        record = json.dumps([key, code, out.getvalue(), err.getvalue()]) + "\n"
        hashes.setdefault(command, hashlib.sha256()).update(record.encode("utf-8"))
    return {command: h.hexdigest() for command, h in sorted(hashes.items())}


def corpus() -> dict:
    return {name: digests(cases()) for name, cases in groups().items()}


def differences(found: dict, expected: dict) -> list[str]:
    names = sorted(set(found) | set(expected))
    return [
        f"{name} {command}"
        for name in names
        for command in sorted(set(found.get(name, {})) | set(expected.get(name, {})))
        if found.get(name, {}).get(command) != expected.get(name, {}).get(command)
    ]


def main(argv: list) -> int:
    if argv == ["--print"]:
        print(json.dumps(corpus(), indent=1, sort_keys=True))
        return 0
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    runs = {}
    for seed in HASH_SEEDS:
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, __file__, "--print"],
            env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True,
        )
        if child.returncode:
            print(f"PYTHONHASHSEED={seed}: exit {child.returncode}\n{child.stderr}", file=sys.stderr)
            return 1
        runs[seed] = json.loads(child.stdout)
        print(f"PYTHONHASHSEED={seed}: {time.perf_counter() - started:.1f} s")
    expected = runs[HASH_SEEDS[0]] if argv else json.loads(GOLDEN.read_text())
    failed = 0
    for seed, found in runs.items():
        for name in differences(found, expected):
            failed += 1
            print(f"PYTHONHASHSEED={seed}: {name} differs", file=sys.stderr)
    if failed:
        return 1
    if argv:
        GOLDEN.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    count = sum(len(commands) for commands in expected.values())
    print(f"{count} digests in {len(expected)} groups match under PYTHONHASHSEED {', '.join(HASH_SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
