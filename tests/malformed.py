"""Seeded malformed command lines: every command's valid documents, one node mutated.

``test_bad_input.py`` runs the sweep under pytest and ``golden.py`` digests
it at fixed seeds; this module imports neither pytest nor the package, so
the golden corpus runs on an interpreter without pytest.
"""

from __future__ import annotations

import json
import random

# valid documents for every command that reads data, on the two-loop flow graph
GRAPH = {
    "vertices": ["u", "v"],
    "edges": [
        {"id": "a", "src": "u", "rng": "u"},
        {"id": "b", "src": "v", "rng": "v"},
        {"id": "c", "src": "u", "rng": "v"},
    ],
}
PAIR = {"H": [], "U": [{"cycle": ["a"], "set": [["0", "1/2"]]}]}
PAIR_U = {"H": ["u"], "U": [{"cycle": ["b"], "set": [["1/3", "4/3"]]}]}
PRIM = {"tail": {"vertices": ["u", "v"], "kind": "cyclic", "cycle": ["a"], "period": 1}, "z": "1/4"}
PRIM_V = {"tail": {"vertices": ["v"]}, "z": "3/4"}
HULL = [
    {"tail": {"vertices": ["v"], "kind": "cyclic", "cycle": ["b"], "period": 1}, "allowed": "full"},
    {
        "tail": {"vertices": ["u", "v"], "kind": "cyclic", "cycle": ["a"], "period": 1},
        "allowed": {"arcs": [["1/2", "1"]], "points": []},
    },
]
DOCUMENTS = {
    "validate": {},
    "tails": {},
    "prims": {},
    "sat-hered": {},
    "gauge-lattice": {},
    "oracle": {},
    "leq": {"-p": PAIR, "-q": PAIR_U},
    "meet": {"-P": [PAIR, PAIR_U]},
    "join": {"-P": [PAIR, PAIR_U]},
    "hull": {"-p": PAIR},
    "from-hull": {"-H": HULL},
    "closure": {"-X": [PRIM, PRIM_V], "-t": PRIM_V},
    "contains": {"-p": PAIR_U, "-r": PRIM},
}
JUNK = [
    None, True, False, 0, -1, 7, 10**400, 1.5, float("nan"), float("inf"),
    "", "x", "u", "a", "1e400", "1e3000000", "1e-1000000", "0.5", " 1/2", "+1", "1/-2", "1/0",
    "0/0", "1" * 5000, "1/" + "9" * 4001, "١/٢", "full", "empty", "cyclic", "aperiodic",
    [], {}, [[]], [["0", "1/2", "3/4"]], ["0", "1/2", "3/4"], ["0"], [["0"]], ["a"] * 20_000,
    {"arcs": 1}, {"points": ["1/3"]}, {"vertices": ["v"]}, ["a", "a"], ["c"], ["u", "x"],
]
# what an inline data flag may start with: anything else would be read as a path
INLINE = [junk for junk in JUNK if json.dumps(junk)[0] in '[{"']


def paths(node, at=()):
    yield at
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, at + (key,))


def _mutant(rng: random.Random, document):
    """``document`` with one node replaced, dropped, doubled, wrapped or stringified."""
    doc = json.loads(json.dumps(document))
    at = rng.choice(list(paths(doc)))
    how = rng.choice(["junk", "junk", "junk", "drop", "double", "wrap", "text"])
    if not at:
        return rng.choice(INLINE) if how == "junk" else [doc] if how == "wrap" else json.dumps(doc)
    *up, last = at
    holder = doc
    for key in up:
        holder = holder[key]
    node = holder[last]
    if how == "junk":
        holder[last] = rng.choice(JUNK)
    elif how == "drop":
        del holder[last]
    elif how == "double" and isinstance(holder, list):
        holder.insert(last, node)
    elif how == "double":
        holder[last] = node + node if isinstance(node, list) else [node, node]
    elif how == "wrap":
        holder[last] = [node]
    else:
        holder[last] = json.dumps(node)
    return doc


def malformed_argvs(seed: int, count: int = 2000):
    """Seeded command lines, each with one of its command's valid documents mutated."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(sorted(DOCUMENTS))
        flags = {"-g": GRAPH, **DOCUMENTS[command]}
        target = rng.choice(sorted(flags))
        argv = [command]
        for flag, doc in flags.items():
            argv += [flag, _mutant(rng, doc) if flag == target else doc]
        if command == "oracle":
            argv += ["--samples", "2"]
        yield argv
