"""The four closed-loop request streams: tails, gauge, queries and cli.

Each stream turns the workload seed into an endless, deterministic list
of requests, handed out in batches.  A batch is prepared (graph files,
argument files) before the clock starts and checked after it stops, so
only the requests themselves are timed.  One client sends the next
request when the previous one has returned; nothing runs in parallel.

For ``tails`` and ``gauge`` a batch is one pass over a fixed ladder of
graphs with every command on every graph; the seed chooses the order
and the ids.  Graph cost is heavy-tailed (one random(28, 56) draw costs
as much as fifty others), so drawing graphs per seed would make seeds
load the program unequally, and a run stops only between batches, so
every run sends every graph and command equally often.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import families


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Request:
    kind: str  # CLI command, or lattice function for ``queries``
    graph: str  # catalogue key of the graph
    ref: str  # key of the reference digest
    args: list = field(default_factory=list)
    label: str = ""  # id prefix of a relabelled graph


class Stream:
    """What every workload provides to the runner in ``run.py``."""

    name = ""
    # host-speed probe time of the host that reported times refer to
    speed_ref_s = 0.010

    @staticmethod
    def speed_probe_s() -> float:
        """Seconds for a fixed pure-Python kernel that shares no code with the program.

        The collector is off, so the program's heap never adds a
        collection to the probe's time.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            total = 0
            for i in range(1600):
                members = frozenset(range(i % 40))
                index = {m: m * m % 7 for m in members}
                total += sum(1 for m in members if index[m])
                for j in range(30):
                    total += j * j % 7
            return perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def __init__(self, lib, seed: int, workdir: Path, reference: dict):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.reference = reference

    def batches(self, tag: str):
        """Endless deterministic batches; ``tag`` only changes graph ids."""
        raise NotImplementedError

    def setup(self) -> None:
        """Per-run preparation beyond the first batch, and the warm-ups."""

    def prepare(self, batch) -> None:
        """Untimed input generation for one batch."""

    def execute(self, request: Request, tracer=None):
        raise NotImplementedError

    def check(self, request: Request, output) -> list[str]:
        """Problems with one answer; an empty list means it is right."""
        raise NotImplementedError

    def release(self, batch) -> None:
        """Remove whatever ``prepare`` wrote for the batch."""

    def finish(self) -> list[str]:
        """Checks over the whole run, such as the oracles on ``cli``."""
        return []

    def expect(self, request: Request, text: str) -> list[str]:
        want = self.reference["digests"].get(request.ref)
        if want is None:
            return [f"{request.ref}: no reference digest"]
        if digest(text) != want:
            return [f"{request.ref}: output digest differs from the reference"]
        return []


def run_cli_in_process(lib, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = lib.cli.main(list(argv))
    return code, buffer.getvalue()


# --- tails and gauge: one in-process CLI command on a fresh graph -------


class FreshGraphs(Stream):
    """One command per request on a relabelled graph no other request sees."""

    kinds: tuple = ()

    @staticmethod
    def catalogue() -> list[str]:
        """The ladder: every graph, once per pass."""
        raise NotImplementedError

    def batches(self, tag: str):
        rng = random.Random(f"{self.name}:{self.seed}")
        serial = 0
        while True:
            batch = [Request(kind, key, f"{key}:{kind}") for key in self.catalogue() for kind in self.kinds]
            rng.shuffle(batch)
            for request in batch:
                serial += 1
                request.label = f"{tag}{serial}_"
            yield batch

    def prepare(self, batch) -> None:
        for request in batch:
            path = self.workdir / f"{request.label}.json"
            path.write_text(json.dumps(families.relabel(families.build(request.graph), request.label)))
            request.args = [request.kind, "-g", str(path)]

    def setup(self) -> None:
        for kind in self.kinds:
            warm = Request(kind, self.catalogue()[0], "", label="w_")
            self.prepare([warm])
            self.execute(warm)
            self.release([warm])

    def execute(self, request: Request, tracer=None):
        return run_cli_in_process(self.lib, request.args)

    def release(self, batch) -> None:
        for request in batch:
            (self.workdir / f"{request.label}.json").unlink(missing_ok=True)

    def check(self, request: Request, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"{request.ref}: exit code {code}"]
        text = text.replace(request.label, "")
        return self.expect(request, text) + self.closed_form(request, json.loads(text))

    def closed_form(self, request: Request, answer) -> list[str]:
        return []


class Tails(FreshGraphs):
    """``tails``/``prims`` on chain(n), n in [20, 80], and random(n, 2n), n in [40, 128]."""

    name = "tails"
    kinds = ("tails", "prims")

    @staticmethod
    def catalogue() -> list[str]:
        return [f"chain-{n}" for n in range(20, 81, 5)] + [
            f"random-{n}-{2 * n}-{g}" for n in range(40, 129, 8) for g in range(4)
        ]

    def closed_form(self, request, answer):
        family, *size = request.graph.split("-")
        if family != "chain":
            return []
        n = int(size[0])
        entries = answer if request.kind == "tails" else [a["tail"] for a in answer]
        if len(entries) != n or any(t["kind"] != "cyclic" or t["period"] != 1 for t in entries):
            return [f"{request.ref}: chain({n}) must have {n} cyclic tails of period 1"]
        return []


class Gauge(FreshGraphs):
    """``sat-hered``/``gauge-lattice`` on antichain, cascade and random graphs."""

    name = "gauge"
    kinds = ("sat-hered", "gauge-lattice")

    @staticmethod
    def catalogue() -> list[str]:
        return (
            [f"antichain-{k}" for k in range(4, 9)]
            + [f"cascade-{n}" for n in range(40, 121, 10)]
            + [f"random-{n}-{2 * n}-{g}" for n in range(16, 29) for g in range(4)]
        )

    def closed_form(self, request, answer):
        sets = answer if request.kind == "sat-hered" else answer["sets"]
        problems = []
        expected = self.reference["graphs"][request.graph]["L"]
        if len(sets) != expected:
            problems.append(f"{request.ref}: {len(sets)} sets, expected L = {expected}")
        family, *size = request.graph.split("-")
        n = int(size[0])
        if family == "antichain":
            if len(sets) != 2**n:
                problems.append(f"{request.ref}: antichain({n}) must have 2^{n} sets")
            if request.kind == "gauge-lattice" and len(answer["covers"]) != n * 2 ** (n - 1):
                problems.append(f"{request.ref}: antichain({n}) must have {n}*2^{n - 1} covers")
        if family == "cascade":
            if sets != [[], families.build(request.graph)["vertices"]]:
                problems.append(f"{request.ref}: cascade({n}) must have exactly the sets {{}} and V")
        return problems


# --- queries: library calls on value objects built in set-up ------------

QUERY_GRAPHS = ("random-80-160-0", "chain-32", "random-48-96-0")
# operation -> requests per batch of 60, per graph 1/3 of that
QUERY_MIX = {
    "pair_leq": 18,
    "pair_meet": 9,
    "pair_join": 9,
    "contained_in_prim": 6,
    "closure_contains": 6,
    "hull": 6,
    "hull_to_pair": 6,
}
ORDER_OPS = ("pair_leq", "pair_meet", "pair_join", "contained_in_prim", "closure_contains")
HULL_OPS = ("hull", "hull_to_pair")
POOL_PAIRS, POOL_PRIMS, POOL_HULLS = 12, 8, 6
MAX_ARCS, MAX_DENOMINATOR = 12, 720


@functools.cache
def query_catalogue(key: str) -> dict:
    """Fixed argument lists per operation for one graph, as pool indices."""
    rng = random.Random(f"queries:{key}")
    pairs, prims = range(POOL_PAIRS), range(POOL_PRIMS)
    return {
        "pair_leq": rng.sample([(i, j) for i in pairs for j in pairs], 48),
        "pair_meet": [tuple(rng.choices(pairs, k=3)) for _ in range(24)],
        "pair_join": [tuple(rng.choices(pairs, k=2)) for _ in range(24)],
        "contained_in_prim": rng.sample([(i, j) for i in pairs for j in prims], 32),
        "closure_contains": [
            (tuple(rng.sample(prims, rng.randint(2, 4))), rng.choice(prims)) for _ in range(24)
        ],
        "hull": [(i,) for i in pairs],
        "hull_to_pair": [(i,) for i in range(POOL_HULLS)],
    }


def value_json(lib, key: str) -> dict:
    """The JSON of one graph's pool: ideal pairs and primitive ideals."""
    rng = random.Random(f"pool:{key}")
    graph = lib.graph.validate(lib.jsonio.graph_from_json(families.build(key)))
    tails = [lib.jsonio.tail_to_json(t) for t in lib.tails.enumerate_maximal_tails(graph)]

    def cycles_of(covered):
        return [c.edges for c in lib.graph.entrance_free_cycles(graph, covered)]

    vertex_lists = [frozenset(t["vertices"]) for t in tails]
    return {
        "graph": graph,
        "pairs": [
            families.ideal_pair(rng, graph.vertices, vertex_lists, cycles_of, MAX_ARCS, MAX_DENOMINATOR)
            for _ in range(POOL_PAIRS)
        ],
        "prims": [families.primitive(rng, rng.choice(tails), MAX_DENOMINATOR) for _ in range(POOL_PRIMS)],
    }


class Pool:
    """One graph's value objects, built through the public JSON decoders."""

    def __init__(self, lib, key: str):
        data = value_json(lib, key)
        self.graph = data["graph"]
        self.pairs = [lib.jsonio.pair_from_json(self.graph, p) for p in data["pairs"]]
        self.prims = [lib.jsonio.prim_from_json(self.graph, p) for p in data["prims"]]
        self.hulls = [lib.lattice.hull(self.graph, p) for p in self.pairs[:POOL_HULLS]]
        self.catalogue = query_catalogue(key)

    def arguments(self, op: str, item) -> tuple:
        if op == "pair_leq":
            return self.pairs[item[0]], self.pairs[item[1]]
        if op in ("pair_meet", "pair_join"):
            return ([self.pairs[i] for i in item],)
        if op == "contained_in_prim":
            return self.pairs[item[0]], self.prims[item[1]]
        if op == "closure_contains":
            return [self.prims[i] for i in item[0]], self.prims[item[1]]
        if op == "hull":
            return (self.pairs[item[0]],)
        return (self.hulls[item[0]],)


def canonical_answer(lib, op: str, result) -> str:
    jsonio = lib.jsonio
    if op == "pair_leq":
        value = {"leq": result}
    elif op in ("contained_in_prim", "closure_contains"):
        value = {"contained": result}
    elif op == "hull":
        value = jsonio.hull_to_json(result)
    else:
        value = jsonio.pair_to_json(result)
    return jsonio.canonical_dumps(value)


class Queries(Stream):
    """An interactive session: many library calls against three graphs."""

    name = "queries"

    def __init__(self, *args):
        super().__init__(*args)
        self.pools: dict[str, Pool] = {}

    def batches(self, tag: str):
        rng = random.Random(f"{self.name}:{self.seed}")
        # each graph's arguments for an operation are dealt from a shuffled
        # deck, so a run uses the catalogue evenly whatever the seed
        decks: dict[tuple, list] = {}
        while True:
            batch = []
            for op, count in QUERY_MIX.items():
                for i in range(count):
                    key = QUERY_GRAPHS[i % len(QUERY_GRAPHS)]
                    deck = decks.setdefault((key, op), [])
                    if not deck:
                        deck += rng.sample(range(len(query_catalogue(key)[op])), len(query_catalogue(key)[op]))
                    item = deck.pop()
                    batch.append(Request(op, key, f"{key}:{op}:{item}", [item]))
            rng.shuffle(batch)
            yield batch

    def setup(self) -> None:
        self.pools = {key: Pool(self.lib, key) for key in QUERY_GRAPHS}
        for key in QUERY_GRAPHS:
            for op in QUERY_MIX:
                self.execute(Request(op, key, "", [0]))

    def execute(self, request: Request, tracer=None):
        pool = self.pools[request.graph]
        args = pool.arguments(request.kind, pool.catalogue[request.kind][request.args[0]])
        return getattr(self.lib.lattice, request.kind)(pool.graph, *args)

    def check(self, request: Request, output) -> list[str]:
        lattice = self.lib.lattice
        pool = self.pools[request.graph]
        item = pool.catalogue[request.kind][request.args[0]]
        problems = self.expect(request, canonical_answer(self.lib, request.kind, output))
        if request.kind == "hull_to_pair" and output != pool.pairs[item[0]]:
            problems.append(f"{request.ref}: hull_to_pair(hull(p)) != p")
        if request.kind in ("pair_meet", "pair_join"):
            for pair in pool.arguments(request.kind, item)[0]:
                low, high = (output, pair) if request.kind == "pair_meet" else (pair, output)
                if not lattice.pair_leq(pool.graph, low, high):
                    problems.append(f"{request.ref}: result is not a bound of its arguments")
        return problems


# --- cli: one ``python -m prim_lattice.cli`` process per request ----------

CLI_COMMANDS = (
    "validate",
    "tails",
    "prims",
    "sat-hered",
    "leq",
    "meet",
    "join",
    "hull",
    "from-hull",
    "closure",
    "contains",
    "gauge-lattice",
)


def cli_catalogue() -> list[str]:
    return (
        [f"chain-{n}" for n in range(3, 13)]
        + [f"antichain-{k}" for k in range(2, 7)]
        + [f"cascade-{n}" for n in range(3, 13)]
        + [f"random-{n}-{2 * n}-{g}" for n in range(4, 13) for g in range(4)]
    )


def cli_inputs(lib, key: str) -> dict:
    """Argument JSON for every command on one catalogue graph."""
    rng = random.Random(f"cli:{key}")
    values = value_json(lib, key)
    graph = values["graph"]
    pairs, prims = values["pairs"], values["prims"]
    pair_of = lib.jsonio.pair_from_json(graph, pairs[4])
    return {
        "graph": {"-g": families.build(key)},
        "leq": {"-p": pairs[0], "-q": pairs[1]},
        "meet": {"-P": pairs[1:4]},
        "join": {"-P": pairs[2:4]},
        "hull": {"-p": pairs[4]},
        "from-hull": {"-H": lib.jsonio.hull_to_json(lib.lattice.hull(graph, pair_of))},
        "closure": {"-X": prims[: rng.randint(1, 3)], "-t": prims[3]},
        "contains": {"-p": pairs[5], "-r": prims[4]},
    }


class Cli(Stream):
    """Whole-process requests: interpreter start, import, parse, compute, emit."""

    name = "cli"
    speed_ref_s = 0.060

    @staticmethod
    def speed_probe_s() -> float:
        """Seconds to start and stop a bare interpreter: a request is a
        whole process, and its speed follows process start more than it
        follows a kernel inside one process."""
        started = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        return perf_counter() - started

    def __init__(self, *args):
        super().__init__(*args)
        self.root = self.lib.src.parent
        self.env = dict(os.environ, PYTHONPATH=str(self.lib.src))
        self.argv: dict[str, dict] = {}
        self.seen: dict[str, dict] = {}

    def batches(self, tag: str):
        rng = random.Random(f"{self.name}:{self.seed}")
        # rounds cycle through size strata, so seeds draw alike-sized graphs
        strata: dict[int, list] = {}
        for key in cli_catalogue():
            strata.setdefault((len(families.build(key)["vertices"]) - 1) // 2, []).append(key)
        for number in itertools.count():
            stratum = sorted(strata)[number % len(strata)]
            key = rng.choice(strata[stratum])
            batch = [Request(cmd, key, f"{key}:{cmd}") for cmd in CLI_COMMANDS]
            rng.shuffle(batch)
            yield batch

    def prepare(self, batch) -> None:
        for request in batch:
            request.args = self.arguments(request.graph, request.kind)

    def arguments(self, key: str, command: str) -> list[str]:
        if key not in self.argv:
            folder = self.workdir / key
            folder.mkdir(exist_ok=True)
            self.argv[key] = {}
            for name, flags in cli_inputs(self.lib, key).items():
                argv = []
                for flag, value in flags.items():
                    path = folder / f"{name}{flag}.json"
                    path.write_text(json.dumps(value))
                    argv += [flag, str(path)]
                self.argv[key][name] = argv
        return [command, *self.argv[key]["graph"], *self.argv[key].get(command, [])]

    def setup(self) -> None:
        warm_key = cli_catalogue()[0]
        for command in CLI_COMMANDS:
            self.execute(Request(command, warm_key, "", self.arguments(warm_key, command)))

    def execute(self, request: Request, tracer=None):
        if tracer is None:
            command = [sys.executable, "-m", "prim_lattice.cli", *request.args]
            done = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True, text=True)
            return done.returncode, done.stdout
        spans_file = self.workdir / "child-spans.json"
        command = [
            sys.executable,
            str(Path(__file__).with_name("tracechild.py")),
            str(spans_file),
            str(tracer.current),
            *request.args,
        ]
        done = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True, text=True)
        tracer.adopt(json.loads(spans_file.read_text()), parent=tracer.stack[-1])
        spans_file.unlink()
        return done.returncode, done.stdout

    def check(self, request: Request, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"{request.ref}: exit code {code}"]
        answer = json.loads(text)
        seen = self.seen.setdefault(request.graph, {})
        if request.kind == "tails":
            seen["tails"] = sorted(sorted(t["vertices"]) for t in answer)
        elif request.kind in ("sat-hered", "gauge-lattice"):
            sets = answer if request.kind == "sat-hered" else answer["sets"]
            seen[request.kind] = sorted(sorted(h) for h in sets)
        return self.expect(request, text)

    def finish(self) -> list[str]:
        """Brute-force oracles on every graph the run used."""
        lib = self.lib
        problems = []
        for key, answers in self.seen.items():
            graph = lib.graph.validate(lib.jsonio.graph_from_json(families.build(key)))
            truth = {
                "tails": sorted(sorted(t) for t in lib.oracle.brute_maximal_tails(graph)),
                "sat-hered": sorted(sorted(h) for h in lib.oracle.brute_saturated_hereditary(graph)),
            }
            truth["gauge-lattice"] = truth["sat-hered"]
            for kind, got in answers.items():
                if got != truth[kind]:
                    problems.append(f"{key}:{kind}: disagrees with the brute-force oracle")
        return problems


STREAMS = {cls.name: cls for cls in (Tails, Gauge, Queries, Cli)}
