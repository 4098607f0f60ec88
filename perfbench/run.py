"""Closed-loop benchmark for prim-lattice.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tails --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first repeats that untraced measurement, from which it
takes the ``queries`` p50s, then alternates untraced batches with traced
replays of them for half as long and reports the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The latest span dump and
per-request log (with V, E, T and L of every request) of each workload
are kept in ``.perfbench/`` in the checkout.

Host speed.  A shared host's speed drifts by tens of percent over
minutes, more than the bounds in BENCHMARK.json.  So every half second
of requests, and around every set-up, the benchmark times a probe that
shares no code with the program: a fixed pure-Python kernel, or for
``cli``, whose requests are whole processes, the start of a bare
interpreter.  It scales each time by the stream's ``speed_ref_s`` over
the probe times around it.  The end-to-end times are therefore
milliseconds and seconds of a host on which the probe takes
``speed_ref_s``: a change to the program moves them in full, a change
in host speed mostly not.  The raw wall clock figures are printed on a
``#`` line before the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
MIN_REQUESTS = 20
TAIL_BEYOND = 10
PROBES = 5
SPEED_EVERY_S = 0.5  # request time between two host-speed probes
MODULES = ("circle", "graph", "tails", "lattice", "jsonio", "oracle", "cli")


def load_program(root: Path):
    """The package's modules, imported from ``root/src``."""
    src = root / "src"
    if not (src / "prim_lattice" / "cli.py").is_file():
        raise FileNotFoundError(f"no prim_lattice sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"prim_lattice.{m}") for m in MODULES}
    return SimpleNamespace(src=src, **modules)


def set_up(root: Path, workload: str, seed: int, workdir: Path, reference: dict):
    """Import, input generation, files and warm-ups: everything before timing.

    Returns the set-up time scaled to the reference host speed, the raw
    time, and the stream ready to measure.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # every repeat pays the import again
    for name in [n for n in sys.modules if n.split(".")[0] == "prim_lattice"]:
        del sys.modules[name]
    kind = workloads.STREAMS[workload]
    before = kind.speed_probe_s()
    started = perf_counter()
    lib = load_program(root)
    stream = kind(lib, seed, workdir, reference)
    batches = stream.batches("u")
    first = next(batches)
    stream.prepare(first)
    stream.setup()
    elapsed = perf_counter() - started
    scale = kind.speed_ref_s / statistics.fmean((before, kind.speed_probe_s()))
    return elapsed * scale, elapsed, stream, batches, first


class Segment:
    """Timed requests of one segment, checked batch by batch.

    An untraced segment also times its stream's speed probe every
    ``SPEED_EVERY_S`` of requests; each record keeps the index of the
    last probe before it.
    """

    def __init__(self, stream=None):
        self.wall_s = 0.0  # time spent sending requests
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.stream = stream
        self.probes: list[float] = [stream.speed_probe_s()] if stream is not None else []
        self.since_probe = 0.0

    def probe_if_due(self, wall: float) -> None:
        self.since_probe += wall
        if self.stream is not None and self.since_probe >= SPEED_EVERY_S:
            self.probes.append(self.stream.speed_probe_s())
            self.since_probe = 0.0

    def close(self) -> None:
        if self.stream is not None:
            self.probes.append(self.stream.speed_probe_s())

    def scaled(self, record: dict) -> float:
        """A request's wall time at the reference host speed.

        The scale comes from the median of the two probes on either side
        of the request, so one disturbed probe does not move it.
        """
        i = record["probe"]
        scale = self.stream.speed_ref_s / statistics.median(self.probes[max(i - 1, 0) : i + 3])
        return record["wall_s"] * scale

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled(r) for r in self.records)

    def ok_walls(self, kinds=None) -> list[float]:
        return [
            self.scaled(r) for r in self.records if r["ok"] and (kinds is None or r["kind"] in kinds)
        ]

    @property
    def ok_raw_walls(self) -> list[float]:
        return [r["wall_s"] for r in self.records if r["ok"]]

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


def run_batch(stream, batch, segment: Segment, tracer=None) -> None:
    """Send one prepared batch, one request at a time, then check the answers.

    Only the sending is timed: checking and removing the batch's files
    happen with the clock stopped.
    """
    outputs = []
    for request in batch:
        probe = len(segment.probes) - 1
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin(len(segment.records) + len(outputs))
        try:
            output = stream.execute(request, tracer)
        except Exception as err:  # a crash is a failed request, not a crashed benchmark
            output = err
        finally:
            if tracer is not None:
                tracer.finish()
        wall = perf_counter() - t0
        outputs.append((request, output, wall, probe))
        segment.probe_if_due(wall)
    for request, output, wall, probe in outputs:
        if isinstance(output, Exception):
            problems = [f"{request.ref}: raised {type(output).__name__}: {output}"]
        else:
            try:
                problems = stream.check(request, output)
            except Exception as err:
                problems = [f"{request.ref}: check raised {type(err).__name__}: {err}"]
        segment.problems += problems
        segment.wall_s += wall
        meta = stream.reference["graphs"].get(request.graph, {})
        segment.records.append(
            {
                "kind": request.kind,
                "graph": request.graph,
                **meta,
                "wall_s": wall,
                "probe": probe,
                "ok": not problems,
            }
        )
    stream.release(batch)
    # leave no garbage from this batch to be collected inside the next one
    gc.collect()


def measure(stream, batches, batch, seconds: float, tracer=None) -> list[Segment]:
    """Send whole batches, starting with the prepared ``batch``, until
    ``seconds`` of untraced request time have been spent.

    The run stops only between batches, so every seed's run is made of
    complete passes.  With a tracer, each batch is followed by a traced
    replay of itself under fresh ids; alternating keeps both in the same
    stretch of host speed, so their ratio is the trace overhead.
    """
    plain, traced = Segment(stream), Segment()
    replays = stream.batches("t")
    while True:
        run_batch(stream, batch, plain)
        if tracer is not None:
            replay = next(replays)
            stream.prepare(replay)
            tracer.install(stream.lib)
            run_batch(stream, replay, traced, tracer)
            tracer.uninstall()
        if plain.wall_s >= seconds and len(plain.records) >= MIN_REQUESTS:
            plain.close()
            return [plain] if tracer is None else [plain, traced]
        batch = next(batches)
        stream.prepare(batch)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (1 - beyond / n), n


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0 without spread."""
    pairs = [(math.log(x), math.log(y)) for x, y in points if x and x > 0 and y > 0]
    if len({x for x, _ in pairs}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pairs)
    my = statistics.fmean(y for _, y in pairs)
    sxx = sum((x - mx) ** 2 for x, _ in pairs)
    return sum((x - mx) * (y - my) for x, y in pairs) / sxx


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def queries_p50_ms(segment: Segment) -> dict[str, float]:
    """``order_p50_ms`` and ``hull_p50_ms`` of an untraced ``queries`` segment."""
    order = segment.ok_walls(workloads.ORDER_OPS)
    hull = segment.ok_walls(workloads.HULL_OPS)
    p50 = {"order_p50_ms": statistics.median(order) * 1e3, "hull_p50_ms": statistics.median(hull) * 1e3}
    print(
        f"# queries: order_p50_ms {p50['order_p50_ms']:.4f} over {len(order)} samples of "
        f"{', '.join(workloads.ORDER_OPS)}; hull_p50_ms {p50['hull_p50_ms']:.4f} over {len(hull)} "
        f"samples of {', '.join(workloads.HULL_OPS)}"
    )
    return p50


def end_to_end(workload: str, segment: Segment, setup_times: list[tuple[float, float]]) -> dict:
    walls = segment.ok_walls()
    tail, percentile, n = tail_latency(walls)
    raw = segment.ok_raw_walls
    print(
        f"# {workload}: {len(segment.records)} requests in {segment.wall_s:.2f} s; latency_p50_ms and "
        f"latency_tail_ms over {n} samples, the tail is p{percentile:.2f} ({TAIL_BEYOND} beyond it); "
        f"setup_s is the median of {[round(s, 4) for s, _ in setup_times]}"
    )
    print(
        f"# {workload}: speed probe median {statistics.median(segment.probes) * 1e3:.3f} ms over "
        f"{len(segment.probes)} probes (reference {segment.stream.speed_ref_s * 1e3:g} ms); raw wall clock: "
        f"requests_per_s {len(raw) / segment.wall_s:.4f}, latency_p50_ms {statistics.median(raw) * 1e3:.4f}, "
        f"latency_tail_ms {tail_latency(raw)[0] * 1e3:.4f}, setup_s {statistics.median(r for _, r in setup_times):.4f}"
    )
    if workload == "queries":
        queries_p50_ms(segment)
    return {
        "requests_per_s": (len(walls) / segment.scaled_wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "setup_s": (statistics.median(s for s, _ in setup_times), "s"),
    }


def probe_ms(root: Path, code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span in spans.span_names():
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"), (f"{span}.share", "ratio")]
    return names + [
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("graph.enumerate_saturated_hereditary.closures_per_set", "ratio"),
        ("tails.enumerate_maximal_tails.exp_size", "slope"),
        ("graph.enumerate_saturated_hereditary.exp_L", "slope"),
        ("trace.overhead", "ratio"),
        ("queries.order_p50_ms", "ms"),
        ("queries.hull_p50_ms", "ms"),
        ("run.error_rate", "ratio"),
    ]


def per_layer(root: Path, workload: str, segments: list[Segment], tracer) -> dict:
    """Per-layer metrics of a traced run.

    ``segments`` are the untraced measurement, made as in ``--trace 0``,
    then the untraced and traced halves of the overhead measurement.
    """
    timed, plain, traced = segments
    stats = tracer.reduce()
    request_s = stats.get(spans.REQUEST, {}).get("total_s", 0.0) or 1.0
    values = {}
    for span in spans.span_names():
        entry = stats.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls"] = entry["calls"]
        values[f"{span}.self_s"] = entry["self_s"]
        values[f"{span}.share"] = entry["self_s"] / request_s

    interpreter = probe_ms(root, "pass")
    values["cli.interpreter_ms"] = interpreter
    values["cli.import_ms"] = probe_ms(root, "import prim_lattice.cli") - interpreter

    enumerate_name = "graph.enumerate_saturated_hereditary"
    emitted = tracer.emitted.get(enumerate_name, 0)
    closures = tracer.descendant_count("graph.saturated_hereditary_closure", enumerate_name)
    values[f"{enumerate_name}.closures_per_set"] = closures / emitted if emitted else 0.0

    ok = [r for r in timed.records if r["ok"]]
    values["tails.enumerate_maximal_tails.exp_size"] = (
        loglog_slope((r["V"] + r["E"], r["wall_s"]) for r in ok) if workload == "tails" else 0.0
    )
    # cascade graphs are left out: their L is 2 whatever their size
    values[f"{enumerate_name}.exp_L"] = (
        loglog_slope((r["L"], r["wall_s"]) for r in ok if not r["graph"].startswith("cascade"))
        if workload == "gauge"
        else 0.0
    )
    values["trace.overhead"] = traced.wall_s / plain.wall_s

    p50 = queries_p50_ms(timed) if workload == "queries" else {}
    values["queries.order_p50_ms"] = p50.get("order_p50_ms", 0.0)
    values["queries.hull_p50_ms"] = p50.get("hull_p50_ms", 0.0)
    values["run.error_rate"] = sum(s.failed for s in segments) / sum(len(s.records) for s in segments)
    units = dict(per_layer_names())
    return {name: (values[name], units[name]) for name, _ in per_layer_names()}


def write_requests(path: Path, segment: Segment) -> None:
    with path.open("w", encoding="utf-8") as out:
        for record in segment.records:
            out.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "prim_lattice").is_dir() or not REFERENCE.is_file():
        print("error: run from the root of a prim-lattice checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            scaled, elapsed, stream, batches, first = set_up(root, args.workload, args.seed, workdir, reference)
            setup_times.append((scaled, elapsed))
        segments = measure(stream, batches, first, args.seconds)
        if args.trace == 0:
            metrics = end_to_end(args.workload, segments[0], setup_times)
        else:
            tracer = spans.Tracer()
            batch = next(batches)
            stream.prepare(batch)
            segments += measure(stream, batches, batch, args.seconds / 2, tracer)
            tracer.write(out_dir / f"spans-{args.workload}.tsv.gz")
            metrics = per_layer(root, args.workload, segments, tracer)
        write_requests(out_dir / f"requests-{args.workload}-trace{args.trace}.jsonl", segments[0])
        problems = [p for s in segments for p in s.problems] + stream.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(len(s.records) for s in segments)
    failed = sum(s.failed for s in segments)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
