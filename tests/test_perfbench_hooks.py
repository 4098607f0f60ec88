"""The benchmark's tracer still finds and sees the program's functions.

``perfbench/spans.py`` looks functions and circle-set methods up by
name when ``perfbench/run.py --trace 1`` installs its spans, so removing
or renaming one of them would only fail there.  It also patches module
namespaces, so a function the CLI reaches through a stored reference,
rather than a module lookup at call time, would go untraced.  These
tests fail first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from prim_lattice import circle, cli, graph, jsonio, lattice, tails

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module_name, function_name",
    [(mod, fn) for mod, fns in spans.FUNCTIONS.items() for fn in fns],
)
def test_traced_function_exists(module_name, function_name):
    module = importlib.import_module(f"prim_lattice.{module_name}")
    assert callable(getattr(module, function_name, None))


@pytest.mark.parametrize("class_name", spans.CIRCLE_CLASSES)
def test_traced_circle_methods_exist(class_name):
    cls = getattr(importlib.import_module("prim_lattice.circle"), class_name)
    for method in spans.CIRCLE_METHODS:
        # spans.py patches the method found in the class's own namespace
        assert callable(vars(cls).get(method)), f"{class_name}.{method}"


G_LOOP = '{"vertices":["v"],"edges":[{"id":"a","src":"v","rng":"v"}]}'
PAIR = '{"H":[],"U":[{"cycle":["a"],"set":[["0","1/2"]]}]}'
PRIM = '{"tail":{"vertices":["v"]},"z":"1/4"}'
HULL = '[{"allowed":{"arcs":[["1/2","1"]],"points":[]},"tail":{"vertices":["v"]}}]'


@pytest.fixture
def tracer():
    """A tracer installed as ``perfbench/run.py`` installs it, and removed after."""
    traced = spans.Tracer()
    traced.install(
        SimpleNamespace(circle=circle, cli=cli, graph=graph, jsonio=jsonio, lattice=lattice, tails=tails)
    )
    try:
        yield traced
    finally:
        traced.uninstall()


@pytest.mark.parametrize(
    "argv, reads, operation",
    [
        (["hull", "-g", G_LOOP, "-p", PAIR], {"jsonio.pair_from_json": 1}, "lattice.hull"),
        (["meet", "-g", G_LOOP, "-P", f"[{PAIR},{PAIR}]"], {"jsonio.pair_from_json": 2}, "lattice.pair_meet"),
        (
            ["closure", "-g", G_LOOP, "-X", f"[{PRIM}]", "-t", PRIM],
            {"jsonio.prim_from_json": 2},
            "lattice.closure_contains",
        ),
        (["from-hull", "-g", G_LOOP, "-H", HULL], {"jsonio.hull_from_json": 1}, "lattice.hull_to_pair"),
        (["sat-hered", "-g", G_LOOP], {}, "graph.enumerate_saturated_hereditary"),
        (["gauge-lattice", "-g", G_LOOP], {}, "graph.hereditary_closure"),
        (["tails", "-g", G_LOOP], {}, "tails.is_maximal_tail"),
        (["prims", "-g", G_LOOP], {}, "tails.is_maximal_tail"),
    ],
    ids=["hull", "meet", "closure", "from-hull", "sat-hered", "gauge-lattice", "tails", "prims"],
)
def test_tracer_sees_each_layer_of_a_command(tracer, capsys, argv, reads, operation):
    tracer.begin(0)
    try:
        assert cli.main(argv) == 0, capsys.readouterr().err
    finally:
        tracer.finish()
    calls = {name: stats["calls"] for name, stats in tracer.reduce().items()}
    # every decoded document is one reader call, list items included
    assert {name: calls.get(name, 0) for name in reads} == reads
    for name in ["jsonio.graph_from_json", "graph.validate", operation]:
        assert calls.get(name, 0) > 0, f"{name} untraced; traced: {sorted(calls)}"
    if argv[0] in ("tails", "prims"):
        # the tail builder itself walks by the public name, not only the check inside it
        walks = calls.get("graph.reachable_ranges", 0)
        assert walks > tracer.descendant_count("graph.reachable_ranges", "tails.is_maximal_tail")
