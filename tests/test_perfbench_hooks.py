"""Every name the benchmark's tracer wraps still exists in the program.

``perfbench/spans.py`` looks functions and circle-set methods up by
name when ``perfbench/run.py --trace 1`` installs its spans, so removing
or renaming one of them would only fail there.  This test fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

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
