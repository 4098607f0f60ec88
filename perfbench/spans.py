"""Span recording around the program's public functions.

The benchmark never edits the program: it swaps each listed function for
a wrapper in every ``prim_lattice`` module namespace that binds it (so
``lattice.enumerate_maximal_tails`` is wrapped as well as
``tails.enumerate_maximal_tails``), and patches the circle-set classes
in place.  A span is recorded only while a request is open; spans are
kept in flat arrays and written out when the benchmark ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

REQUEST = "request"

FUNCTIONS = {
    "tails": [
        "enumerate_maximal_tails",
        "is_maximal_tail",
        "classify_tail",
        "strongly_connected_components",
        "tail_of_cycle",
    ],
    "graph": [
        "validate",
        "reachable_ranges",
        "hereditary_closure",
        "saturated_hereditary_closure",
        "enumerate_saturated_hereditary",
        "entrance_free_cycles",
        "is_entrance_free",
    ],
    "lattice": [
        "ideal_pair",
        "prim_to_pair",
        "pair_leq",
        "pair_meet",
        "pair_join",
        "hull",
        "hull_to_pair",
        "closure_contains",
        "contained_in_prim",
    ],
    "jsonio": [
        "graph_from_json",
        "pair_from_json",
        "prim_from_json",
        "hull_from_json",
        "canonical_dumps",
    ],
    "cli": ["main"],
}

# construction is ``__post_init__``, where the canonical form is computed
CIRCLE_METHODS = ["__post_init__", "intersect", "union", "complement", "is_subset"]
CIRCLE_CLASSES = ["OpenCircleSet", "ClosedCircleSet"]

# functions whose result length is recorded, for useful-to-attempted ratios
COUNT_OUTPUT = {"graph.enumerate_saturated_hereditary"}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    for cls in CIRCLE_CLASSES:
        names += [
            f"circle.{cls}" if m == "__post_init__" else f"circle.{cls}.{m}"
            for m in CIRCLE_METHODS
        ]
    return names


class Tracer:
    """Flat in-memory span store; one open request at a time."""

    def __init__(self) -> None:
        self.names = [REQUEST]
        self.code = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.stack: list[int] = []
        self.current = -1
        self.emitted: dict[str, int] = {}
        self._wrappers: dict[str, object] = {}
        self._patched: list[tuple] = []

    def _open(self, code: int, t: float) -> int:
        index = len(self.code)
        self.code.append(code)
        self.start.append(t)
        self.end.append(t)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """The traced stand-in for ``fn``; one per name, reused on reinstall."""
        if name in self._wrappers:
            return self._wrappers[name]
        code = len(self.names)
        self.names.append(name)
        count_output = name in COUNT_OUTPUT
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current < 0:
                return fn(*args, **kwargs)
            index = tracer._open(code, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count_output:
                tracer.emitted[name] = tracer.emitted.get(name, 0) + len(result)
            return result

        self._wrappers[name] = traced
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap every listed function wherever a program module binds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "prim_lattice"]
        for mod_name, fns in FUNCTIONS.items():
            home = getattr(lib, mod_name)
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for cls_name in CIRCLE_CLASSES:
            cls = getattr(lib.circle, cls_name)
            for method in CIRCLE_METHODS:
                name = f"circle.{cls_name}" if method == "__post_init__" else f"circle.{cls_name}.{method}"
                self._patch(cls, method, self.wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def begin(self, request_id: int) -> None:
        self.current = request_id
        self._open(0, perf_counter())

    def finish(self) -> None:
        self._close(self.stack[-1])
        self.current = -1

    def dump(self) -> dict:
        """Spans and output counts as JSON, for a parent process to adopt."""
        return {"rows": list(self.rows()), "emitted": self.emitted}

    def adopt(self, dumped: dict, parent: int) -> None:
        """Append what a child process's ``dump`` holds under span ``parent``.

        Rows are ``(name, start, end, parent, request)`` with parent
        indices local to the child; ``perf_counter`` reads the system
        monotonic clock, so child times line up with ours.
        """
        for name, count in dumped["emitted"].items():
            self.emitted[name] = self.emitted.get(name, 0) + count
        codes = {name: i for i, name in enumerate(self.names)}
        base = len(self.code)
        for name, start, end, local_parent, request in dumped["rows"]:
            if name not in codes:
                codes[name] = len(self.names)
                self.names.append(name)
            self.code.append(codes[name])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if local_parent < 0 else base + local_parent)
            self.request.append(request)

    def rows(self):
        for i in range(len(self.code)):
            yield (self.names[self.code[i]], self.start[i], self.end[i], self.parent[i], self.request[i])

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\trequest\n")
            for row in self.rows():
                out.write("\t".join(map(str, row)) + "\n")

    def reduce(self) -> dict:
        """Per span name: exact call count and self time.

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so that is the children's sum.
        """
        count = len(self.code)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict[str, list] = {}
        for i in range(count):
            entry = stats.setdefault(self.names[self.code[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
            entry[2] += self.end[i] - self.start[i]
        return {name: {"calls": c, "self_s": s, "total_s": t} for name, (c, s, t) in stats.items()}

    def descendant_count(self, name: str, ancestor: str) -> int:
        """How many ``name`` spans run somewhere below an ``ancestor`` span."""
        codes = {n: i for i, n in enumerate(self.names)}
        if name not in codes or ancestor not in codes:
            return 0
        want, above = codes[name], codes[ancestor]
        under = [False] * len(self.code)
        total = 0
        for i in range(len(self.code)):
            p = self.parent[i]
            under[i] = p >= 0 and (under[p] or self.code[p] == above)
            if under[i] and self.code[i] == want:
                total += 1
        return total
