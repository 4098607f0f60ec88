"""Command line front end.

Every data flag takes a file path, ``@-`` for standard input, or inline
JSON (anything starting with ``{``, ``[`` or ``"``).  Output is one
canonical JSON document on stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 domain error, 2 usage error, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import GraphAlgebraError
from .graph import enumerate_saturated_hereditary, validate
from .lattice import (
    closure_contains,
    contained_in_prim,
    enumerate_primitive_strata,
    hull,
    hull_to_pair,
    pair_join,
    pair_leq,
    pair_meet,
)
from .tails import enumerate_maximal_tails


class UsageError(Exception):
    pass


def _load_json(argument: str):
    if argument == "@-":
        text = sys.stdin.read()
    elif argument.startswith(("{", "[", '"')):
        text = argument
    else:
        try:
            with open(argument, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise UsageError(f"cannot read {argument!r}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"invalid JSON in {argument!r}: {err}") from err


def _graph(args):
    return validate(jsonio.graph_from_json(_load_json(args.graph)))


def _emit(payload) -> int:
    print(jsonio.canonical_dumps(payload))
    return 0


def _cmd_validate(args) -> int:
    return _emit(jsonio.graph_to_json(_graph(args)))


def _cmd_tails(args) -> int:
    graph = _graph(args)
    return _emit([jsonio.tail_to_json(t) for t in enumerate_maximal_tails(graph)])


def _cmd_prims(args) -> int:
    graph = _graph(args)
    return _emit(jsonio.strata_to_json(enumerate_primitive_strata(graph)))


def _cmd_sat_hered(args) -> int:
    graph = _graph(args)
    return _emit([sorted(h) for h in enumerate_saturated_hereditary(graph)])


def _cmd_leq(args) -> int:
    graph = _graph(args)
    first = jsonio.pair_from_json(graph, _load_json(args.first))
    second = jsonio.pair_from_json(graph, _load_json(args.second))
    return _emit({"leq": pair_leq(graph, first, second)})


def _cmd_meet(args) -> int:
    graph = _graph(args)
    pairs = [jsonio.pair_from_json(graph, item) for item in _load_json(args.pairs)]
    return _emit(jsonio.pair_to_json(pair_meet(graph, pairs)))


def _cmd_join(args) -> int:
    graph = _graph(args)
    pairs = [jsonio.pair_from_json(graph, item) for item in _load_json(args.pairs)]
    return _emit(jsonio.pair_to_json(pair_join(graph, pairs)))


def _cmd_hull(args) -> int:
    graph = _graph(args)
    pair = jsonio.pair_from_json(graph, _load_json(args.pair))
    return _emit(jsonio.hull_to_json(hull(graph, pair)))


def _cmd_from_hull(args) -> int:
    graph = _graph(args)
    shape = jsonio.hull_from_json(graph, _load_json(args.hull))
    return _emit(jsonio.pair_to_json(hull_to_pair(graph, shape)))


def _cmd_closure(args) -> int:
    graph = _graph(args)
    prims = [jsonio.prim_from_json(graph, item) for item in _load_json(args.prims)]
    target = jsonio.prim_from_json(graph, _load_json(args.target))
    return _emit({"contained": closure_contains(graph, prims, target)})


def _cmd_contains(args) -> int:
    graph = _graph(args)
    pair = jsonio.pair_from_json(graph, _load_json(args.pair))
    prim = jsonio.prim_from_json(graph, _load_json(args.prim))
    return _emit({"contained": contained_in_prim(graph, pair, prim)})


def _covers(sets):
    below = []
    for small in sets:
        for large in sets:
            if small < large and not any(
                small < mid < large for mid in sets
            ):
                below.append((small, large))
    return below


def _set_label(vertices) -> str:
    return "{" + ",".join(sorted(vertices)) + "}"


def _cmd_gauge_lattice(args) -> int:
    graph = _graph(args)
    sets = enumerate_saturated_hereditary(graph)
    covers = _covers(sets)
    if args.dot:
        lines = ["digraph gauge_lattice {", "  rankdir=BT;"]
        for h in sets:
            lines.append(f'  "{_set_label(h)}";')
        for small, large in covers:
            lines.append(f'  "{_set_label(small)}" -> "{_set_label(large)}";')
        lines.append("}")
        print("\n".join(lines))
        return 0
    index = {h: i for i, h in enumerate(sets)}
    return _emit(
        {
            "sets": [sorted(h) for h in sets],
            "covers": [[index[a], index[b]] for a, b in covers],
        }
    )


def _agreement(fast: list, brute: list) -> dict:
    """An oracle check that two sorted lists of vertex sets are equal."""
    mismatches = []
    if fast != brute:
        mismatches.append({"fast": [sorted(s) for s in fast], "brute": [sorted(s) for s in brute]})
    return {"pass": not mismatches, "checked": len(brute), "mismatches": mismatches}


def _cmd_oracle(args) -> int:
    # only this command needs the oracle, so other commands start without it
    import random

    from .oracle import (
        brute_maximal_tails,
        brute_saturated_hereditary,
        check_closure_coherence,
        check_lattice_laws,
        random_ideal_pair,
        random_primitive,
    )

    graph = _graph(args)
    rng = random.Random(args.seed)
    checks = {}

    checks["tails"] = _agreement(
        sorted(t.vertices for t in enumerate_maximal_tails(graph)),
        sorted(brute_maximal_tails(graph)),
    )
    checks["saturated_hereditary"] = _agreement(
        sorted(enumerate_saturated_hereditary(graph)),
        sorted(brute_saturated_hereditary(graph)),
    )

    sample = [random_ideal_pair(rng, graph) for _ in range(args.samples)]
    laws = check_lattice_laws(graph, sample)
    checks["lattice_laws"] = jsonio.report_to_json(laws)

    coherence_mismatches = []
    coherence_checked = 0
    for _ in range(args.samples):
        prims = [random_primitive(rng, graph) for _ in range(rng.randint(1, 3))]
        report = check_closure_coherence(graph, prims)
        coherence_checked += report.checked
        coherence_mismatches.extend(report.mismatches)
    checks["closure_coherence"] = {
        "pass": not coherence_mismatches,
        "checked": coherence_checked,
        "mismatches": coherence_mismatches,
    }

    all_pass = all(entry["pass"] for entry in checks.values())
    _emit({"pass": all_pass, "checks": checks})
    return 0 if all_pass else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prim-lattice",
        description=(
            "Exact ideal-lattice calculator for the graph algebra of a "
            "finite source-free directed graph."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("-g", "--graph", required=True, help="graph JSON")
        sub.set_defaults(handler=handler)
        return sub

    command("validate", _cmd_validate, "check a graph and echo it canonically")
    command("tails", _cmd_tails, "list the maximal tails")
    command("prims", _cmd_prims, "list the primitive-ideal strata")
    command("sat-hered", _cmd_sat_hered, "list the saturated hereditary sets")

    sub = command("leq", _cmd_leq, "compare two ideal pairs")
    sub.add_argument("-p", "--first", required=True, help="left ideal pair")
    sub.add_argument("-q", "--second", required=True, help="right ideal pair")

    sub = command("meet", _cmd_meet, "intersect a list of ideal pairs")
    sub.add_argument("-P", "--pairs", required=True, help="JSON list of ideal pairs")

    sub = command("join", _cmd_join, "join a list of ideal pairs")
    sub.add_argument("-P", "--pairs", required=True, help="JSON list of ideal pairs")

    sub = command("hull", _cmd_hull, "primitive ideals containing an ideal")
    sub.add_argument("-p", "--pair", required=True, help="ideal pair")

    sub = command("from-hull", _cmd_from_hull, "rebuild an ideal pair from its hull")
    sub.add_argument("-H", "--hull", required=True, help="hull JSON")

    sub = command("closure", _cmd_closure, "closure membership for primitives")
    sub.add_argument("-X", "--prims", required=True, help="JSON list of primitives")
    sub.add_argument("-t", "--target", required=True, help="target primitive")

    sub = command("contains", _cmd_contains, "ideal containment in a primitive")
    sub.add_argument("-p", "--pair", required=True, help="ideal pair")
    sub.add_argument("-r", "--prim", required=True, help="primitive ideal")

    sub = command("gauge-lattice", _cmd_gauge_lattice, "gauge-invariant sublattice")
    sub.add_argument("--dot", action="store_true", help="emit a DOT Hasse diagram")

    sub = command("oracle", _cmd_oracle, "run the self-check oracles")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--samples", type=int, default=6, help="sample size per check")

    return parser


# built once per process, since in-process callers run many commands
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GraphAlgebraError, ValueError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
