"""Command line front end.

Every data flag takes a file path, ``@-`` for standard input, or inline
JSON (anything starting with ``{``, ``[`` or ``"``).  Output is one
canonical JSON document on stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 domain error, 2 usage error, 3 oracle mismatch,
4 internal error (a bug in this package; its traceback goes to stderr).

A run loads only what its command uses.  Its parser holds that one
command; top-level help and an unknown command get the full parser.
``validate``, ``tails``, ``sat-hered`` and ``gauge-lattice`` never import
the circle arithmetic, the lattice module or ``fractions``, and only
``oracle`` imports the oracle.  Error lines quote at most 120 characters
of the input they echo.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from . import jsonio
from .errors import GraphAlgebraError, excerpt
from .graph import enumerate_saturated_hereditary, saturated_hereditary_lattice, validate


class UsageError(Exception):
    pass


def _load_json(argument: str):
    if argument.startswith(("{", "[", '"')):
        text = argument
    else:
        try:
            if argument == "@-":
                text = sys.stdin.read()
            else:
                with open(argument, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise UsageError(
                f"cannot read {excerpt(repr(argument))}: {excerpt(str(err))}"
            ) from err
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        # the parser recurses once per nesting level, so deep input is a usage
        # error; an integer too long to convert is a ValueError, not a JSONDecodeError
        raise UsageError(f"invalid JSON in {excerpt(repr(argument))}: {err}") from err


def _set_label(vertices) -> str:
    return "{" + ",".join(sorted(vertices)) + "}"


def _gauge_lattice(graph, dot: bool):
    sets, covers = saturated_hereditary_lattice(graph)
    if dot:
        labels = [_set_label(h) for h in sets]
        lines = ["digraph gauge_lattice {", "  rankdir=BT;"]
        lines += [f'  "{label}";' for label in labels]
        lines += [f'  "{labels[a]}" -> "{labels[b]}";' for a, b in covers]
        lines.append("}")
        return "\n".join(lines)
    return {"sets": [sorted(h) for h in sets], "covers": covers}


def _agreement(fast: list, brute: list) -> dict:
    """An oracle check that two sorted lists of vertex sets are equal."""
    mismatches = []
    if fast != brute:
        mismatches.append({"fast": [sorted(s) for s in fast], "brute": [sorted(s) for s in brute]})
    return {"pass": not mismatches, "checked": len(brute), "mismatches": mismatches}


def _oracle(graph, seed: int, samples: int) -> dict:
    # only this command needs the oracle, so other commands start without it
    import random

    from .oracle import (
        OracleReport,
        brute_maximal_tails,
        brute_saturated_hereditary,
        check_closure_coherence,
        check_lattice_laws,
        random_ideal_pair,
        random_primitive,
    )
    from .tails import enumerate_maximal_tails

    rng = random.Random(seed)
    checks = {}

    checks["tails"] = _agreement(
        sorted(t.vertices for t in enumerate_maximal_tails(graph)),
        sorted(brute_maximal_tails(graph)),
    )
    checks["saturated_hereditary"] = _agreement(
        sorted(enumerate_saturated_hereditary(graph)),
        sorted(brute_saturated_hereditary(graph)),
    )

    sample = [random_ideal_pair(rng, graph) for _ in range(samples)]
    checks["lattice_laws"] = jsonio.report_to_json(check_lattice_laws(graph, sample))

    coherence = OracleReport()
    for _ in range(samples):
        prims = [random_primitive(rng, graph) for _ in range(rng.randint(1, 3))]
        report = check_closure_coherence(graph, prims)
        coherence.checked += report.checked
        coherence.mismatches.extend(report.mismatches)
    checks["closure_coherence"] = jsonio.report_to_json(coherence)

    return {"pass": all(entry["pass"] for entry in checks.values()), "checks": checks}


def _module(name: str):
    """This package's module ``name``, imported when a command first uses it."""
    return import_module(f".{name}", __package__)


# name -> (help, payload function, flags after ``-g`` in declaration order).
# The function takes the graph and the decoded flags.  A data flag names its
# jsonio reader; an option flag gives its argparse settings.  Readers are
# looked up in jsonio, and the functions look each operation up on its
# module, at call time, so a command imports only the modules it uses and a
# wrapper patched into a module sees the calls.
_COMMANDS = {
    "validate": ("check a graph and echo it canonically", lambda g: jsonio.graph_to_json(g)),
    "tails": (
        "list the maximal tails",
        lambda g: [jsonio.tail_to_json(t) for t in _module("tails").enumerate_maximal_tails(g)],
    ),
    "prims": (
        "list the primitive-ideal strata",
        lambda g: jsonio.strata_to_json(_module("lattice").enumerate_primitive_strata(g)),
    ),
    "sat-hered": (
        "list the saturated hereditary sets",
        lambda g: [sorted(h) for h in enumerate_saturated_hereditary(g)],
    ),
    "leq": (
        "compare two ideal pairs",
        lambda g, first, second: {"leq": _module("lattice").pair_leq(g, first, second)},
        ("-p", "--first", "left ideal pair", "pair_from_json"),
        ("-q", "--second", "right ideal pair", "pair_from_json"),
    ),
    "meet": (
        "intersect a list of ideal pairs",
        lambda g, pairs: jsonio.pair_to_json(_module("lattice").pair_meet(g, pairs)),
        ("-P", "--pairs", "JSON list of ideal pairs", "pairs_from_json"),
    ),
    "join": (
        "join a list of ideal pairs",
        lambda g, pairs: jsonio.pair_to_json(_module("lattice").pair_join(g, pairs)),
        ("-P", "--pairs", "JSON list of ideal pairs", "pairs_from_json"),
    ),
    "hull": (
        "primitive ideals containing an ideal",
        lambda g, pair: jsonio.hull_to_json(_module("lattice").hull(g, pair)),
        ("-p", "--pair", "ideal pair", "pair_from_json"),
    ),
    "from-hull": (
        "rebuild an ideal pair from its hull",
        lambda g, shape: jsonio.pair_to_json(_module("lattice").hull_to_pair(g, shape)),
        ("-H", "--hull", "hull JSON", "hull_from_json"),
    ),
    "closure": (
        "closure membership for primitives",
        lambda g, prims, target: {
            "contained": _module("lattice").closure_contains(g, prims, target)
        },
        ("-X", "--prims", "JSON list of primitives", "prims_from_json"),
        ("-t", "--target", "target primitive", "prim_from_json"),
    ),
    "contains": (
        "ideal containment in a primitive",
        lambda g, pair, prim: {"contained": _module("lattice").contained_in_prim(g, pair, prim)},
        ("-p", "--pair", "ideal pair", "pair_from_json"),
        ("-r", "--prim", "primitive ideal", "prim_from_json"),
    ),
    "gauge-lattice": (
        "gauge-invariant sublattice",
        _gauge_lattice,
        ("--dot", "emit a DOT Hasse diagram", {"action": "store_true"}),
    ),
    "oracle": (
        "run the self-check oracles",
        _oracle,
        ("--seed", "random seed", {"type": int, "default": 0}),
        ("--samples", "sample size per check", {"type": int, "default": 6}),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for ``command`` alone, or for every command if it is None.

    Given the same arguments, a one-command parser prints the same help,
    usage and errors as the full one; ``main`` uses it only when the
    arguments start with its command.
    """
    parser = argparse.ArgumentParser(
        prog="prim-lattice",
        description=(
            "Exact ideal-lattice calculator for the graph algebra of a "
            "finite source-free directed graph."
        ),
    )
    # the usage names every command either way; on the full parser a metavar
    # would also rename the command in its "invalid choice" error
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, _, *flags = _COMMANDS[name]
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("-g", "--graph", required=True, help="graph JSON")
        for *names, flag_help, reader in flags:
            options = {"required": True} if isinstance(reader, str) else reader
            sub.add_argument(*names, help=flag_help, **options)
    return parser


# command (None for all of them) -> its parser, built at most once per
# process, since in-process callers run many commands
_PARSERS: dict = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help before a command, or an unknown one, needs the full parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command not in _PARSERS:
        _PARSERS[command] = build_parser(command)
    try:
        args = _PARSERS[command].parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    _, payload_of, *flags = _COMMANDS[args.command]
    try:
        graph = validate(jsonio.graph_from_json(_load_json(args.graph)))
        values = []
        for *names, _, reader in flags:
            # argparse stores each flag under its long name
            value = getattr(args, names[-1].lstrip("-"))
            if isinstance(reader, str):
                value = getattr(jsonio, reader)(graph, _load_json(value))
            values.append(value)
        payload = payload_of(graph, *values)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GraphAlgebraError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception:
        # anything else is a bug here, not bad input: keep its traceback
        import traceback

        traceback.print_exc()
        return 4
    # a DOT diagram is the one payload that is text, not JSON
    print(payload if isinstance(payload, str) else jsonio.canonical_dumps(payload))
    # the oracle's report is the one payload that carries a verdict
    return 3 if isinstance(payload, dict) and payload.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
