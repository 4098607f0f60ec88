"""Command line front end.

Every data flag takes a file path, ``@-`` for standard input (one flag
at most), or inline JSON (anything starting with ``{``, ``[`` or ``"``).
Output is one canonical JSON document on stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 domain error (a GraphAlgebraError,
nothing else), 2 usage error, 3 oracle mismatch, 4 internal error (a
bug here, any other ValueError included; its traceback goes to stderr),
141 (128 + SIGPIPE) stdout closed before the output, nothing on stderr.

A run loads only what its command uses.  A well-formed command line is
read straight from the command table and never imports ``argparse``
(nor ``gettext`` and ``locale`` behind it); help and anything else go
to the argparse parser, which prints its own help, usage and errors.
``validate``, ``tails``, ``prims``, ``sat-hered`` and ``gauge-lattice``
never import the circle arithmetic, the lattice module or
``fractions``, and only ``oracle`` imports the oracle.  No run imports
``typing``.  Error lines quote at most 120 characters of the input
they echo.  A process enters through :func:`run`.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
from importlib import import_module

from . import jsonio
from .errors import GraphAlgebraError, excerpt
from .graph import enumerate_saturated_hereditary, saturated_hereditary_lattice

# ``typing.TYPE_CHECKING`` without importing ``typing`` at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


class UsageError(ValueError):
    """A bad command line: exit 2.  A ValueError, so argparse reports a bad flag value."""


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


def count(text: str) -> int:
    """An integer of at least 0, the type of ``--samples``."""
    value = int(text)
    if value < 0:
        raise UsageError(f"{text!r} is negative")
    return value


def _set_label(vertices) -> str:
    """A vertex set as ``{a,b}``, escaped for a quoted DOT id.  A member that
    is empty, unprintable or holds one of ``,{}"\\`` is written as its JSON
    string, so distinct sets get distinct labels."""
    members = (
        v if v.isprintable() and v and not set(v) & set(',{}"\\') else json.dumps(v)
        for v in sorted(vertices)
    )
    label = "{" + ",".join(members) + "}"
    return label.replace("\\", "\\\\").replace('"', '\\"')


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
        lambda g: jsonio.strata_to_json(_module("tails").enumerate_primitive_strata(g)),
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
        lambda g, seed, samples: _module("oracle").self_check(g, seed, samples),
        ("--seed", "random seed", {"type": int, "default": 0}),
        ("--samples", "sample size per check", {"type": count, "default": 6}),
    ),
}


# the flag every command takes first, in the shape of the table's data flags
_GRAPH = ("-g", "--graph", "graph JSON", "graph_from_json")


def _arguments(command: str) -> list:
    """``(option strings, argparse settings)`` for each flag of ``command``, ``-g`` first."""
    _, _, *flags = _COMMANDS[command]
    return [
        (names, {"help": flag_help, **({"required": True} if isinstance(reader, str) else reader)})
        for *names, flag_help, reader in [_GRAPH, *flags]
    ]


def _dest(names: list) -> str:
    # argparse stores each flag under its long name
    return names[-1].lstrip("-")


def _read_argv(argv: list) -> dict | None:
    """What argparse would read from a well-formed command line, or None.

    Well formed: a known command, then each of its flags at most once,
    spelt out in full as an argument of its own, its value (unless it is
    a switch) in the next argument and not starting with ``-``, and
    every required flag present.  Anything else, help and errors
    included, is left to :func:`build_parser`.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _arguments(argv[0])
    by_name = {name: (_dest(names), settings) for names, settings in arguments for name in names}
    values = {}
    rest = iter(argv[1:])
    for token in rest:
        dest, settings = by_name.get(token, (None, None))
        if dest is None or dest in values:
            return None
        if settings.get("action") == "store_true":
            values[dest] = True
            continue
        # a missing value reads as "-", which declines like any "-" value
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        try:
            values[dest] = settings.get("type", str)(value)
        except ValueError:
            return None
    for names, settings in arguments:
        if _dest(names) not in values:
            if settings.get("required"):
                return None
            switch = settings.get("action") == "store_true"
            values[_dest(names)] = settings.get("default", False if switch else None)
    return {"command": argv[0], **values}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for every command, built once per process.

    ``main`` reads well-formed command lines itself and hands the rest
    here, so argparse, and ``gettext`` and ``locale`` behind it, load
    only for help, usage errors and the spellings the reader declines.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="prim-lattice",
        description=(
            "Exact ideal-lattice calculator for the graph algebra of a "
            "finite source-free directed graph."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for names, settings in _arguments(name):
            sub.add_argument(*names, **settings)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as err:
            return 0 if err.code in (0, None) else 2
    _, payload_of, *flags = _COMMANDS[args["command"]]
    try:
        # stdin holds one document: a second "@-" would read an empty stream
        piped = ["/".join(n) for *n, _, _ in [_GRAPH, *flags] if args[_dest(n)] == "@-"]
        if len(piped) > 1:
            raise UsageError(f"only one flag can read '@-' (stdin), not {' and '.join(piped)}")
        graph = jsonio.graph_from_json(_load_json(args["graph"]))
        values = []
        for *names, _, reader in flags:
            value = args[_dest(names)]
            if isinstance(reader, str):
                value = getattr(jsonio, reader)(graph, _load_json(value))
            values.append(value)
        payload = payload_of(graph, *values)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GraphAlgebraError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception:
        # anything else is a bug here, not bad input: keep its traceback
        import traceback

        traceback.print_exc()
        return 4
    try:
        # a DOT diagram is the one payload that is text, not JSON
        print(payload if isinstance(payload, str) else jsonio.canonical_dumps(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device so the
        # interpreter's flush at exit finds nothing to complain about
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # the oracle's report is the one payload that carries a verdict
    return 3 if isinstance(payload, dict) and payload.get("pass") is False else 0


def run() -> None:
    """The entry point of the ``prim-lattice`` console script and of
    ``python -m prim_lattice.cli``: :func:`main`, then exit with its code.

    The answer is written by then, so the garbage collector is frozen
    first, and interpreter shutdown skips the collections that would walk
    every object of the run only to free them, about a tenth of a small
    request.  ``os._exit`` would save little more, and would skip atexit
    handlers, ``python -m cProfile``'s report and coverage's data file.
    In-process callers call :func:`main`, which never freezes.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
