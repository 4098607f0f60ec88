"""Run one traced ``prim-lattice`` command in a child process.

    python perfbench/tracechild.py SPANS_OUT REQUEST_ID COMMAND [ARGS...]

Used by the traced run of the ``cli`` workload in place of
``python -m prim_lattice.cli``: it imports the CLI (PYTHONPATH=src),
wraps the listed functions, runs ``main``, and writes its spans and
output counts as JSON for the parent to attach under its request span.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import spans

from prim_lattice import circle, cli, graph, jsonio, lattice, tails


def main() -> int:
    out, request_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.install(SimpleNamespace(circle=circle, cli=cli, graph=graph, jsonio=jsonio, lattice=lattice, tails=tails))
    # the parent holds the request span; ours attach under it
    tracer.current = request_id
    code = cli.main(argv)
    tracer.current = -1
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
