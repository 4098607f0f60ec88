"""Rejected input: one exception family, one short line, exit 1 or 2.

Every domain error is a :class:`GraphAlgebraError`, which is a
``ValueError``, and the command line maps only that family to exit 1.
Input that makes the standard library raise (``Fraction`` literals,
unpacking, Python's limit on integer digits) is caught where it is
parsed, so no message of Python's own reaches the user.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import prim_lattice
from prim_lattice import lattice
from prim_lattice.circle import ClosedCircleSet, OpenCircleSet, as_angle, finite_closed_set
from prim_lattice.cli import main
from prim_lattice.errors import GraphAlgebraError, InternalInvariantViolation
from prim_lattice.graph import entrance_free_cycles, enumerate_saturated_hereditary
from prim_lattice.jsonio import graph_from_json
from prim_lattice.oracle import random_graph
from prim_lattice.tails import classify_tail
from fixtures import g_flow
from malformed import DOCUMENTS, GRAPH, HULL, PAIR, PRIM, paths, malformed_argvs

SRC = Path(prim_lattice.__file__).resolve().parent
LOOP = {"vertices": ["v"], "edges": [{"id": "a", "src": "v", "rng": "v"}]}
LEAKS = ("unpack", "Invalid literal", "Exceeds the limit")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a if isinstance(a, str) else json.dumps(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_one_short_line(err: str) -> None:
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) <= 300
    assert not any(leak in err for leak in LEAKS), err


def _pair(arcs, cycle=("a",)) -> dict:
    return {"H": [], "U": [{"cycle": list(cycle), "set": arcs}]}


def _prim(z, **tail) -> dict:
    return {"tail": {"vertices": ["v"], **tail}, "z": z}


class TestOneFamily:
    def test_domain_errors_are_value_errors(self):
        # library callers that catch ValueError see no change
        assert issubclass(GraphAlgebraError, ValueError)
        assert not issubclass(InternalInvariantViolation, ValueError)

    def test_no_bare_value_error_in_the_package(self):
        raised = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == "ValueError":
                        raised.append(f"{path.name}:{node.lineno}")
        assert raised == []


class TestLongCycles:
    """A user's cycle is checked as a cycle of the graph before it is canonicalised."""

    @pytest.mark.parametrize(
        "ids", [["a"] * 20_000, [f"e{i}" for i in range(20_000)]], ids=["repeated", "unknown"]
    )
    @pytest.mark.parametrize("command", ["hull", "closure"])
    def test_rejected_fast_on_one_line(self, command, ids):
        if command == "hull":
            argv = ("hull", "-g", LOOP, "-p", _pair("empty", ids))
        else:
            argv = ("closure", "-g", LOOP, "-X", [_prim("0", cycle=ids)], "-t", _prim("0"))
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert_one_short_line(err)

    def test_a_rotation_is_still_the_same_key(self):
        graph = {
            "vertices": ["x", "y"],
            "edges": [{"id": "p", "src": "x", "rng": "y"}, {"id": "q", "src": "y", "rng": "x"}],
        }
        answers = {run("hull", "-g", graph, "-p", _pair("empty", c)) for c in (["p", "q"], ["q", "p"])}
        assert len(answers) == 1 and next(iter(answers))[0] == 0

    def test_a_key_that_is_no_entrance_free_cycle_is_named_briefly(self):
        code, out, err = run("hull", "-g", LOOP, "-p", {"H": [], "U": []})
        assert code == 1 and out == ""
        assert err == (
            "error: assignment keys must be exactly the entrance-free cycles of the complement: "
            "expected [('a',)], got []\n"
        )


OUTSIDE_THE_GRAMMAR = [
    "1e3000000", "1e400", "1e-1000000", "0.5", " 1/2", "+1/2", "1/-2", "١/٢", "", "x",
    "1" * 4001, "1/" + "7" * 4001,
]


def _angle_id(angle: str) -> str:
    return repr(angle) if len(angle) < 20 else f"{angle[:3]}...{len(angle)}-chars"


class TestAngleGrammar:
    """An angle is an integer, or a string of ASCII digits ``-?n`` or ``-?p/q``."""

    @pytest.mark.parametrize("angle", OUTSIDE_THE_GRAMMAR, ids=_angle_id)
    def test_rejected_where_it_is_read(self, angle):
        for argv in [
            ("contains", "-g", LOOP, "-p", _pair("empty"), "-r", _prim(angle)),
            ("hull", "-g", LOOP, "-p", _pair([["0", angle]])),
        ]:
            start = time.perf_counter()
            code, out, err = run(*argv)
            assert time.perf_counter() - start < 0.5
            assert code == 1 and out == ""
            assert_one_short_line(err)
            assert "must be a fraction string or an integer" in err

    @pytest.mark.parametrize(
        "angle", [*OUTSIDE_THE_GRAMMAR, "1e30000000", "٣/4", "1/0", "0/0"], ids=_angle_id
    )
    def test_rejected_by_the_library_constructors(self, angle):
        tail = classify_tail(graph_from_json(LOOP), ["v"])
        for build in [
            as_angle,
            lambda z: lattice.PrimitiveIdeal(tail, z),
            lambda z: OpenCircleSet((("0", z),)),
            lambda z: ClosedCircleSet(((z, "1"),)),
            lambda z: finite_closed_set([z]),
        ]:
            start = time.perf_counter()
            with pytest.raises(GraphAlgebraError, match="not a finite rational$"):
                build(angle)
            assert time.perf_counter() - start < 1

    def test_the_library_takes_the_grammar(self):
        tail = classify_tail(graph_from_json(LOOP), ["v"])
        assert [as_angle(z) for z in ("-1/2", "3", "1/3")] == [F(1, 2), 0, F(1, 3)]
        assert lattice.PrimitiveIdeal(tail, "-1/2").angle == F(1, 2)
        assert OpenCircleSet((("-1/2", "1/3"),)).arcs == ((F(1, 2), F(4, 3)),)
        assert finite_closed_set(["-1/2", "3", "1/3"]).points == (0, F(1, 3), F(1, 2))

    @pytest.mark.parametrize("angle", ["1/0", "0/0"])
    def test_no_finite_rational(self, angle):
        code, out, err = run("hull", "-g", LOOP, "-p", _pair([["0", angle]]))
        assert code == 1 and out == ""
        assert err.startswith("error: open arc (0, ") and "not a finite rational" in err

    def test_four_thousand_digits_print(self):
        # the arc runs past 1 to (q + 1)/q, whose numerator has 4001 digits
        q = 10**4000 - 1
        code, out, err = run("meet", "-g", LOOP, "-P", [_pair([[f"-1/{q}", f"1/{q}"]])])
        assert code == 0 and err == ""
        assert json.loads(out)["U"][0]["set"] == [[f"{q - 1}/{q}", f"{q + 1}/{q}"]]

    def test_long_endpoints_are_cut_in_the_message(self):
        q = "9" * 4000
        code, out, err = run("hull", "-g", LOOP, "-p", _pair([["1/" + q, "1/" + q]]))
        assert code == 1 and out == ""
        assert_one_short_line(err)
        assert err.startswith("error: open arc (1/999") and err.endswith(" has no interior\n")

    def test_the_printed_forms_are_read_back(self):
        code, out, _ = run("hull", "-g", LOOP, "-p", _pair([["-3", "-5/2"], [7, "15/2"]]))
        assert code == 0
        assert json.loads(out)[0]["allowed"] == {"arcs": [["1/2", "1"]], "points": []}


class TestMalformedArcs:
    @pytest.mark.parametrize("arc", [["0", "1/2", "3/4"], ["0"], []], ids=["three", "one", "none"])
    def test_named_on_one_line(self, arc):
        open_case = ("hull", "-g", LOOP, "-p", _pair([arc]))
        closed_case = ("from-hull", "-g", LOOP, "-H", [{"tail": {"vertices": ["v"]}, "allowed": {"arcs": [arc]}}])
        for kind, argv in [("open", open_case), ("closed", closed_case)]:
            code, out, err = run(*argv)
            assert code == 1 and out == ""
            assert err == f"error: {kind} arc {arc!r} must have two endpoints\n"

    def test_long_arc_is_cut(self):
        code, _, err = run("hull", "-g", LOOP, "-p", _pair([["0"] * 10_000]))
        assert code == 1
        assert_one_short_line(err)
        assert err.startswith("error: open arc ['0', '0', ") and err.endswith(" must have two endpoints\n")


class TestGaugeIdealReadsTheIndex:
    def test_lattice_no_longer_scans(self):
        assert not hasattr(lattice, "entrance_free_cycles")

    def test_same_as_the_literal_scan(self):
        rng = random.Random(61)
        for _ in range(60):
            g = random_graph(rng, max_vertices=rng.randint(1, 7), max_edges=12)
            everything = frozenset(g.vertices)
            for h in enumerate_saturated_hereditary(g):
                scanned = entrance_free_cycles(g, everything - h)
                expected = lattice.ideal_pair(g, h, {c: OpenCircleSet.empty() for c in scanned})
                assert lattice.gauge_ideal(g, h) == expected

    def test_a_set_that_is_not_saturated_hereditary(self):
        with pytest.raises(GraphAlgebraError, match="is not saturated hereditary"):
            lattice.gauge_ideal(g_flow, {"v"})


class TestUnknownKeys:
    """Every object a decoder reads names its keys: any other is rejected, never ignored."""

    DOUBLE = {
        "vertices": ["v"],
        "edges": [{"id": "a", "src": "v", "rng": "v"}, {"id": "b", "src": "v", "rng": "v"}],
    }

    def test_a_misspelt_key_is_not_read_as_missing(self):
        # read as an empty H, {"h": ...} would give the zero ideal's hull
        assert run("hull", "-g", self.DOUBLE, "-p", {"h": ["v"]}) == (
            1, "", "error: an ideal pair has an unknown key 'h'\n"
        )
        assert run("hull", "-g", self.DOUBLE, "-p", {"H": ["v"]}) == (0, "[]\n", "")

    def test_in_every_object(self):
        suffix = " has an unknown key 'extra'\n"
        named = set()
        for command in sorted(DOCUMENTS):
            flags = {"-g": GRAPH, **DOCUMENTS[command]}
            for flag, doc in flags.items():
                for at in paths(doc):
                    changed = json.loads(json.dumps(doc))
                    holder = changed
                    for key in at:
                        holder = holder[key]
                    if not isinstance(holder, dict):
                        continue
                    holder["extra"] = 1
                    argv = [command]
                    for other, value in flags.items():
                        argv += [other, changed if other == flag else value]
                    code, out, err = run(*argv)
                    assert code == 1 and out == "", (argv, err)
                    assert_one_short_line(err)
                    assert err.endswith(suffix), err
                    named.add(err[len("error: ") : -len(suffix)])
        assert named == {
            "graph JSON", "an edge", "an ideal pair", "a 'U' entry", "a maximal tail",
            "a primitive ideal", "a hull stratum", "a closed circle set",
        }

    def test_a_long_key_is_cut(self):
        code, out, err = run("hull", "-g", LOOP, "-p", {"H": [], "U": [], "k" * 10_000: 1})
        assert code == 1 and out == ""
        assert_one_short_line(err)
        assert err.startswith("error: an ideal pair has an unknown key 'kkk")

    def test_keys_that_may_be_omitted_still_may(self):
        bare = {"tail": {"vertices": ["u", "v"]}, "z": "1/4"}
        everything = {"H": ["u", "v"]}
        assert run("contains", "-g", GRAPH, "-p", everything, "-r", bare) == (
            0, '{"contained":false}\n', ""
        )
        assert run("contains", "-g", GRAPH, "-p", PAIR, "-r", bare) == run(
            "contains", "-g", GRAPH, "-p", PAIR, "-r", PRIM
        )
        arcs_only = {"tail": {"vertices": ["u", "v"]}, "allowed": {"arcs": [["1/2", "1"]]}}
        assert run("from-hull", "-g", GRAPH, "-H", [HULL[0], arcs_only]) == run(
            "from-hull", "-g", GRAPH, "-H", HULL
        )


def test_malformed_input_sweep():
    """Seeded mutants of every command's valid documents: never a crash or a leaked message.

    A mutant can stay valid (dropping a tail's ``kind`` does), so exit 0
    is allowed with a silent stderr; everything else must exit 1 or 2
    with one short line of our own.
    """
    rejected = 0
    for argv in malformed_argvs(12):
        code, _, err = run(*argv)
        if code == 0:
            assert err == ""
            continue
        assert code in (1, 2), (argv, err)
        assert_one_short_line(err)
        rejected += 1
    # a sweep whose mutants were mostly valid would test little
    assert rejected >= 1800
