"""Command line behavior: dispatch, exit codes, canonical output."""

from __future__ import annotations

import ast
import io
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from prim_lattice.cli import main
from prim_lattice.errors import InternalInvariantViolation, excerpt
from prim_lattice.oracle import OracleReport

G_LOOP = '{"vertices":["v"],"edges":[{"id":"a","src":"v","rng":"v"}]}'
G_FLOW = (
    '{"vertices":["u","v"],"edges":['
    '{"id":"a","src":"u","rng":"u"},'
    '{"id":"b","src":"v","rng":"v"},'
    '{"id":"c","src":"u","rng":"v"}]}'
)
FLOW_TAILS = (
    '[{"cycle":["b"],"kind":"cyclic","period":1,"vertices":["v"]},'
    '{"cycle":["a"],"kind":"cyclic","period":1,"vertices":["u","v"]}]'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogueCommands:
    def test_validate_echoes_canonical_graph(self, capsys):
        code, out, err = run(capsys, "validate", "-g", G_FLOW)
        assert code == 0 and err == ""
        assert out.strip() == (
            '{"edges":[{"id":"a","rng":"u","src":"u"},'
            '{"id":"b","rng":"v","src":"v"},'
            '{"id":"c","rng":"v","src":"u"}],"vertices":["u","v"]}'
        )

    def test_tails(self, capsys):
        code, out, _ = run(capsys, "tails", "-g", G_FLOW)
        assert code == 0
        assert out.strip() == FLOW_TAILS

    def test_sat_hered(self, capsys):
        code, out, _ = run(capsys, "sat-hered", "-g", G_FLOW)
        assert code == 0
        assert out.strip() == '[[],["u"],["u","v"]]'

    def test_prims(self, capsys):
        code, out, _ = run(capsys, "prims", "-g", G_LOOP)
        assert code == 0
        assert json.loads(out) == [
            {
                "tail": {"vertices": ["v"], "kind": "cyclic", "cycle": ["a"], "period": 1},
                "z": "z ranges over 𝕋",
            }
        ]

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "tails", "-g", G_FLOW)
        _, second, _ = run(capsys, "tails", "-g", G_FLOW)
        assert first == second


class TestLatticeCommands:
    def test_leq(self, capsys):
        code, out, _ = run(
            capsys,
            "leq",
            "-g",
            G_FLOW,
            "-p",
            '{"H":[],"U":[{"cycle":["a"],"set":[["0","1/2"]]}]}',
            "-q",
            '{"H":["u"],"U":[{"cycle":["b"],"set":"empty"}]}',
        )
        assert code == 0
        assert out.strip() == '{"leq":true}'

    def test_meet_and_join(self, capsys):
        pairs = (
            '[{"H":[],"U":[{"cycle":["a"],"set":[["0","3/5"]]}]},'
            '{"H":[],"U":[{"cycle":["a"],"set":[["1/2","1"]]}]}]'
        )
        code, out, _ = run(capsys, "meet", "-g", G_LOOP, "-P", pairs)
        assert code == 0
        assert out.strip() == '{"H":[],"U":[{"cycle":["a"],"set":[["1/2","3/5"]]}]}'
        code, out, _ = run(capsys, "join", "-g", G_LOOP, "-P", pairs)
        assert code == 0
        assert out.strip() == '{"H":[],"U":[{"cycle":["a"],"set":[["0","1"]]}]}'

    def test_hull_and_back(self, capsys):
        pair = '{"H":[],"U":[{"cycle":["a"],"set":[["0","1/2"]]}]}'
        code, out, _ = run(capsys, "hull", "-g", G_LOOP, "-p", pair)
        assert code == 0
        hull_json = out.strip()
        assert hull_json == (
            '[{"allowed":{"arcs":[["1/2","1"]],"points":[]},'
            '"tail":{"cycle":["a"],"kind":"cyclic","period":1,"vertices":["v"]}}]'
        )
        code, out, _ = run(capsys, "from-hull", "-g", G_LOOP, "-H", hull_json)
        assert code == 0
        assert out.strip() == pair

    def test_from_hull_rejects_a_shape_that_is_not_closed(self, capsys):
        shape = '[{"tail":{"vertices":["u","v"]},"allowed":{"points":["0"]}}]'
        code, out, err = run(capsys, "from-hull", "-g", G_FLOW, "-H", shape)
        assert code == 1 and out == ""
        assert err == "error: the strata are not a closed set: the closure changes the stratum of tail ['v']\n"

    def test_closure(self, capsys):
        prims = (
            '[{"tail":{"vertices":["u","v"]},"z":"1/4"},'
            '{"tail":{"vertices":["u","v"]},"z":"3/4"}]'
        )
        code, out, _ = run(
            capsys, "closure", "-g", G_FLOW, "-X", prims,
            "-t", '{"tail":{"vertices":["u","v"]},"z":"0"}',
        )
        assert code == 0
        assert out.strip() == '{"contained":false}'
        code, out, _ = run(
            capsys, "closure", "-g", G_FLOW, "-X", prims,
            "-t", '{"tail":{"vertices":["v"]},"z":"0"}',
        )
        assert code == 0
        assert out.strip() == '{"contained":true}'

    def test_contains(self, capsys):
        code, out, _ = run(
            capsys, "contains", "-g", G_FLOW,
            "-p", '{"H":[],"U":[{"cycle":["a"],"set":[["0","1/2"]]}]}',
            "-r", '{"tail":{"vertices":["u","v"]},"z":"1/4"}',
        )
        assert code == 0
        assert out.strip() == '{"contained":false}'


class TestGaugeLattice:
    def test_json_hasse(self, capsys):
        code, out, _ = run(capsys, "gauge-lattice", "-g", G_FLOW)
        assert code == 0
        assert out.strip() == '{"covers":[[0,1],[1,2]],"sets":[[],["u"],["u","v"]]}'

    def test_dot_chain(self, capsys):
        code, out, _ = run(capsys, "gauge-lattice", "-g", G_FLOW, "--dot")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "digraph gauge_lattice {"
        assert "  rankdir=BT;" in lines
        assert '  "{}";' in lines
        assert '  "{u}";' in lines
        assert '  "{u,v}";' in lines
        assert '  "{}" -> "{u}";' in lines
        assert '  "{u}" -> "{u,v}";' in lines
        assert '"{}" -> "{u,v}";' not in out
        assert lines[-1] == "}"


class TestOracleCommand:
    def test_passes_on_fixture(self, capsys):
        code, out, _ = run(capsys, "oracle", "-g", G_FLOW, "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert set(payload["checks"]) == {
            "tails",
            "saturated_hereditary",
            "lattice_laws",
            "closure_coherence",
        }
        assert all(entry["pass"] for entry in payload["checks"].values())

    def test_mismatch_exits_three(self, capsys, monkeypatch):
        broken = OracleReport()
        broken.record("synthetic disagreement")
        monkeypatch.setattr(
            "prim_lattice.oracle.check_lattice_laws", lambda graph, sample: broken
        )
        code, out, _ = run(capsys, "oracle", "-g", G_LOOP)
        assert code == 3
        assert json.loads(out)["pass"] is False


class TestInputConventions:
    def test_stdin_marker(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(G_FLOW))
        code, out, _ = run(capsys, "tails", "-g", "@-")
        assert code == 0
        assert out.strip() == FLOW_TAILS

    def test_file_path(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(G_FLOW, encoding="utf-8")
        code, out, _ = run(capsys, "tails", "-g", str(path))
        assert code == 0
        assert out.strip() == FLOW_TAILS

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "tails", "-g", str(tmp_path / "absent.json"))
        assert code == 2
        assert out == "" and "error" in err

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tails", "-g", '{"vertices":')
        assert code == 2
        assert "invalid JSON" in err

    def test_json_nested_too_deeply_is_usage_error(self, capsys):
        code, out, err = run(capsys, "hull", "-g", G_LOOP, "-p", "[" * 100_000)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1


class TestBoundedEcho:
    """An error line quotes only a short prefix of the input it echoes."""

    DEEP = "[" * 900 + "]" * 900
    FULL = '{"H":["v"]}'
    LONG = "x" * 100_000
    DIGITS = "1" * 5_000
    LONG_LOOP = '{"vertices":["%s"],"edges":[{"id":"a","src":"%s","rng":"%s"}]}' % (LONG, LONG, LONG)
    FULL_LONG = '{"H":["%s"]}' % LONG
    LONG_PRIM = '{"tail":{"vertices":["%s"],%%s},"z":0}' % LONG

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("hull", "-g", G_LOOP, "-p", "[" * 100_000), 2),
            (("tails", "-g", "x" * 100_000), 2),
            (("hull", "-g", G_LOOP, "-p", '{"H":%s,"U":[]}' % DEEP), 1),
            (("contains", "-g", G_LOOP, "-p", FULL, "-r", '{"tail":{"vertices":["v"]},"z":%s}' % DEEP), 1),
            (("contains", "-g", G_LOOP, "-p", FULL, "-r", '{"tail":{"vertices":["v"],"kind":%s},"z":0}' % DEEP), 1),
            (("hull", "-g", G_LOOP, "-p", '{"H":["%s"],"U":[]}' % LONG), 1),
            (("validate", "-g", '{"vertices":["v","%s"],"edges":[{"id":"a","src":"v","rng":"v"}]}' % LONG), 1),
            (("validate", "-g", '{"vertices":["v"],"edges":[{"id":"%s","src":"v","rng":"w"}]}' % LONG), 1),
            (("validate", "-g", '{"vertices":[%s],"edges":[]}' % DIGITS), 2),
            (("hull", "-g", G_LOOP, "-p", '{"H":[%s],"U":[]}' % DIGITS), 2),
            (("contains", "-g", LONG_LOOP, "-p", FULL_LONG, "-r", LONG_PRIM % '"kind":"aperiodic"'), 1),
            (("contains", "-g", LONG_LOOP, "-p", FULL_LONG, "-r", LONG_PRIM % '"cycle":["b"]'), 1),
            (("contains", "-g", LONG_LOOP, "-p", FULL_LONG, "-r", LONG_PRIM % '"period":2'), 1),
        ],
        ids=[
            "deep-argument", "long-path", "deep-H", "deep-angle", "deep-kind",
            "unknown-id", "source-vertex", "dangling-edge", "long-integer-graph", "long-integer-pair",
            "tail-kind", "tail-cycle", "tail-period",
        ],
    )
    def test_one_short_line(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == expected and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    BAD_BYTES = b'{"vertices":["v"],"edges":[{"id":"a","src":"v","rng":"v"}],"note":"\xff"}'

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / ("x" * 200 + ".json")
        path.write_bytes(self.BAD_BYTES)
        code, out, err = run(capsys, "validate", "-g", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {excerpt(repr(str(path)))}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_undecodable_stdin_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(self.BAD_BYTES), encoding="utf-8"))
        code, out, err = run(capsys, "validate", "-g", "@-")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read '@-': ") and err.count("\n") == 1


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        sourced = '{"vertices":["u"],"edges":[]}'
        code, out, err = run(capsys, "validate", "-g", sourced)
        assert code == 1
        assert out == "" and "error" in err

    def test_bad_pair_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "hull", "-g", G_FLOW, "-p", '{"H":["v"],"U":[]}'
        )
        assert code == 1
        assert "error" in err

    def test_wrong_document_shape_names_the_missing_fields(self, capsys):
        mapping = '{"vertices":["v"],"edges":{"a":["v","v"]}}'
        code, out, err = run(capsys, "validate", "-g", mapping)
        assert code == 1
        assert out == "" and "'id', 'src' and 'rng'" in err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate", "-g", G_LOOP)[0] == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(capsys, "tails")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "prim_lattice.cli", "sat-hered", "-g", G_FLOW],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == '[[],["u"],["u","v"]]\n'

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # the console script ``prim_lattice.cli:main`` is called with no arguments
        monkeypatch.setattr(sys, "argv", ["prim-lattice", "sat-hered", "-g", G_FLOW])
        assert main() == 0
        assert capsys.readouterr().out == '[[],["u"],["u","v"]]\n'


class TestBadAngles:
    """Angles that are not finite rationals are domain errors, not crashes."""

    LOOP_PRIM = '{"tail":{"vertices":["v"]},"z":"0"}'
    LOOP_PAIR = '{"H":[],"U":[{"cycle":["a"],"set":"empty"}]}'

    @pytest.mark.parametrize("angle", ['"1/0"', "1e400"])
    def test_bad_point(self, capsys, angle):
        prim = '{"tail":{"vertices":["v"]},"z":%s}' % angle
        code, out, err = run(capsys, "contains", "-g", G_LOOP, "-p", self.LOOP_PAIR, "-r", prim)
        assert code == 1 and out == ""
        assert err.startswith("error: angle ") and err.count("\n") == 1

    @pytest.mark.parametrize("angle", ['"1/0"', "1e400"])
    def test_bad_arc_endpoint(self, capsys, angle):
        pair = '{"H":[],"U":[{"cycle":["a"],"set":[["0",%s]]}]}' % angle
        code, out, err = run(capsys, "contains", "-g", G_LOOP, "-p", pair, "-r", self.LOOP_PRIM)
        assert code == 1 and out == ""
        assert err.startswith("error: open arc ") and err.count("\n") == 1


class TestStrictShapes:
    """A string is never read as a list, and an angle is never a float."""

    PRIM = '{"tail":{"vertices":["v"]},"z":"0"}'
    PAIR = '{"H":[],"U":[{"cycle":["a"],"set":"empty"}]}'

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "-g", '{"vertices":"v","edges":[{"id":"a","src":"v","rng":"v"}]}'),
            ("contains", "-g", G_LOOP, "-p", PAIR, "-r", '{"tail":{"vertices":"v"},"z":"0"}'),
            ("contains", "-g", G_LOOP, "-p", PAIR, "-r", '{"tail":{"vertices":["v"],"cycle":"a"},"z":"0"}'),
            ("hull", "-g", G_LOOP, "-p", '{"H":"","U":[{"cycle":["a"],"set":"empty"}]}'),
            ("hull", "-g", G_LOOP, "-p", '{"H":[],"U":[{"cycle":"a","set":"empty"}]}'),
            ("from-hull", "-g", G_LOOP, "-H", '[{"tail":{"vertices":["v"]},"allowed":{"points":"0"}}]'),
        ],
        ids=["graph-vertices", "tail-vertices", "tail-cycle", "pair-H", "pair-U-cycle", "closed-points"],
    )
    def test_string_for_a_list(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a JSON array" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("contains", "-g", G_LOOP, "-p", PAIR, "-r", '{"tail":{"vertices":["v"]},"z":0.1}'),
            ("contains", "-g", G_LOOP, "-p", PAIR, "-r", '{"tail":{"vertices":["v"]},"z":true}'),
            ("contains", "-g", G_LOOP, "-p", '{"H":[],"U":[{"cycle":["a"],"set":[["0",0.5]]}]}', "-r", PRIM),
            ("from-hull", "-g", G_LOOP, "-H", '[{"tail":{"vertices":["v"]},"allowed":{"points":[0.5]}}]'),
            ("from-hull", "-g", G_LOOP, "-H", '[{"tail":{"vertices":["v"]},"allowed":{"arcs":[[false,"1/2"]]}}]'),
        ],
        ids=["z-float", "z-bool", "open-arc-float", "closed-point-float", "closed-arc-bool"],
    )
    def test_float_or_bool_for_an_angle(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a fraction string or an integer" in err

    @pytest.mark.parametrize("period", ["true", "1.0"])
    def test_period_is_a_json_integer(self, capsys, period):
        prim = '{"tail":{"vertices":["v"],"period":%s},"z":"1/2"}' % period
        code, out, err = run(capsys, "contains", "-g", G_LOOP, "-p", self.PAIR, "-r", prim)
        assert code == 1 and out == ""
        assert err.startswith("error: a tail's 'period' ") and err.count("\n") == 1
        assert "must be a JSON integer" in err

    @pytest.mark.parametrize("vertex", ["a", "x" * 1000], ids=["short", "long"])
    def test_repeated_vertex_id(self, capsys, vertex):
        graph = json.dumps(
            {"vertices": [vertex, vertex], "edges": [{"id": "e", "src": vertex, "rng": vertex}]}
        )
        code, out, err = run(capsys, "validate", "-g", graph)
        assert code == 1 and out == ""
        assert err == f"error: duplicate vertex id {excerpt(repr(vertex))}\n"

    def test_integer_angles_still_accepted(self, capsys):
        code, out, _ = run(capsys, "contains", "-g", G_LOOP, "-p", '{"H":[],"U":[{"cycle":["a"],"set":[[0,1]]}]}', "-r", '{"tail":{"vertices":["v"]},"z":0}')
        assert code == 0 and out == '{"contained":true}\n'


class TestParserReuse:
    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        """Well-formed runs build no parser; help and errors share one."""
        import argparse

        from prim_lattice import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        try:
            for _ in range(2):
                assert run(capsys, "tails", "-g", G_LOOP)[0] == 0
                assert run(capsys, "sat-hered", "--graph", G_FLOW)[0] == 0
                assert run(capsys, "gauge-lattice", "--dot", "-g", G_FLOW)[0] == 0
            assert built == []
            for _ in range(2):
                assert run(capsys, "frobnicate")[0] == 2
                assert run(capsys, "tails")[0] == 2
                assert run(capsys, "--help")[0] == 0
                assert run(capsys, "tails", "-g", G_LOOP, "-h")[0] == 0
                # argparse reads the forms the command table does not
                assert run(capsys, "tails", "--graph=" + G_FLOW) == (0, FLOW_TAILS + "\n", "")
        finally:
            cli.build_parser.cache_clear()
        # the full parser and, under it, one parser per command
        assert built == ["prim-lattice", *(f"prim-lattice {c}" for c in COMMAND_FLAGS)]
        code, out, _ = run(capsys, "tails", "-g", G_FLOW)
        assert (code, out) == (0, FLOW_TAILS + "\n")


def _fresh_modules(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = f"import sys\n{code}\nprint(sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def _imports(*argv):
    """A ``python -m prim_lattice.cli`` run and the names it imported."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "prim_lattice.cli", *argv],
        capture_output=True,
        text=True,
    )
    # -X importtime writes one "import time: self | cumulative | name" line
    # per import statement (not per importlib.import_module call)
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()}
    return result, imported


LOOP_PAIR = '{"H":[],"U":[{"cycle":["a"],"set":"empty"}]}'
LOOP_PRIM = '{"tail":{"vertices":["v"]},"z":"0"}'

# a well-formed command line for every command but ``oracle``
WELL_FORMED = {
    "validate": ["-g", G_FLOW],
    "tails": ["-g", G_FLOW],
    "prims": ["-g", G_FLOW],
    "sat-hered": ["-g", G_FLOW],
    "leq": ["-g", G_LOOP, "-p", LOOP_PAIR, "--second", LOOP_PAIR],
    "meet": ["-g", G_LOOP, "-P", f"[{LOOP_PAIR}]"],
    "join": ["--pairs", f"[{LOOP_PAIR}]", "-g", G_LOOP],
    "hull": ["-g", G_LOOP, "-p", LOOP_PAIR],
    "from-hull": ["-g", G_LOOP, "-H", '[{"tail":{"vertices":["v"]},"allowed":"full"}]'],
    "closure": ["-t", LOOP_PRIM, "-g", G_LOOP, "-X", f"[{LOOP_PRIM}]"],
    "contains": ["-g", G_LOOP, "-p", LOOP_PAIR, "-r", LOOP_PRIM],
    "gauge-lattice": ["--dot", "--graph", G_FLOW],
}


class TestStartUp:
    def test_import_skips_dataclasses_and_the_oracle(self):
        probe = (
            "import sys; before = set(sys.modules); import prim_lattice.cli; "
            "print(sorted(set(sys.modules) - before))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        loaded = set(ast.literal_eval(result.stdout))
        assert "prim_lattice.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "prim_lattice.oracle", "traceback"}

    def test_package_import_loads_no_submodule(self):
        loaded = _fresh_modules("import prim_lattice")
        assert "prim_lattice" in loaded
        assert not [name for name in loaded if name.startswith("prim_lattice.")]

    @pytest.mark.parametrize("command", ["validate", "tails", "prims", "sat-hered", "gauge-lattice"])
    def test_graph_commands_skip_circle_and_lattice(self, command):
        result, imported = _imports(command, "-g", G_FLOW)
        assert result.returncode == 0 and result.stdout
        assert {"prim_lattice.jsonio", "prim_lattice.graph"} <= imported
        assert not imported & {"fractions", "prim_lattice.circle", "prim_lattice.lattice"}

    @pytest.mark.parametrize("command", list(WELL_FORMED))
    def test_well_formed_runs_skip_argparse(self, command):
        result, imported = _imports(command, *WELL_FORMED[command])
        assert result.returncode == 0 and result.stdout
        assert "prim_lattice.jsonio" in imported
        assert not imported & {"argparse", "gettext", "locale"}

    def test_argparse_reads_the_other_forms(self):
        result, imported = _imports("tails", "--graph=" + G_FLOW)
        assert (result.returncode, result.stdout) == (0, FLOW_TAILS + "\n")
        assert "argparse" in imported

    def test_every_exported_name_resolves(self):
        loaded = _fresh_modules(
            "import prim_lattice\n"
            "missing = [n for n in prim_lattice.__all__ if getattr(prim_lattice, n, None) is None]\n"
            "assert not missing, missing",
        )
        assert {"prim_lattice.lattice", "prim_lattice.oracle"} <= loaded


class TestListFlags:
    """``-P`` and ``-X`` take JSON arrays: an object is not an empty list."""

    PRIM = '{"tail":{"vertices":["v"]},"z":"0"}'

    @pytest.mark.parametrize(
        "argv",
        [
            ("closure", "-g", G_LOOP, "-X", "{}", "-t", PRIM),
            ("meet", "-g", G_LOOP, "-P", "{}"),
            ("join", "-g", G_LOOP, "-P", "{}"),
        ],
        ids=["closure-X", "meet-P", "join-P"],
    )
    def test_object_for_a_list(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a JSON array" in err


class TestStringIds:
    """Vertex and edge ids are JSON strings; nothing is coerced with ``str``."""

    PRIM = '{"tail":{"vertices":["v"]},"z":"0"}'
    PAIR = '{"H":[],"U":[{"cycle":["a"],"set":"empty"}]}'

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "-g", '{"vertices":["v"],"edges":[{"id":null,"src":"v","rng":"v"}]}'),
            ("validate", "-g", '{"vertices":["1"],"edges":[{"id":"a","src":1,"rng":"1"}]}'),
            ("validate", "-g", '{"vertices":["1"],"edges":[{"id":"a","src":"1","rng":true}]}'),
            ("validate", "-g", '{"vertices":[1],"edges":[{"id":"a","src":"1","rng":"1"}]}'),
            ("hull", "-g", G_LOOP, "-p", '{"H":[[1]],"U":[]}'),
            ("hull", "-g", G_LOOP, "-p", '{"H":[],"U":[{"cycle":[1],"set":"empty"}]}'),
            ("contains", "-g", G_LOOP, "-p", PAIR, "-r", '{"tail":{"vertices":[1]},"z":"0"}'),
            ("contains", "-g", G_LOOP, "-p", PAIR, "-r", '{"tail":{"vertices":["v"],"cycle":[{}]},"z":"0"}'),
            ("from-hull", "-g", G_LOOP, "-H", '[{"tail":{"vertices":[null]},"allowed":"full"}]'),
        ],
        ids=[
            "edge-id", "edge-src", "edge-rng", "graph-vertices", "pair-H",
            "pair-U-cycle", "tail-vertices", "tail-cycle", "hull-tail-vertices",
        ],
    )
    def test_non_string_id(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ids must be JSON strings" in err

    def test_edges_must_be_an_array(self, capsys):
        code, out, err = run(capsys, "validate", "-g", '{"vertices":["v"],"edges":null}')
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "'id', 'src' and 'rng'" in err


class TestInternalErrors:
    """A bug in the package exits 4 with its traceback, never 1."""

    @pytest.mark.parametrize(
        "function, argv, error",
        [
            ("pair_meet", ("meet", "-g", G_LOOP, "-P", "[]"), TypeError),
            ("hull", ("hull", "-g", G_LOOP, "-p", '{"H":[],"U":[{"cycle":["a"],"set":"empty"}]}'), KeyError),
            (
                "hull",
                ("hull", "-g", G_LOOP, "-p", '{"H":[],"U":[{"cycle":["a"],"set":"empty"}]}'),
                InternalInvariantViolation,
            ),
        ],
        ids=["TypeError", "KeyError", "InternalInvariantViolation"],
    )
    def test_bug_exits_four(self, capsys, monkeypatch, function, argv, error):
        # the CLI looks each operation up on its module when the command runs
        from prim_lattice import lattice

        def broken(*args):
            raise error("planted bug")

        monkeypatch.setattr(lattice, function, broken)
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("Traceback") and f"{error.__name__}: " in err


# each command's flags besides -h/--help and -g/--graph, and which are required
COMMAND_FLAGS = {
    "validate": ([], []),
    "tails": ([], []),
    "prims": ([], []),
    "sat-hered": ([], []),
    "leq": (["-p", "--first", "-q", "--second"], ["-p", "-q"]),
    "meet": (["-P", "--pairs"], ["-P"]),
    "join": (["-P", "--pairs"], ["-P"]),
    "hull": (["-p", "--pair"], ["-p"]),
    "from-hull": (["-H", "--hull"], ["-H"]),
    "closure": (["-X", "--prims", "-t", "--target"], ["-X", "-t"]),
    "contains": (["-p", "--pair", "-r", "--prim"], ["-p", "-r"]),
    "gauge-lattice": (["--dot"], []),
    "oracle": (["--seed", "--samples"], []),
}


class TestCommandFlags:
    def test_every_command_is_listed(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert set(re.search(r"\{([\w,-]+)\}", out).group(1).split(",")) == set(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_names_exactly_the_flags(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        named = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", out))
        assert named == {"-h", "--help", "-g", "--graph", *COMMAND_FLAGS[command][0]}

    @pytest.mark.parametrize(
        "command, omitted",
        [(c, f) for c, (_, required) in COMMAND_FLAGS.items() for f in ["-g", *required]],
    )
    def test_leaving_out_a_required_flag_is_usage_error(self, capsys, command, omitted):
        argv = [command]
        for flag in ["-g", *COMMAND_FLAGS[command][1]]:
            if flag != omitted:
                argv += [flag, G_LOOP]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"the following arguments are required: {omitted}" in err


class TestOneCommandParser:
    """On help and malformed lines ``main`` prints and exits byte for byte
    as the full argparse parser does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([command, "--help"] for command in COMMAND_FLAGS),
            ["frobnicate", "-g", G_LOOP],
            ["tails"],
            ["leq", "-g", G_LOOP, "-p", "{}"],
            ["oracle", "-g", G_LOOP, "--seed", "x"],
            ["tails", "-g", G_LOOP, "extra"],
            ["gauge-lattice", "-g", G_LOOP, "--dot", "--bogus"],
        ],
        ids=lambda argv: "_".join(a if len(a) < 20 else "G" for a in argv),
    )
    def test_same_as_the_full_parser(self, capsys, argv):
        from prim_lattice import cli

        code, out, err = run(capsys, *argv)
        with pytest.raises(SystemExit) as done:
            cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (code, out, err) == (done.value.code, full.out, full.err)
        if argv[0] == "frobnicate":
            assert "argument command: invalid choice: 'frobnicate'" in err


TEN_LOOPS = json.dumps(
    {
        "vertices": [f"v{i}" for i in range(10)],
        "edges": [{"id": f"e{i}", "src": f"v{i}", "rng": f"v{i}"} for i in range(10)],
    }
)


class TestClosedStdout:
    """A reader that has gone away is no error of ours: exit 141 quietly."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [("tails", "-g", G_FLOW), ("gauge-lattice", "-g", TEN_LOOPS)],
        ids=["one-line", "73-kB"],
    )
    def test_no_traceback(self, argv, buffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "prim_lattice.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, b"")


def _well_formed(command: str):
    """Every well-formed argument list for ``command``: each order of its
    flags, each spelling of each flag, each optional flag in or out."""
    from prim_lattice import cli

    arguments = cli._arguments(command)
    required = [a for a in arguments if a[1].get("required")]
    optional = [a for a in arguments if not a[1].get("required")]
    for k in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, k):
            for order in itertools.permutations(required + list(chosen)):
                for spelling in itertools.product(*(names for names, _ in order)):
                    argv = [command]
                    for i, (name, (_, settings)) in enumerate(zip(spelling, order)):
                        argv.append(name)
                        if "type" in settings:
                            argv.append(str(7 + i))
                        elif settings.get("action") != "store_true":
                            argv.append([G_LOOP, "@-", "pair.json"][i])
                    yield argv


def _malformed(command: str):
    """Argument lists for ``command`` that the table reader leaves to argparse."""
    base = next(_well_formed(command))
    flags = base[1::2]
    yield base + ["-h"]
    yield [command, "--help", *base[1:]]
    yield base + ["--bogus", "x"]
    yield base + ["extra"]
    yield base + ["--"]
    yield [command, "--", *base[1:]]
    yield base + ["--graph", G_LOOP]
    yield [command, "--graph=" + G_LOOP, *base[3:]]
    yield [command, "-g" + G_LOOP, *base[3:]]
    yield [command, "--gra", G_LOOP, *base[3:]]
    yield [command, "-g", "-x", *base[3:]]
    yield [command, "-g", "-", *base[3:]]
    yield [command, "-g", "-1", *base[3:]]
    yield [command, *base[3:], "-g"]
    yield [command, "-g", G_LOOP, "-p", LOOP_PAIR, *base[3:]]
    for i, flag in enumerate(flags):
        # each required flag left out, and each given twice
        yield base[: 1 + 2 * i] + base[3 + 2 * i :]
        yield base + [flag, "x"]


DECLINED = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate", "-g", G_LOOP],
    ["--", "tails", "-g", G_LOOP],
    ["-g", G_LOOP, "tails"],
    ["gauge-lattice", "-g", G_LOOP, "--dot", "x"],
    ["gauge-lattice", "-g", G_LOOP, "--dot", "--dot"],
    ["gauge-lattice", "-g", G_LOOP, "--do"],
    ["oracle", "-g", G_LOOP, "--seed", "x"],
    ["oracle", "-g", G_LOOP, "--seed", "1.5"],
    ["oracle", "-g", G_LOOP, "--seed", "-1"],
    ["oracle", "-g", G_LOOP, "--seed=3"],
    ["oracle", "-g", G_LOOP, "--samples"],
    ["oracle", "-g", G_LOOP, "--seed", "1", "--seed", "2"],
    *(argv for command in COMMAND_FLAGS for argv in _malformed(command)),
]

ACCEPTED = [
    *(argv for command in COMMAND_FLAGS for argv in _well_formed(command)),
    ["tails", "-g", ""],
    ["tails", "-g", " -x"],
    ["oracle", "-g", G_LOOP, "--seed", " 3 ", "--samples", "0"],
    ["oracle", "--samples", "1_0", "-g", "x"],
]


class TestCommandLineReader:
    """``main`` reads well-formed argument lists from the command table
    and leaves every other one to argparse; what it reads is what
    argparse would have read."""

    @staticmethod
    def argparse_reads(argv):
        from prim_lattice import cli

        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None

    def test_reads_what_argparse_reads(self, capsys):
        from prim_lattice import cli

        assert len(ACCEPTED) > 150
        for argv in ACCEPTED:
            read = cli._read_argv(argv)
            assert read is not None, argv
            assert read == self.argparse_reads(argv), argv

    def test_leaves_the_rest_to_argparse(self, capsys):
        from prim_lattice import cli

        assert len(DECLINED) > 200
        for argv in DECLINED:
            assert cli._read_argv(argv) is None, argv

    def test_argparse_runs_the_rest(self, capsys):
        """A declined list prints argparse's help or error, or, if argparse
        reads it, runs as the list spelt out in full would."""
        from prim_lattice import cli

        respelt = 0
        for argv in DECLINED:
            expected = self.argparse_reads(argv)
            full = capsys.readouterr()
            code, out, err = run(capsys, *argv)
            if expected is None:
                assert (code, out, err) == (2 if full.err else 0, full.out, full.err), argv
                continue
            again = [expected.pop("command")]
            for dest, value in expected.items():
                if value is True:
                    again.append(f"--{dest}")
                elif value is not False:
                    again += [f"--{dest}", str(value)]
            if cli._read_argv(again) is not None:
                respelt += 1
                assert (code, out, err) == run(capsys, *again), argv
        assert respelt > 20
