"""Command line behavior: dispatch, exit codes, canonical output."""

from __future__ import annotations

import ast
import io
import json
import subprocess
import sys

import pytest

from prim_lattice.cli import main
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
        assert not loaded & {"dataclasses", "inspect", "prim_lattice.oracle"}
