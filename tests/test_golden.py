"""A slice of the golden corpus, checked in process (``golden.py`` checks it all)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import golden

EXPECTED = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("group", ["fixtures", "random", "unknown-vertices"])
def test_command_output_matches_the_golden_digests(group):
    assert golden.digests(golden.groups()[group]()) == EXPECTED[group]


def test_the_corpus_names_every_group_and_command():
    assert sorted(EXPECTED) == sorted(golden.groups())
    for group in ("fixtures", "families", "random"):
        assert sorted(EXPECTED[group]) == sorted(golden.COMMANDS)


def test_the_corpus_imports_no_pytest():
    # CI runs golden.py before it installs pytest
    blocked = "import sys; sys.modules['pytest'] = None; import golden; " + (
        "print(len(list(golden.malformed_argvs(12))))"
    )
    paths = [str(golden.HERE.parent / "src"), str(golden.HERE)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run([sys.executable, "-c", blocked], env=env, capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, "2000\n", "")
