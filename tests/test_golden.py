"""A slice of the golden corpus, checked in process (``golden.py`` checks it all)."""

from __future__ import annotations

import json

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
