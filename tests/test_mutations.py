"""The named mutations of tests/mutations.json, each a (file, old text,
new text) edit that the suite must reject.  Applying one is a separate,
opt-in run in a copy of the tree; this module checks only that every
entry still names one place, so that a refactor updates the list."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = json.loads((ROOT / "tests" / "mutations.json").read_text())


def test_mutation_names_are_unique():
    names = [m["name"] for m in MUTATIONS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m["name"] for m in MUTATIONS])
def test_each_mutation_names_one_place_in_its_file(mutation):
    text = (ROOT / mutation["file"]).read_text()
    assert text.count(mutation["old"]) == 1
    assert mutation["new"] != mutation["old"] and mutation["targets"]
