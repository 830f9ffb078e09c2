"""Every mutant of ``scripts/mutants.py`` still applies to the source.

The script copies the tree and runs the suite once per mutant, so a mutant
whose line has changed shows only as exit 2 at the end of a long run. This
test imports the script read-only and checks each mutant's name is unique,
its text sits on exactly one line of its file, and its replacement differs.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location(
        "lrskel_mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_names_are_unique(mutants):
    names = [name for name, *_ in mutants.MUTANTS]
    assert sorted(names) == sorted(set(names))


def test_every_mutant_applies_to_one_line(mutants):
    stale = []
    for name, path, old, new in mutants.MUTANTS:
        lines = (ROOT / mutants.PKG / path).read_text().split("\n")
        if len(mutants._hits(lines, old)) != 1 or new == old:
            stale.append(name)
    assert stale == []
