"""The committed mutants in ``mutants.py`` still fit the code and the tests.

Running them takes minutes (``python tests/mutants.py``); these checks read
files only."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, SRC


def _tests_in(path: Path) -> set[str]:
    """``name`` and ``Class::name`` for each test function of a test file."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def test_mutant_ids_are_distinct():
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS) >= 10


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_old_text_occurs_once_and_each_named_test_exists(mutant):
    assert mutant.old != mutant.new
    assert (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.killed_by
    for node_id in mutant.killed_by:
        file, _, name = node_id.partition("::")
        name, bracket, param = name.partition("[")
        path = ROOT / file
        assert path.name.startswith("test_") and name in _tests_in(path), node_id
        if bracket:
            assert f'"{param.removesuffix("]")}"' in path.read_text(encoding="utf-8"), node_id
