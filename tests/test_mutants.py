"""The mutant catalogue in ``tests/mutants.py`` still fits the code: each
replaced text occurs exactly once in its module, and each named test exists.
Killing the mutants is ``python tests/mutants.py``'s job, outside tier-1."""

import ast
import functools
from pathlib import Path

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


@functools.cache
def _test_names(path: Path) -> set[str]:
    """``test_f`` and ``Class::test_f`` for every test function in ``path``."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return names


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_fits_the_code(mutant):
    source = (PACKAGE / mutant.module).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    assert mutant.tests
    for test in mutant.tests:
        path, _sep, name = test.partition("::")
        assert name.split("[")[0] in _test_names(ROOT / path), test
