"""The ``>>>`` examples in the library's docstrings and README's library
tour run as tests."""

import doctest
from pathlib import Path

import pytest

from sigperm import core, formulas, gentree, gf, labeldp, labeltable, oracle, pattern


@pytest.mark.parametrize(
    "module",
    [pattern, core, formulas, oracle, gentree, labeldp, labeltable, gf],
    ids=lambda m: m.__name__,
)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_tour():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
