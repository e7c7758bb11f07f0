"""The ``>>>`` examples in the library's docstrings run as tests."""

import doctest

import pytest

from sigperm import core, gentree, gf, oracle


@pytest.mark.parametrize(
    "module", [core, oracle, gentree, gf], ids=lambda m: m.__name__
)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
