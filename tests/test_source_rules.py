"""Source rules the package keeps, read off its syntax trees.

No ``assert`` statement guards an invariant, because ``python -O`` strips
them.  The CLI has one failure path: only ``cli.main`` catches exceptions or
calls ``sys.exit``, besides the ``if __name__ == "__main__"`` line.
"""

import ast
from pathlib import Path

import pytest

import sigperm

SOURCES = sorted(Path(sigperm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _is_sys_exit(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exit"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sys"
    )


def _is_main_guard(node):
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def test_cli_fails_only_through_main():
    path = Path(sigperm.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = [
        node
        for node in tree.body
        if (isinstance(node, ast.FunctionDef) and node.name == "main")
        or _is_main_guard(node)
    ]
    assert len(allowed) == 2
    inside = {id(n) for top in allowed for n in ast.walk(top)}
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ExceptHandler) or _is_sys_exit(node))
        and id(node) not in inside
    ]
    assert offenders == []
