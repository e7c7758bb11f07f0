"""Source rules the package keeps, read off its syntax trees.

No ``assert`` statement guards an invariant, because ``python -O`` strips
them.  The CLI has one failure path: only ``cli.main`` catches exceptions or
calls ``sys.exit``, besides the ``if __name__ == "__main__"`` line, and
neither the command bodies (``cmd_*.py``), the table and csv text
(``render.py``) nor verify's checks (``checks.py``) do either.  The
counting routes past brute force that the others are checked against,
``gf``, ``labeldp`` and ``labeltable``, import no ``sigperm`` module but
``pattern``.
"""

import ast
from pathlib import Path

import pytest

import sigperm
from sigperm.cli import COMMANDS

PACKAGE = Path(sigperm.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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
    path = PACKAGE / "cli.py"
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


def _failure_paths(name):
    """Lines of ``name`` that catch an exception or call ``sys.exit``."""
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) or _is_sys_exit(node)
    ]


def test_checks_leave_failures_to_main():
    assert _failure_paths("checks.py") == []


# every command's body and the table and csv text run under cli.main
CLI_MODULES = [f"cmd_{command}.py" for command in COMMANDS] + ["render.py"]


@pytest.mark.parametrize("name", CLI_MODULES)
def test_command_modules_leave_failures_to_main(name):
    assert _failure_paths(name) == []


def _sigperm_imports(name):
    """The ``sigperm`` modules ``name`` imports, anywhere but in a module
    ``__getattr__``, which re-exports names on first use and runs none."""
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    lazy = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == "__getattr__"
        for node in ast.walk(top)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in lazy:
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            # from .pattern import Pattern, or from . import gf
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sigperm":
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "sigperm")
    return found


# the series counts, the forward label DP and the backward label table each
# state the rules on their own, so no two of them share code
@pytest.mark.parametrize("name", ["gf.py", "labeldp.py", "labeltable.py"])
def test_leaf_routes_import_only_the_pattern(name):
    assert _sigperm_imports(name) == {"pattern"}
