"""Every exported name resolves, and the package re-exports the module
objects themselves, so a removal cannot leave a stale export behind.  The
package resolves its names lazily: importing it loads no submodule."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigperm

ROUTES = (
    "pattern", "core", "gentree", "labeldp", "labeltable", "gf", "paths", "formulas", "oracle",
)
MODULES = (*ROUTES, "cli", "checks")
# the command bodies and the table and csv text, each loaded by the CLI alone
COMMAND_MODULES = (
    *(f"cmd_{c}" for c in ("count", "verify", "conjecture", "gf", "tree")),
    "render",
)


@pytest.mark.parametrize(
    "module", ("sigperm", *(f"sigperm.{m}" for m in (*MODULES, *COMMAND_MODULES)))
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_are_the_module_objects():
    modules = [importlib.import_module(f"sigperm.{m}") for m in MODULES]
    for name in sigperm.__all__:
        if name == "__version__":
            continue
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(sigperm, name) is getattr(owners[0], name), name


def test_test_only_api_stays_out():
    # the kernel's reference lives in tests/test_core.py; witnesses are the
    # positions find_occurrence_positions returns
    core = importlib.import_module("sigperm.core")
    assert not hasattr(core, "Occurrence") and not hasattr(core, "contains_naive")
    assert not hasattr(core.SignedPermutation, "occurrence_of")
    # a series is its coefficient tuple and a path its point sequence
    gf = importlib.import_module("sigperm.gf")
    gone = ("TruncatedSeries", "LatticePath", "path_from_points")
    assert [name for name in gone if hasattr(gf, name) or hasattr(sigperm, name)] == []


def test_gf_reexports_the_paths_module_objects():
    # perfbench and the verify checks read the series names off gf
    gf = importlib.import_module("sigperm.gf")
    paths = importlib.import_module("sigperm.paths")
    for name in (*paths.__all__, "MAX_SIGNATURE_LENGTH"):
        assert getattr(gf, name) is getattr(paths, name), name
    assert not hasattr(gf, "no_such_name")


def test_package_exports_each_route_module_all():
    # the command-line modules keep their names out of the package
    routes = [importlib.import_module(f"sigperm.{m}") for m in ROUTES]
    assert sigperm.__all__ == ["__version__", *(n for m in routes for n in m.__all__)]
    for module in ("cli", "checks", *COMMAND_MODULES):
        names = importlib.import_module(f"sigperm.{module}").__all__
        assert not set(names) & set(sigperm.__all__), module


def test_import_loads_no_submodule():
    script = "import sys, sigperm; print(sorted(m for m in sys.modules if m.startswith('sigperm.')))"
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from sigperm import *", namespace)
    assert [name for name in sigperm.__all__ if name not in namespace] == []
    assert set(sigperm.__all__) <= set(dir(sigperm))


def test_submodules_resolve_and_unknown_names_do_not():
    for module in MODULES:
        assert getattr(sigperm, module) is importlib.import_module(f"sigperm.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sigperm, "no_such_name")
    assert not hasattr(sigperm, "no_such_name")
