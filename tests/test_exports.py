"""Every exported name resolves, and the package re-exports the module
objects themselves, so a removal cannot leave a stale export behind."""

import importlib

import pytest

import sigperm

MODULES = ("core", "gentree", "gf", "oracle", "cli")


@pytest.mark.parametrize("module", ("sigperm", *(f"sigperm.{m}" for m in MODULES)))
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
