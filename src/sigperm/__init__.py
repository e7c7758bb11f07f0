"""Exact enumeration of pattern-avoiding signed permutations.

The library counts elements of the hyperoctahedral group (and its type-D
subgroup) avoiding a classical pattern, three independent ways: exhaustive
search, a generating-tree label dynamic program, and coefficient extraction
from lattice-path generating functions.  All three agree; making that
checkable is the point of the package.

``import sigperm`` loads no submodule.  Each re-exported name, and each
submodule, is resolved on first use through a module ``__getattr__``
(PEP 562), so a command compiles only the modules it runs.  Three leaf
modules hold what the fast counting routes share with the others:
:mod:`sigperm.pattern` the pattern (the kernel in :mod:`sigperm.core`
re-exports it), :mod:`sigperm.formulas` the closed forms (the scan in
:mod:`sigperm.oracle` imports them) and :mod:`sigperm.labeldp` the forward
label DP (the explicit tree in :mod:`sigperm.gentree` re-exports it).
"""

__version__ = "0.1.0"

# each route module's __all__ is its public API; the package re-exports every
# one of them, and this table, which tests/test_exports.py pins to those
# lists, says which module defines each name
_EXPORTS = {
    "pattern": ("Pattern", "TREE_PATTERNS"),
    "core": ("SignedPermutation", "parse", "signed_permutations"),
    "gentree": (
        "TreeLabel",
        "PermTreeNode",
        "tree_root",
        "children",
        "stats",
        "active_sites",
        "successors",
        "grow_tree",
        "build_tree",
    ),
    "labeldp": ("level_counts",),
    "labeltable": ("tree_rows",),
    "gf": (
        "validate_signature",
        "signatures",
        "SeriesCache",
        "f_series",
        "avoider_count_from_series",
        "is_recorded",
        "signature_of",
        "path_profile",
    ),
    "formulas": ("catalan", "egge_formula", "classical_1234_formula"),
    "oracle": (
        "avoider_counts",
        "scan_rows",
        "avoider_rows",
        "type_d_avoiders",
        "classical_avoiders",
        "usable_cpus",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    if name in (*_EXPORTS, "checks", "cli"):
        # unlike importlib.import_module, __import__ reports to -X importtime;
        # it binds the submodule in this namespace
        __import__(f"{__name__}.{name}")
        return globals()[name]
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(__getattr__(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
