"""Exact enumeration of pattern-avoiding signed permutations.

The library counts elements of the hyperoctahedral group (and its type-D
subgroup) avoiding a classical pattern, three independent ways: exhaustive
search, a generating-tree label dynamic program, and coefficient extraction
from lattice-path generating functions.  All three agree; making that
checkable is the point of the package.
"""

__version__ = "0.1.0"

from .core import (
    Occurrence,
    Pattern,
    SignedPermutation,
    parse,
    signed_permutations,
)
from .gentree import (
    PermTreeNode,
    TreeLabel,
    active_sites,
    build_tree,
    children,
    level_counts,
    stats,
    successors,
    tree_root,
)
from .gf import (
    LatticePath,
    SeriesCache,
    TruncatedSeries,
    avoider_count_from_series,
    f_series,
    is_recorded,
    path_from_points,
    path_profile,
    signature_of,
    signatures,
    validate_signature,
)
from .oracle import (
    avoider_counts,
    catalan,
    classical_1234_formula,
    classical_avoiders,
    egge_formula,
    type_d_avoiders,
)

__all__ = [
    "__version__",
    "Occurrence",
    "Pattern",
    "SignedPermutation",
    "parse",
    "signed_permutations",
    "PermTreeNode",
    "TreeLabel",
    "active_sites",
    "build_tree",
    "children",
    "level_counts",
    "stats",
    "successors",
    "tree_root",
    "LatticePath",
    "SeriesCache",
    "TruncatedSeries",
    "avoider_count_from_series",
    "f_series",
    "is_recorded",
    "path_from_points",
    "path_profile",
    "signature_of",
    "signatures",
    "validate_signature",
    "avoider_counts",
    "catalan",
    "classical_1234_formula",
    "classical_avoiders",
    "egge_formula",
    "type_d_avoiders",
]
