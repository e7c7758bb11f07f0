"""Exact enumeration of pattern-avoiding signed permutations.

The library counts elements of the hyperoctahedral group (and its type-D
subgroup) avoiding a classical pattern, three independent ways: exhaustive
search, a generating-tree label dynamic program, and coefficient extraction
from lattice-path generating functions.  All three agree; making that
checkable is the point of the package.
"""

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports all four
from . import core, gentree, gf, oracle
from .core import *
from .gentree import *
from .gf import *
from .oracle import *

__all__ = ["__version__", *core.__all__, *gentree.__all__, *gf.__all__, *oracle.__all__]
