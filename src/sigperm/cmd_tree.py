"""``sigperm tree``: dump an explicit generating tree as JSON.

Only ``tree`` loads this module; it grows the tree with
:mod:`sigperm.gentree`.
"""

from __future__ import annotations

import argparse
import time
from types import ModuleType

__all__ = ["run"]


def run(args: argparse.Namespace, cli: ModuleType) -> int:
    """Run ``tree``; ``cli`` is the dispatcher module, whose ``_emit`` is
    read from it when called."""
    from . import gentree
    from .pattern import Pattern

    pattern = Pattern.parse(args.pattern)
    started = time.perf_counter()
    # each node's children grow when the writer reaches them, so the dump
    # holds one path of the tree, and the wall time stops before it grows
    tree = gentree.grow_tree(
        pattern,
        args.j,
        args.depth,
        lambda perm, label, kids: {"children": kids, "label": list(label), "perm": str(perm)},
    )
    manifest = {
        "patterns": [str(pattern)],
        "n_min": args.j,
        "n_max": args.j + args.depth,
        "j": args.j,
        "methods": ["tree"],
    }
    cli._emit(args, started, manifest, {"tree": tree})
    return 0
