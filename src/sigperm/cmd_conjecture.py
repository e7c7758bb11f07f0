"""``sigperm conjecture``: compare the statistic-refined counts of two
patterns of the same length, and exit 1 where they differ.

Only ``conjecture`` loads this module; it walks the avoiders of both
patterns with :mod:`sigperm.oracle`.
"""

from __future__ import annotations

import argparse
import math
import time
from types import ModuleType

__all__ = ["run"]


def run(args: argparse.Namespace, cli: ModuleType) -> int:
    """Run ``conjecture``; ``cli`` is the dispatcher module, whose guards and
    ``_emit`` are read from it when called."""
    from . import oracle
    from .pattern import Pattern

    p1 = Pattern.parse(args.p1)
    p2 = Pattern.parse(args.p2)
    if len(p1) != len(p2):
        raise ValueError("the two patterns must have equal length")
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    walks = sum(1 if p.reverse_complement() == p else 2 for p in (p1, p2))
    cli._guard_cost(args, "--max-n", range(args.max_n + 1), walks)
    # the walk's blocks are the avoiders of size max_n // 2, at most every
    # signed permutation of that size; the walk's rows count them
    half = args.max_n // 2
    workers = cli._resolve_workers(args, 2**half * math.factorial(half))
    started = time.perf_counter()
    rows1 = oracle.avoider_rows(args.max_n, p1, workers=workers)
    rows2 = oracle.avoider_rows(args.max_n, p2, workers=workers)
    workers = cli._resolve_workers(args, max(sum(rows1[half]), sum(rows2[half])))
    rows = [
        {
            "n": n,
            "j": j,
            "count1": str(row1[j]),
            "count2": str(row2[j]),
            "equal": row1[j] == row2[j],
        }
        for n, (row1, row2) in enumerate(zip(rows1, rows2))
        for j in range(n + 1)
    ]
    manifest = {
        "patterns": [str(p1), str(p2)],
        "n_max": args.max_n,
        "methods": ["brute"],
        "workers": workers,
    }
    columns = ("n", "j", "count1", "count2", "equal")
    cli._emit(args, started, manifest, {"rows": rows}, columns)
    return 0 if all(row["equal"] for row in rows) else 1
