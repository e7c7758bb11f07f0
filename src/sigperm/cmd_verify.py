"""``sigperm verify``: cross-check every counting route and identity, and
exit 1 on any gap.

Only ``verify`` loads this module; the checks themselves live in
:mod:`sigperm.checks`, which it loads when it runs.
"""

from __future__ import annotations

import argparse
import time
from types import ModuleType

__all__ = ["run"]


def run(args: argparse.Namespace, cli: ModuleType) -> int:
    """Run ``verify``; ``cli`` is the dispatcher module, whose guards and
    ``_emit`` are read from it when called."""
    from . import checks

    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    # one whole scan per pattern
    cli._guard_cost(args, "--max-n", range(args.max_n + 1), 2)
    # the scans' blocks: 2n for each pattern and size 2 <= n <= max_n
    workers = cli._resolve_workers(args, 2 * (args.max_n**2 + args.max_n - 2))
    started = time.perf_counter()
    rows = checks.run_checks(args.max_n, workers)
    manifest = {
        "patterns": ["1234", "2143"],
        "n_max": args.max_n,
        "methods": ["brute", "tree", "gf", "formula"],
        "degree_bound": checks.SERIES_GRID_DEGREE,
        "workers": workers,
    }
    cli._emit(args, started, manifest, {"rows": rows}, ("name", "status", "detail"))
    return 0 if all(row["status"] == "pass" for row in rows) else 1
