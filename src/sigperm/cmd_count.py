"""``sigperm count``: avoider counts for one size, by any counting method.

Only ``count`` loads this module, and it loads the one route module its
method runs: ``formula`` :mod:`sigperm.formulas`, ``gf`` the leaf
:mod:`sigperm.gf` (a ``--j`` cell from the series tables cut to columns
``j <= J``), ``tree`` :mod:`sigperm.labeltable` for a full row and the leaf
:mod:`sigperm.labeldp` for one ``--j`` cell, ``brute`` :mod:`sigperm.oracle`.
"""

from __future__ import annotations

import argparse
import time
from types import ModuleType

__all__ = ["run"]


def run(args: argparse.Namespace, cli: ModuleType) -> int:
    """Run ``count``; ``cli`` is the dispatcher module, whose guards and
    ``_emit`` are read from it when called."""
    from .pattern import Pattern

    pattern = Pattern.parse(args.pattern)
    method = args.method
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if method == "formula":
        if str(pattern) != "1234":
            raise ValueError("method 'formula' evaluates Egge's sum for 1234 only")
        if args.j is not None:
            raise ValueError(
                "method 'formula' gives the total only; "
                "the statistic-refined counts have no closed form here"
            )
    if args.j is not None and not 0 <= args.j <= args.n:
        raise ValueError(f"--j {args.j} outside 0..{args.n}")
    # only the exhaustive scan starts processes, with 2n blocks from size 2
    blocks = 2 * args.n if method == "brute" and args.n >= 2 else 0
    workers = cli._resolve_workers(args, blocks)
    if method == "brute":
        # a pooled scan is not cached, so a pooled row scans once per j
        pooled_row = workers > 1 and args.j is None
        cli._guard_cost(args, "--n", [args.n], args.n + 1 if pooled_row else 1)
    # load the one route this method runs
    if method == "gf":
        from . import gf
    elif method == "tree" and args.j is None:
        from . import labeltable
    elif method == "tree":
        from . import labeldp
    elif method == "formula":
        from . import formulas
    else:
        from . import oracle
    started = time.perf_counter()
    if method == "formula":
        cells = [(None, formulas.egge_formula(args.n))]
    else:
        js = [args.j] if args.j is not None else range(args.n + 1)
        if method == "gf":
            row = gf.avoider_count_from_series(args.n, pattern, args.j)[args.n]
        elif method == "tree" and args.j is None:
            row = labeltable.tree_rows(args.n, pattern)[args.n]
        elif method == "tree":
            row = {args.j: labeldp.level_counts(pattern, args.j, args.n - args.j)[-1]}
        else:
            row = {j: oracle.avoider_counts(args.n, pattern, workers)[j] for j in js}
        cells = [(j, row[j]) for j in js]
        if args.j is None:
            cells.append((None, sum(c for _, c in cells)))
    rows = [
        dict(n=args.n, j=j, pattern=str(pattern), method=method, count=str(c))
        for j, c in cells
    ]
    manifest = {
        "patterns": [str(pattern)],
        "n_min": args.n,
        "n_max": args.n,
        "j": args.j,
        "methods": [method],
        "degree_bound": args.n + 1 if method == "gf" else None,
        "workers": workers,
    }
    columns = ("n", "j", "pattern", "method", "count")
    cli._emit(args, started, manifest, {"rows": rows}, columns)
    return 0
