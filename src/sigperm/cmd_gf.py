"""``sigperm gf``: print one path series, with a path-enumeration
cross-check at small sizes, and exit 1 if the two disagree.

Only ``gf`` loads this module; it runs :mod:`sigperm.gf`, whose path
cross-check walks ``gentree``'s succession rules.
"""

from __future__ import annotations

import argparse
import re
import time
from types import ModuleType
from typing import Any

__all__ = ["run"]


def _series_text(coeffs: tuple[int, ...]) -> str:
    """``c0 + c1*t + c2*t^2 + ...`` through the truncation degree."""
    powers = ["", "*t", *(f"*t^{d}" for d in range(2, len(coeffs)))]
    return " + ".join(f"{c}{power}" for c, power in zip(coeffs, powers))


def run(args: argparse.Namespace, cli: ModuleType) -> int:
    """Run ``gf``; ``cli`` is the dispatcher module, whose ``_emit`` is read
    from it when called."""
    from . import gf
    from .pattern import Pattern

    pattern = Pattern.parse(args.pattern)
    tokens = args.gamma.split(",")
    if not all(re.fullmatch(r"\s*[+-]?\d+\s*", tok) for tok in tokens):
        raise ValueError(f"malformed signature {args.gamma!r}")
    gamma = tuple(map(int, tokens))
    if args.q < 1:  # layers count from 1; the library gives 0 below that
        raise ValueError("--q must be at least 1")

    started = time.perf_counter()
    series = gf.f_series(pattern, args.k, args.q, gamma, args.degree)
    text = _series_text(series)
    table = [text]
    cross_check: dict[str, Any] | None = None
    start = (gamma[0], gamma[0] + args.k, args.q)
    if args.degree <= 6 and start[1] <= 4 and args.q <= 3:
        max_points = min(8, args.degree + len(gamma))
        depth = max_points - len(gamma)
        if depth >= 0:
            profile = gf.path_profile(pattern, start, max_points)
            agree = all(
                series[d] == profile.get((gamma, d), 0)
                for d in range(depth + 1)
            )
            cross_check = {
                "start": list(start),
                "degrees_checked": depth,
                "agrees": agree,
            }
            table.append(
                f"# path cross-check through degree {depth}: "
                + ("ok" if agree else "MISMATCH")
            )
    manifest = {
        "patterns": [str(pattern)],
        "methods": ["gf"],
        "degree_bound": args.degree,
    }
    body = {
        "k": args.k,
        "q": args.q,
        "gamma": list(gamma),
        "coefficients": [str(c) for c in series],
        "series": text,
        "cross_check": cross_check,
    }
    cli._emit(args, started, manifest, body, table=table)
    return 1 if cross_check is not None and not cross_check["agrees"] else 0
