"""The identities ``sigperm verify`` checks.

:func:`run_checks` computes every route's rows once and returns one result
row per check, which the CLI renders.  Only ``verify`` loads this module.
"""

from __future__ import annotations

from typing import Iterator

from . import gf, labeltable, oracle
from .pattern import TREE_PATTERNS, Pattern

__all__ = ["run_checks"]

# the degree up to which the series-grid check compares the two rules' series
SERIES_GRID_DEGREE = 10


def _check_row(name: str, scope: str, failures: Iterator[str]) -> dict[str, str]:
    """A verify row: the first failure detail, or the check's scope."""
    detail = next(failures, None)
    if detail is None:
        return {"name": name, "status": "pass", "detail": scope}
    return {"name": name, "status": "fail", "detail": detail}


def run_checks(max_n: int, workers: int) -> list[dict[str, str]]:
    """Run every cross-method identity; one result dict per named check.

    Every route's rows are computed once, before any check reads them; each
    check is a generator of failure details, consumed only up to its first
    failure.  The brute scan runs in one process pool while this process
    computes the tree and series rows and the series-grid check.
    """
    p1234, p2143 = patterns = TREE_PATTERNS
    sizes = range(max_n + 1)
    routes = ("brute", "tree", "gf")

    def series_grid() -> Iterator[str]:
        # F(., ., gamma) reads only the memo entries of gamma's suffixes, and
        # those with two or more entries end in gamma's last two; so each
        # group of signatures sharing that tail gets a cache of its own,
        # dropped when the group ends, and only the one-entry series s^k are
        # computed again.  The memo keys carry the rule, so one cache serves
        # both.
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for g1 in range(1, 6):
            for gamma in gf.signatures(g1, 4):
                groups.setdefault(gamma[-2:], []).append(gamma)
        for group in groups.values():
            cache = gf.SeriesCache(SERIES_GRID_DEGREE)
            for gamma in group:
                for k in range(6):
                    for q in range(1, 6):
                        if cache.series(p2143, k, q, gamma) != cache.series(
                            p1234, k, q, gamma
                        ):
                            yield f"k={k} q={q} gamma={gamma}"

    with oracle.scan_rows(max_n, patterns, workers) as collect_scan:
        exact = {
            "tree": [labeltable.tree_rows(max_n, p) for p in patterns],
            "gf": [gf.avoider_count_from_series(max_n, p) for p in patterns],
        }
        grid = _check_row(
            "series-grid",
            f"k<=5 q<=5 gamma1<=5 len<=4 at degree {SERIES_GRID_DEGREE}",
            series_grid(),
        )
        by_route = {"brute": collect_scan(), **exact}
    rows = {
        (route, str(p)): row
        for route in routes
        for p, row in zip(patterns, by_route[route])
    }

    def cross_method(pattern: Pattern) -> Iterator[str]:
        for n in sizes:
            brute, tree, series = (rows[r, str(pattern)][n] for r in routes)
            if not brute == tree == series:
                yield f"n={n}: brute={brute} tree={tree} gf={series}"

    def refined_wilf() -> Iterator[str]:
        for n in sizes:
            row_a, row_b = rows["brute", "1234"][n], rows["brute", "2143"][n]
            if row_a != row_b:
                yield f"n={n}: 1234={row_a} 2143={row_b}"

    def egge_total() -> Iterator[str]:
        for n in sizes:
            expected = oracle.egge_formula(n)
            totals = {p: sum(rows["brute", p][n]) for p in ("1234", "2143")}
            if any(t != expected for t in totals.values()):
                yield f"n={n}: totals={totals} formula={expected}"

    def type_d_slice() -> Iterator[str]:
        # the type-D subgroup is the words with n - j even
        for n in sizes:
            slices = {
                f"{r}[{p}]": sum(row[n][n % 2 :: 2]) for (r, p), row in rows.items()
            }
            if len(set(slices.values())) != 1:
                yield f"n={n}: slices={slices}"

    scope = f"n <= {max_n}"
    return [
        *(_check_row(f"cross-method[{p}]", scope, cross_method(p)) for p in patterns),
        _check_row("refined-wilf", scope, refined_wilf()),
        _check_row("egge-total", scope, egge_total()),
        _check_row("type-d-slice", scope, type_d_slice()),
        grid,
    ]
