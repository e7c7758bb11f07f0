"""Avoider counts read off the signature-summed path series.

Grouping the paths of either succession rule by signature gives series
``F(k, q, gamma)`` that are the same for both rules (:mod:`sigperm.paths`),
and ``|B_n^j|`` is a sum of single coefficients of ``F(0, j+1, gamma)``
over every signature ``gamma`` starting at ``j + 1``.  That sum runs over a
Catalan-like number of signatures, so the counts are read instead from
``H(k, q, g1) = sum over gamma starting at g1 of t^len(gamma) F(k, q,
gamma)``.  Summing F's rules over the signature tail gives, with
``s = 1/(1-t)`` and ``T(c) = t * sum_{g2=2..g1+1} H(g1 + c - g2 + k, q,
g2)``:

- ``H(k, 0, g1) = 0``;
- 1234 at ``q >= 2``: ``H(k, q, g1) = H(k, q-1, g1) + T(1)``;
- 2143, and 1234 at ``q == 1``, with ``k == 0``:
  ``H(0, q, g1) = [q == 1] t + H(0, q-1, g1) + T(1)``;
- the same with ``k > 0``: ``H(k, q, g1) = s * (H(k-1, q, g1) + T(1) - T(0))``.

The length-1 signature contributes ``t * s^k`` at every ``q >= 1``, which is
why it cancels from the first and last rules and survives only as the
``[q == 1] t``.  Then ``|B_n^j| = [t^(n-j+1)] H(0, j+1, j+1)``; one table of
``H`` per degree holds every count with ``n <= N``, and each tail ``T`` is a
running sum of the previous degree's table along a diagonal
``k + g1 = const`` (:func:`avoider_count_from_series`).

This module needs only :mod:`sigperm.pattern`: ``count --method gf`` loads
it without the series by signature or the explicit paths, which it
re-exports from :mod:`sigperm.paths` on first use.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add, sub

from .pattern import Pattern, _require_tree_pattern

__all__ = ["avoider_count_from_series"]

# One cell per state (q, diag, g1) of a degree's table, 0 <= g1 <= diag: the
# whole triangle at N = 120 builds this many.  It took 8.7-9.1 s and 73 MB
# peak for 2143 (1234: 7.1-7.2 s; 2 vCPUs, Python 3.11); time grows with
# the cells, and memory with the cells of two degrees.
MAX_SERIES_CELLS = 28_143_753


def _table_cells(max_n: int, layers: int) -> int:
    """The cells of the tables for rows ``n <= max_n`` cut at ``q <= layers``.

    Degree ``d`` has ``min(size, layers)`` layers of ``C(size + 2, 2)``
    cells, with ``size = max_n + 2 - d``; summed in closed form, so pricing a
    refused table costs nothing.
    """
    top, cut = max_n + 1, min(max_n + 1, layers)
    return 3 * comb(cut + 3, 4) + layers * (comb(top + 3, 3) - comb(cut + 3, 3))


# the series by signature and the paths, read off this module by verify's
# checks and the gf command and resolved from sigperm.paths on first use
_PATHS_NAMES = (
    "validate_signature",
    "signatures",
    "SeriesCache",
    "f_series",
    "MAX_SIGNATURE_LENGTH",
    "is_recorded",
    "signature_of",
    "path_profile",
)


def __getattr__(name: str):
    if name in _PATHS_NAMES:
        from . import paths

        return getattr(paths, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def avoider_count_from_series(
    max_n: int, pattern: Pattern, max_j: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The rows ``(|B_n^0|, ..., |B_n^n|)`` of ``pattern`` for ``n = 0..max_n``,
    each cut to its entries ``j <= max_j`` when ``max_j`` is given.

    Each count is ``[t^(n-j+1)] H(0, j+1, j+1)`` (module docstring).
    Coefficient ``d`` of ``H(k, q, g1)`` needs coefficient ``d`` at the same
    ``g1`` and a lower ``q`` or ``k``, and coefficient ``d - 1`` of the tail
    terms, whose ``k + g1`` is at most one higher.  So one table per degree
    over the states with ``q + d`` and ``k + g1 + d`` at most ``max_n + 2``
    holds every count, with ``[t^d] H(diag - g1, q, g1)`` at
    ``[q][diag][g1]`` and index 0 as the zero border.  The tails ``T`` are
    running sums of the previous degree's rows ``[q][diag + 1]`` and
    ``[q][diag]``, so the triangle costs ``O(max_n^4)`` integer additions.
    Layer ``q`` reads only layers ``q`` and ``q - 1``, so the tables cut at
    ``q <= max_j + 1`` hold the columns ``j <= max_j``, at about
    ``(max_j + 1) / max_n`` of the triangle's cost.  Raises ``ValueError``
    for a negative ``max_n`` or ``max_j``, for a pattern with no generating
    tree, and for tables of more than ``MAX_SERIES_CELLS`` cells, before
    allocating.

    >>> avoider_count_from_series(3, Pattern((2, 1, 4, 3)))
    ((1,), (1, 1), (2, 4, 1), (6, 17, 9, 1))
    >>> avoider_count_from_series(3, Pattern((2, 1, 4, 3)), max_j=0)
    ((1,), (1,), (2,), (6,))
    """
    if max_n < 0:
        raise ValueError(f"size {max_n} must be nonnegative")
    if max_j is not None and max_j < 0:
        raise ValueError(f"column bound {max_j} must be nonnegative")
    rule_2143 = _require_tree_pattern(pattern)
    layers = max_n + 1 if max_j is None else min(max_j, max_n) + 1
    cells = _table_cells(max_n, layers)
    if cells > MAX_SERIES_CELLS:
        hint = (
            "; `sigperm count --method gf --j J` builds one statistic's column"
            if max_j is None
            else ""
        )
        raise ValueError(
            f"series table for size {max_n} has {cells} cells, over the "
            f"budget of {MAX_SERIES_CELLS}{hint}"
        )
    top = max_n + 2
    rows = [[0] * min(n + 1, layers) for n in range(max_n + 1)]
    zero = [[0] * (diag + 1) for diag in range(top + 1)]
    prev = [zero] * top  # degree 0: H has no constant term
    for d in range(1, top):
        size = top - d
        cur = [zero]
        for q in range(1, min(size, layers) + 1):
            below, plane = cur[q - 1], [[0]]
            for diag in range(1, size + 1):
                # T(1) at g1 = 0..diag
                up = [0, *itertools.accumulate(prev[q][diag + 1][2:])]
                if not (rule_2143 or q == 1):
                    plane.append([*map(add, below[diag], up)])
                    continue
                # k > 0: coefficient d of s * X is its coefficient d - 1 plus X's
                down = itertools.accumulate(prev[q][diag][2:])
                steps = map(add, prev[q][diag][1:diag], plane[diag - 1][1:])
                row = [0, *map(add, steps, map(sub, up[1:diag], down))]
                row.append(int(d == q == 1) + below[diag][diag] + up[diag])
                plane.append(row)
            cur.append(plane)
        for j in range(min(size, layers)):
            rows[d + j - 1][j] = cur[j + 1][j + 1][j + 1]
        prev = cur
    return tuple(map(tuple, rows))
