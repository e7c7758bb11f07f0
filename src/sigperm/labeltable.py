"""The tree triangle from one backward table over the labels.

Let ``N_r(x, y, z)`` be the number of descendants ``r`` levels below a node
labelled ``(x, y, z)`` in the generating tree of 2143 or 1234.  Then
``N_0 = 1``, ``N_r`` sums ``N_(r-1)`` over the children that the succession
rule lists (``gentree.successors``), and since the root of statistic ``j``
is labelled ``(j+1, j+1, j+1)``, ``|B_n^j| = N_(n-j)(j+1, j+1, j+1)``.

One table therefore gives every row ``n <= N``.  Each rule is a handful of
sums over ranges of x, y or z, so prefix sums over x and running sums over y
and z make each cell O(1).  The roots read at step ``r`` have
``y, z <= N + 1 - r``, and ``N_r`` at a label needs ``N_(r-1)`` only at
``y`` one higher and ``z`` no higher, so step ``r`` keeps just those labels:
about ``N**4 / 8`` cells in all.

This module needs only :mod:`sigperm.pattern`: the tree counts load it
without the explicit tree or the containment kernel.  ``gentree.level_counts`` runs the same rules forward from
one root, and the tests check the two against each other and against
``gentree.successors``.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Iterator

from .pattern import Pattern, _require_tree_pattern

__all__ = ["tree_rows"]

# Step r holds about (N + 1 - r)**3 / 2 cells, the previous step's as many
# again.  At N = 120 the 2143 triangle took 10 s and 104 MB peak (2 vCPUs,
# Python 3.11); memory grows as N**3 and time as N**4.
MAX_TABLE_N = 120

# A table holds N_r(x, y, z) at table[z - 1][y - 1][x - 1], one row over
# x = 1..y per (z, y).
_Table = list[list[list[int]]]


def _step(prev: _Table, is_2143: bool) -> _Table:
    """``N_r`` for ``y, z <= size`` from ``N_(r-1)`` for ``y, z <= size + 1``.

    With ``A(x, y, z)`` the sum of ``N_(r-1)(i, y, z)`` over ``i = 2..x+1``
    (a prefix sum of row ``(z, y)``), the rules of ``gentree.successors``
    sum to

    * 2143: ``A(x, y+1, z) + sum(N_(r-1)(x, yy, z), yy = x+1..y)
      + sum(A(x, x+1, zz), zz = 1..z-1)``;
    * 1234: ``sum(A(x, y+1, zz), zz = 1..z)
      + sum(N_(r-1)(x, yy, 1), yy = x+1..y)``,

    and each sum over yy or zz runs on from the previous y or z.
    """
    size = len(prev) - 1
    if is_2143:
        table = []
        # sum(A(x, x+1, zz), zz < z), for x = 1..size
        lower = [0] * size
        for plane in prev[:size]:
            rows = []
            # sum(N_(r-1)(x, yy, z), yy = x+1..y), for x = 1..y
            below = [0]
            for y in range(1, size + 1):
                if y > 1:
                    below = [*map(add, below, plane[y - 1]), 0]
                above = accumulate(plane[y][1:])
                rows.append([*map(add, map(add, above, below), lower)])
            table.append(rows)
            lower = [c + sum(plane[x]) - plane[x][0] for x, c in enumerate(lower, 1)]
        return table
    table = [[] for _ in range(size)]
    below = [0]
    for y in range(1, size + 1):
        if y > 1:
            below = [*map(add, below, prev[0][y - 1]), 0]
        # the rows (zz, y + 1) summed over zz = 1..z
        upper = [0] * (y + 1)
        for plane, rows in zip(prev, table):
            upper = [*map(add, upper, plane[y])]
            rows.append([*map(add, accumulate(upper[1:]), below)])
    return table


def _tables(max_n: int, is_2143: bool) -> Iterator[_Table]:
    """``N_r`` over the labels with ``y, z <= max_n + 1 - r``, for
    ``r = 0..max_n``."""
    ones = [[1] * y for y in range(1, max_n + 2)]
    table = [ones] * (max_n + 1)
    yield table
    for _ in range(max_n):
        table = _step(table, is_2143)
        yield table


def tree_rows(max_n: int, pattern: Pattern) -> tuple[tuple[int, ...], ...]:
    """The rows ``(|B_n^0|, ..., |B_n^n|)`` of ``pattern`` for ``n = 0..max_n``.

    Step ``r`` of the table gives the entry ``(j + r, j)`` of every row at
    once.  Raises ``ValueError`` for ``max_n < 0``, for a pattern with no
    generating tree, and for ``max_n > MAX_TABLE_N``, before allocating.

    >>> from .pattern import PATTERN_2143
    >>> tree_rows(3, PATTERN_2143)
    ((1,), (1, 1), (2, 4, 1), (6, 17, 9, 1))
    """
    if max_n < 0:
        raise ValueError(f"size {max_n} must be nonnegative")
    is_2143 = _require_tree_pattern(pattern)
    if max_n > MAX_TABLE_N:
        raise ValueError(
            f"tree triangle capped at size {MAX_TABLE_N}; "
            "level_counts gives one statistic's column past the cap"
        )
    rows = [[0] * (n + 1) for n in range(max_n + 1)]
    for r, table in enumerate(_tables(max_n, is_2143)):
        for j in range(max_n + 1 - r):
            rows[j + r][j] = table[j][j][j]
    return tuple(map(tuple, rows))
