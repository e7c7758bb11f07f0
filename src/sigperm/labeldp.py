"""Level sizes of one generating tree, by a forward dynamic program over
the labels.

The generating trees of 2143 and 1234 (:mod:`sigperm.gentree`) label each
node ``(x, y, z)``, and a node's label determines the multiset of its
children's labels (``gentree.successors``).  :func:`level_counts` follows
those rules forward from the one root of statistic ``j`` without building
the tree: it holds the multiplicities of labels as rows over ``x``, one
per ``(z, y)``, and sums each rule over whole rows with running and suffix
sums, in time about linear in the number of labels per level.  The DP
from the root of statistic ``j`` gives column ``j`` of every row.

This module needs only :mod:`sigperm.pattern`: ``count --method tree
--j`` loads it without the explicit tree or the containment kernel.  The
whole triangle of rows ``n <= N`` comes from :mod:`sigperm.labeltable`,
which runs the same rules backward in one table; the two stay separate
statements of the rules, and the tests check each against the other and
against ``gentree.successors``.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import add
from typing import Iterator

from .pattern import Pattern, _require_tree_pattern

__all__ = ["level_counts"]

# The DP's state: rows[(z, y)][x] is the multiplicity of label (x, y, z); a
# row has length y + 1, and only rows that hold a label are kept.
_Rows = dict[tuple[int, int], list[int]]


def _add(rows: _Rows, key: tuple[int, int], values: list[int], start: int) -> None:
    """Add ``values`` into ``rows[key]`` from index ``start``."""
    if not any(values):
        return
    row = rows.get(key)
    if row is None:
        row = rows[key] = [0] * (key[1] + 1)
    end = start + len(values)
    row[start:end] = map(add, row[start:end], values)


def _plus(a: list[int], b: list[int]) -> list[int]:
    """Entrywise sum of two rows of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b) :]]


def _sums_from_top(
    rows: dict[int, list[int]], low: int
) -> Iterator[tuple[int, list[int]]]:
    """``(c, total of the rows at c and above)`` for ``c`` from the top
    down to ``low``."""
    total: list[int] = []
    for c in range(max(rows), low - 1, -1):
        if c in rows:
            total = _plus(total, rows[c])
        yield c, total


def _suffix_sums(row: list[int]) -> list[int]:
    """Entry ``x - 1`` totals ``row[x:]``, for ``x = 1..len(row) - 1``:
    the multiplicity of child ``i = x + 1`` under ``i = 2..x+1``."""
    return list(accumulate(reversed(row[1:])))[::-1]


def _group(rows: _Rows, axis: int) -> dict[int, dict[int, list[int]]]:
    """``rows`` keyed by their z (axis 0) or y (axis 1), then by the other."""
    groups: dict[int, dict[int, list[int]]] = {}
    for key, row in rows.items():
        groups.setdefault(key[axis], {})[key[1 - axis]] = row
    return groups


def _next_level(rows: _Rows, is_2143: bool) -> _Rows:
    """One step of the label DP: the children of every label, with
    multiplicity, summed rule by rule over whole x-rows.

    Each block of ``gentree.successors`` sums in one pass: a child's
    multiplicity totals the parents whose bounds reach it, which are the
    rows at or above some y or z, and the entries at or above some x.
    """
    nxt: _Rows = {}
    if is_2143:
        planes = _group(rows, 0)
        # (i, y+1, z), i = 2..x+1
        for (z, y), row in rows.items():
            _add(nxt, (z, y + 1), _suffix_sums(row), 2)
        # (x, yy, z), yy = x+1..y
        for z, plane in planes.items():
            for yy, total in _sums_from_top(plane, 2):
                _add(nxt, (z, yy), total[:yy], 0)
        # (i, x+1, zz), i = 2..x+1, zz = 1..z-1
        flat = {z: reduce(_plus, plane.values()) for z, plane in planes.items()}
        for z, total in _sums_from_top(flat, 2):
            for x, mult in enumerate(total):
                if mult:
                    _add(nxt, (z - 1, x + 1), [mult] * x, 2)
    else:
        columns = _group(rows, 1)
        # (i, y+1, zz), i = 2..x+1, zz = 1..z
        for y, column in columns.items():
            for zz, total in _sums_from_top(column, 1):
                _add(nxt, (zz, y + 1), _suffix_sums(total), 2)
        # (x, yy, 1), yy = x+1..y
        flat = {y: reduce(_plus, column.values()) for y, column in columns.items()}
        for yy, total in _sums_from_top(flat, 2):
            _add(nxt, (1, yy), total[:yy], 0)
    return nxt


def level_counts(pattern: Pattern, j: int, max_depth: int) -> list[int]:
    """Avoider counts ``|B_{j+d}^j|`` for ``d = 0..max_depth`` by label DP.

    The DP runs forward from the one root of statistic ``j``.  Its state
    holds the multiplicity of every label, one row of x per ``(z, y)``, and
    one step sums the rule over whole rows (:func:`_next_level`).  Labels
    stay within ``x <= y <= j+d+2`` and ``z <= j+1``, so the state stays
    polynomial in the depth.  It is the reference the tests check
    :mod:`sigperm.labeltable`'s backward table against, and it reaches
    roots far past that table's cap.

    >>> level_counts(Pattern((1, 2, 3, 4)), 0, 6)
    [1, 1, 2, 6, 23, 103, 513]
    """
    if j < 0 or max_depth < 0:
        raise ValueError("arguments must be nonnegative")
    is_2143 = _require_tree_pattern(pattern)
    rows = {(j + 1, j + 1): [0] * (j + 1) + [1]}
    counts = [1]
    for _ in range(max_depth):
        rows = _next_level(rows, is_2143)
        counts.append(sum(map(sum, rows.values())))
    return counts
