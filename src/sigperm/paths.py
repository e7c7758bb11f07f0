"""Lattice paths over the succession rules, and their series by signature.

A label sequence following the succession rule of either tree pattern is a
lattice path in Z^3.  Some steps are *recorded*: for 2143 the same-layer
steps that bump the active-site count and every step into a lower layer; for
1234 every step that bumps the active-site count.  Unrecorded steps never
move the x-coordinate.  The *signature* of a path is the starting
x-coordinate followed by the x-coordinates at the endpoints of its recorded
steps, in order.

``F(pattern, k, q, gamma)`` is the series in ``t`` counting paths that start
at ``(gamma[0], gamma[0] + k, q)`` and realize signature ``gamma``, weighted
by ``t ** (points - len(gamma))``.  It satisfies a short recursion in
``(len(gamma), q, k)``, computed here over truncated integer series, and is
the same series for both patterns - which is what makes the two avoider
counts agree.  Avoider counts are sums of single coefficients:
``|B_n^j| = sum over gamma starting at j+1 of [t^(n-j+1-|gamma|)]
F(0, j+1, gamma)``.  That sum runs over a Catalan-like number of
signatures, so the counting route sums the signatures inside the recursion
instead (the leaf :mod:`sigperm.gf`, which shares no code with this
module).

Only the ``gf`` command, ``verify``'s series grid and the demos load this
module; :mod:`sigperm.gf` re-exports its names.  A series is a tuple of
exact integer coefficients, one per degree up to the bound, and a path is a
sequence of ``(x, y, z)`` points.
"""

from __future__ import annotations

import itertools
from operator import add, sub
from typing import TYPE_CHECKING, Counter as CounterT, Iterable

from collections import Counter

from .pattern import Pattern, _require_tree_pattern

if TYPE_CHECKING:
    from .gentree import TreeLabel

__all__ = [
    "validate_signature",
    "signatures",
    "SeriesCache",
    "f_series",
    "is_recorded",
    "signature_of",
    "path_profile",
]


def validate_signature(gamma: Iterable[int]) -> tuple[int, ...]:
    """Check the signature constraints and return the tuple.

    The first entry is any positive integer; each later entry lies between 2
    and one more than its predecessor (a recorded step cannot move the
    x-coordinate up by more than one, and never lands at 1).
    """
    g = tuple(gamma)
    if not g:
        raise ValueError("signature must be nonempty")
    if g[0] < 1:
        raise ValueError(f"signature start {g[0]} must be positive")
    for a, b in itertools.pairwise(g):
        if not 2 <= b <= a + 1:
            raise ValueError(f"signature step {a} -> {b} violates 2 <= next <= prev+1")
    return g


def signatures(first: int, max_len: int) -> list[tuple[int, ...]]:
    """All signatures starting at ``first`` with at most ``max_len`` entries,
    ordered by length then lexicographically.

    Entry ``i`` (0-based) is at most ``first + i``, so the list is finite.

    >>> signatures(1, 2)
    [(1,), (1, 2)]
    """
    if first < 1 or max_len < 1:
        raise ValueError("need a positive start and length bound")
    out: list[tuple[int, ...]] = []
    layer = [(first,)]
    out.extend(layer)
    for _ in range(max_len - 1):
        layer = [g + (nxt,) for g in layer for nxt in range(2, g[-1] + 2)]
        out.extend(layer)
    return out


# SeriesCache grows a signature's tables one stack frame per entry, so
# SeriesCache.series refuses longer signatures well inside the default
# recursion limit.  At this length and degree 8, f_series(2143, 0, 1, [2]*200)
# takes about 0.04 s and f_series(2143, 3, 3, [5, 6, 7] + [2]*197) 0.16 s
# (one core of a 2-vCPU x86-64 virtual machine, Python 3.11).
MAX_SIGNATURE_LENGTH = 200


class SeriesCache:
    """Memoized evaluator of the path series at one fixed degree bound.

    The cache keeps one table for each suffix of the signature it was last
    asked for, and drops the others when the signature changes, so a walk
    over signatures sorted by their reversed tuples builds each table once.
    The table of ``gamma`` holds ``F(k, q, gamma)`` for ``k <= K`` and ``1 <=
    q <= Q`` as a list of layers for each rule, each layer a list over ``k``
    of ``degree_bound + 1`` coefficients; the layer ``q = 1``, where the two
    rules coincide, is one list shared by both.  A table grows append-only
    in ``k`` and ``q`` as calls ask for more, after its suffix's table has
    grown as far as it reads, and :meth:`series` returns the tuple it holds.
    Every call may change what the cache holds, so threads do not share one.
    """

    def __init__(self, degree_bound: int):
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        self.degree_bound = degree_bound
        self._zero = (0,) * (degree_bound + 1)
        self._gamma: tuple[int, ...] | None = None
        # _tables[i] is the table of _gamma[i:]: its 2143 and its 1234 layers
        self._tables: list[tuple[list[list[tuple[int, ...]]], ...]] = []

    def series(self, pattern: Pattern, k: int, q: int, gamma: Iterable[int]) -> tuple[int, ...]:
        """The coefficients of ``F(pattern, k, q, gamma)`` in degrees
        ``0..degree_bound``.

        Raises ``ValueError`` for a signature longer than
        ``MAX_SIGNATURE_LENGTH``.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        rule_2143 = _require_tree_pattern(pattern)
        if (gamma := tuple(gamma)) != self._gamma:
            self._switch(gamma)
        if q <= 0:
            return self._zero
        self._grow(0, k + 1, q)
        rows_2143, rows_1234 = self._tables[0]
        return (rows_2143 if rule_2143 else rows_1234)[q - 1][k]

    def _switch(self, gamma: tuple[int, ...]) -> None:
        """Keep the tables of the suffixes ``gamma`` shares with the last
        signature, and start empty ones for the others."""
        validate_signature(gamma)
        if len(gamma) > MAX_SIGNATURE_LENGTH:
            raise ValueError(
                f"signature has {len(gamma)} entries, more than the bound "
                f"{MAX_SIGNATURE_LENGTH}"
            )
        old, shared = self._gamma or (), 0
        while shared < min(len(gamma), len(old)) and gamma[-1 - shared] == old[-1 - shared]:
            shared += 1
        kept = self._tables[len(old) - shared :]
        self._tables, self._gamma = [([], []) for _ in gamma[shared:]] + kept, gamma

    def _grow(self, i: int, width: int, layers: int) -> None:
        """Grow the table of ``_gamma[i:]`` to at least ``width`` values of
        ``k`` and ``layers`` layers, and its suffixes' as far as it reads."""
        rows_2143, rows_1234 = self._tables[i]
        have = len(rows_2143[0]) if rows_2143 else 0
        if have >= width and len(rows_2143) >= layers:
            return
        width, layers = max(width, have), max(layers, len(rows_2143))
        if i + 1 == len(self._tables):
            # a one-entry signature gives s^k on every layer under both rules;
            # multiplying by s takes prefix sums of the coefficients
            if not rows_2143:
                rows_2143.append([(1,) + self._zero[1:]])
            powers = rows_2143[0]
            for _ in range(have, width):
                powers.append(tuple(itertools.accumulate(powers[-1])))
            rows_2143.extend([powers] * (layers - len(rows_2143)))
            rows_1234[:] = rows_2143
            return
        shift = self._gamma[i] + 1 - self._gamma[i + 1]
        self._grow(i + 1, width + shift, layers)
        rest_2143, rest_1234 = self._tables[i + 1]
        for q in range(1, layers + 1):
            if q > len(rows_2143):
                # F(0, q) = F(0, q-1) + F(g1+1-g2, q, rest), from F(0, 0) = 0
                up = rest_2143[q - 1][shift]
                rows_2143.append([tuple(map(add, rows_2143[-1][0], up)) if q > 1 else up])
                rows_1234.append([] if q > 1 else rows_2143[0])
            row, up = rows_2143[q - 1], rest_2143[q - 1]
            for k in range(len(row), width):
                # F(k) = s * (F(k-1) + F(g1+1-g2+k, rest) - F(g1-g2+k, rest))
                step = map(sub, map(add, row[k - 1], up[shift + k]), up[shift + k - 1])
                row.append(tuple(itertools.accumulate(step)))
            if q > 1:
                # 1234: F(q) = F(q-1) + F(g1+1-g2+k, q, rest), from the shared layer 1
                row, up, lower = rows_1234[q - 1], rest_1234[q - 1], rows_1234[q - 2]
                for k in range(len(row), width):
                    row.append(tuple(map(add, lower[k], up[shift + k])))


def f_series(
    pattern: Pattern, k: int, q: int, gamma: Iterable[int], degree_bound: int
) -> tuple[int, ...]:
    """One-off evaluation of ``F``; see :class:`SeriesCache` for sessions."""
    return SeriesCache(degree_bound).series(pattern, k, q, gamma)


# ---------------------------------------------------------------------------
# explicit paths: the desk-scale oracle for the series recursion.  These
# functions walk gentree's succession rules and import gentree when called, so
# the series above never load it.


def _records(start: TreeLabel, end: TreeLabel, rule_2143: bool) -> bool:
    """The flag of a legal step: it bumps the active-site count, or, under
    the 2143 rule, it drops to a lower layer."""
    return end.y == start.y + 1 or (rule_2143 and end.z < start.z)


def is_recorded(start: tuple[int, int, int], end: tuple[int, int, int], pattern: Pattern) -> bool:
    """Classify one succession step as recorded or not.

    Raises ``ValueError`` unless ``end`` is one of the :func:`successors` of
    ``start``.  For 2143 a step is recorded when it stays in the layer and
    bumps the active-site count, or whenever it drops to a lower layer
    (forced through the sites before the first turn, so the new count is
    ``x + 1``).  For 1234 a step is recorded exactly when it bumps the
    active-site count.
    """
    from . import gentree

    start, end = gentree.TreeLabel(*start), gentree.TreeLabel(*end)
    if end not in gentree.successors(start, pattern):
        raise ValueError(f"{start} -> {end} is not a legal {pattern} step")
    return _records(start, end, _require_tree_pattern(pattern))


def signature_of(points: Iterable[tuple[int, int, int]], pattern: Pattern) -> tuple[int, ...]:
    """Starting x-coordinate, then the x-coordinates after recorded steps.

    Raises ``ValueError`` for an empty path or an illegal step.
    """
    from . import gentree

    pts = [gentree.TreeLabel(*p) for p in points]
    if not pts:
        raise ValueError("a path has at least one point")
    return (pts[0].x,) + tuple(
        b.x for a, b in itertools.pairwise(pts) if is_recorded(a, b, pattern)
    )


def path_profile(
    pattern: Pattern, start: TreeLabel | tuple[int, int, int], max_points: int
) -> CounterT[tuple[tuple[int, ...], int]]:
    """Counts of the paths from ``start`` with at most ``max_points`` points,
    grouped by (signature, points - signature length).

    Counting paths and bucketing them this way is the independent check of
    the series recursion: the bucket ``(gamma, d)`` must equal the
    coefficient of ``t^d`` in ``F`` for the matching start.  Any start with
    ``1 <= x <= y`` and ``z >= 1`` is allowed (tree roots have x = y).  The
    walk counts prefixes of each length by (last point, signature so far),
    as prefixes sharing both extend alike; desk scale only.
    """
    from . import gentree

    first = gentree.TreeLabel(*start)
    if not (1 <= first.x <= first.y and first.z >= 1):
        raise ValueError(f"invalid start {first}")
    rule_2143 = _require_tree_pattern(pattern)
    profile: CounterT[tuple[tuple[int, ...], int]] = Counter()
    level = Counter({(first, (first.x,)): 1})
    for points in range(1, max_points + 1):
        grown: CounterT[tuple[TreeLabel, tuple[int, ...]]] = Counter()
        for (here, sig), count in level.items():
            profile[(sig, points - len(sig))] += count
            if points == max_points:
                continue
            for child in gentree.successors(here, pattern):
                if _records(here, child, rule_2143):
                    grown[(child, sig + (child.x,))] += count
                else:
                    grown[(child, sig)] += count
        level = grown
    return profile
