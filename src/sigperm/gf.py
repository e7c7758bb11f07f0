"""Lattice-path generating functions over the succession rules.

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
F(0, j+1, gamma)``.

That sum runs over a Catalan-like number of signatures, so the counts are
read instead from the signature-summed series
``H(k, q, g1) = sum over gamma starting at g1 of t^len(gamma) F(k, q, gamma)``.
Summing F's rules over the signature tail gives, with ``s = 1/(1-t)`` and
``T(c) = t * sum_{g2=2..g1+1} H(g1 + c - g2 + k, q, g2)``:

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

A series is a tuple of exact integer coefficients, one per degree up to the
bound, and a path is a sequence of ``(x, y, z)`` points.
"""

from __future__ import annotations

import itertools
from math import comb
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
    "avoider_count_from_series",
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


# SeriesCache recurses once per signature entry, about two stack frames each,
# so SeriesCache.series refuses longer signatures well inside the default
# recursion limit.  At this length and degree 8, f_series(2143, 0, 1, [2]*200)
# takes about 1.5 s and f_series(2143, 3, 3, [5, 6, 7] + [2]*197) 5-6 s (one
# core of a 2-vCPU x86-64 virtual machine, Python 3.11).
MAX_SIGNATURE_LENGTH = 200


class SeriesCache:
    """Memoized evaluator of the path series at one fixed degree bound.

    The memo maps keys (rule, k, q, gamma), where the rule is True for 2143
    and False for 1234, to tuples of ``degree_bound + 1`` coefficients; the
    degree bound is ambient to the session, so entries from different bounds
    never mix, and :meth:`series` returns the memoized tuple itself.  The
    memo keeps every entry for the cache's lifetime, about 0.5 KB per entry
    at degree 10, so a long session bounds its memory by dropping the cache.
    Evaluation is a pure function of the key, so concurrent duplicate
    computation would be idempotent; within one session a plain dict
    suffices.
    """

    def __init__(self, degree_bound: int):
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        self.degree_bound = degree_bound
        self._memo: dict[tuple[bool, int, int, tuple[int, ...]], tuple[int, ...]] = {}
        self._zero = (0,) * (degree_bound + 1)

    def series(self, pattern: Pattern, k: int, q: int, gamma: Iterable[int]) -> tuple[int, ...]:
        """The coefficients of ``F(pattern, k, q, gamma)`` in degrees
        ``0..degree_bound``.

        Raises ``ValueError`` for a signature longer than
        ``MAX_SIGNATURE_LENGTH``.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        rule_2143 = _require_tree_pattern(pattern)
        gamma = validate_signature(gamma)
        if len(gamma) > MAX_SIGNATURE_LENGTH:
            raise ValueError(
                f"signature has {len(gamma)} entries, more than the bound "
                f"{MAX_SIGNATURE_LENGTH}"
            )
        return self._f(rule_2143, k, q, gamma)

    def _f(
        self, rule_2143: bool, k: int, q: int, gamma: tuple[int, ...]
    ) -> tuple[int, ...]:
        """Recurse on the signature tail only; the chains in ``q`` and ``k``
        run as loops, so the stack depth is bounded by ``len(gamma)``."""
        if q <= 0:
            return self._zero
        if q == 1:
            rule_2143 = True  # the two succession rules coincide at layer 1
        hit = self._memo.get((rule_2143, k, q, gamma))
        if hit is not None:
            return hit
        if len(gamma) == 1:
            # s^k: coefficient d is C(d + k - 1, d)
            if k == 0:
                val = (1,) + self._zero[1:]
            else:
                val = tuple(comb(d + k - 1, d) for d in range(self.degree_bound + 1))
            self._memo[(rule_2143, k, q, gamma)] = val
            return val
        g1, g2 = gamma[0], gamma[1]
        rest = gamma[1:]
        if rule_2143 and k > 0:
            # F(k) = s * (F(k-1) + F(g1+1-g2+k, rest) - F(g1-g2+k, rest))
            val = self._f(rule_2143, 0, q, gamma)
            for step in range(1, k + 1):
                memo_key = (rule_2143, step, q, gamma)
                hit = self._memo.get(memo_key)
                if hit is None:
                    up = self._f(rule_2143, g1 + 1 - g2 + step, q, rest)
                    down = self._f(rule_2143, g1 - g2 + step, q, rest)
                    # multiplying by s takes prefix sums of the coefficients
                    hit = tuple(itertools.accumulate(map(sub, map(add, val, up), down)))
                    self._memo[memo_key] = hit
                val = hit
            return val
        # F(q) = F(q-1) + F(g1+1-g2+k, q, rest), from layer 0 for 2143 and
        # from the shared layer 1 for 1234
        low = 0 if rule_2143 else 1
        val = self._f(True, k, low, gamma)
        for layer in range(low + 1, q + 1):
            memo_key = (rule_2143, k, layer, gamma)
            hit = self._memo.get(memo_key)
            if hit is None:
                lower = self._f(rule_2143, g1 + 1 - g2 + k, layer, rest)
                hit = tuple(map(add, val, lower))
                self._memo[memo_key] = hit
            val = hit
        return val


def f_series(
    pattern: Pattern, k: int, q: int, gamma: Iterable[int], degree_bound: int
) -> tuple[int, ...]:
    """One-off evaluation of ``F``; see :class:`SeriesCache` for sessions."""
    return SeriesCache(degree_bound).series(pattern, k, q, gamma)


# Degree d holds about (N + 2 - d)**3 / 2 cells, the previous degree's as
# many again.  At N = 120 the 2143 triangle took 8.7-9.1 s and 73 MB peak
# (1234: 7.1-7.2 s; 2 vCPUs, Python 3.11); memory grows as N**3 and time as
# N**4.
MAX_SERIES_N = 120


def avoider_count_from_series(max_n: int, pattern: Pattern) -> tuple[tuple[int, ...], ...]:
    """The rows ``(|B_n^0|, ..., |B_n^n|)`` of ``pattern`` for ``n = 0..max_n``.

    Each count is ``[t^(n-j+1)] H(0, j+1, j+1)`` (module docstring).
    Coefficient ``d`` of ``H(k, q, g1)`` needs coefficient ``d`` at the same
    ``g1`` and a lower ``q`` or ``k``, and coefficient ``d - 1`` of the tail
    terms, whose ``k + g1`` is at most one higher.  So one table per degree
    over the states with ``q + d`` and ``k + g1 + d`` at most ``max_n + 2``
    holds every count, with ``[t^d] H(diag - g1, q, g1)`` at
    ``[q][diag][g1]`` and index 0 as the zero border.  The tails ``T`` are
    running sums of the previous degree's rows ``[q][diag + 1]`` and
    ``[q][diag]``, so the triangle costs ``O(max_n^4)`` integer additions.
    Raises ``ValueError`` for ``max_n < 0``, for a pattern with no
    generating tree, and for ``max_n > MAX_SERIES_N``, before allocating.

    >>> avoider_count_from_series(3, Pattern((2, 1, 4, 3)))
    ((1,), (1, 1), (2, 4, 1), (6, 17, 9, 1))
    """
    if max_n < 0:
        raise ValueError(f"size {max_n} must be nonnegative")
    rule_2143 = _require_tree_pattern(pattern)
    if max_n > MAX_SERIES_N:
        raise ValueError(
            f"series triangle capped at size {MAX_SERIES_N}; "
            "level_counts gives one statistic's column past the cap"
        )
    top = max_n + 2
    rows = [[0] * (n + 1) for n in range(max_n + 1)]
    zero = [[0] * (diag + 1) for diag in range(top + 1)]
    prev = [zero] * top  # degree 0: H has no constant term
    for d in range(1, top):
        size = top - d
        cur = [zero]
        for q in range(1, size + 1):
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
        for j in range(size):
            rows[d + j - 1][j] = cur[j + 1][j + 1][j + 1]
        prev = cur
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# explicit paths: the desk-scale oracle for the series recursion.  These
# functions walk gentree's succession rules and import gentree when called, so
# the series counts above never load it.


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
