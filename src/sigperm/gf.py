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
``[q == 1] t``.  Then ``|B_n^j| = [t^(n-j+1)] H(0, j+1, j+1)``, evaluated in
time polynomial in ``n`` by :func:`avoider_count_from_series`.

A series is a tuple of exact integer coefficients, one per degree up to the
bound, and a path is a sequence of ``(x, y, z)`` points.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add, sub
from typing import Counter as CounterT, Iterable

from collections import Counter

from .core import Pattern
from .gentree import TreeLabel, _require_tree_pattern, successors

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
        out.extend(sorted(layer))
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
    never mix, and :meth:`series` returns the memoized tuple itself.
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


def avoider_count_from_series(n: int, j: int, pattern: Pattern) -> int:
    """``|B_n^j(pattern)|`` as the coefficient ``[t^(n-j+1)] H(0, j+1, j+1)``.

    Paths of ``n - j + 1`` points from the tree root ``(j+1, j+1, j+1)``
    correspond to the avoiders, and ``H`` (module docstring) sums their
    series over every signature.  Coefficient ``d`` of ``H(k, q, g1)`` needs
    coefficient ``d`` at the same ``g1`` and a lower ``q`` or ``k``, and
    coefficient ``d - 1`` of the tail terms, whose ``k + g1`` is at most one
    higher.  So the coefficients are built one degree at a time over the
    states with ``k + g1 + d <= n + 2``, without recursion; each tail sum
    ``T`` is a running sum along a diagonal ``k + g1 = const`` of the
    previous degree, so the cost is ``O(n^2 (j + 1) (n - j + 1))`` integer
    additions.
    """
    if not 0 <= j <= n:
        raise ValueError(f"statistic {j} outside 0..{n}")
    rule_2143 = _require_tree_pattern(pattern)
    root = j + 1
    top = n + 2
    # cur[(k, q, g1)] = [t^d] H(k, q, g1);
    # tails[(k + g1, q, m)] = sum over g2 = 2..m of cur[(k + g1 - g2, q, g2)]
    prev: dict[tuple[int, int, int], int] = {}
    prev_tails: dict[tuple[int, int, int], int] = {}
    for d in range(1, n - j + 2):
        cur: dict[tuple[int, int, int], int] = {}
        tails: dict[tuple[int, int, int], int] = {}
        for q in range(1, root + 1):
            as_2143 = rule_2143 or q == 1
            for diag in range(1, top - d + 1):
                acc = 0
                for g1 in range(1, diag + 1):
                    k = diag - g1
                    tail = prev_tails.get((diag + 1, q, g1 + 1), 0)
                    if not as_2143:
                        val = cur.get((k, q - 1, g1), 0) + tail
                    elif k == 0:
                        val = int(d == 1 and q == 1) + cur.get((0, q - 1, g1), 0) + tail
                    else:
                        # s * X: coefficient d is coefficient d - 1 plus X's
                        tail -= prev_tails.get((diag, q, g1 + 1), 0)
                        val = prev.get((k, q, g1), 0) + cur[(k - 1, q, g1)] + tail
                    cur[(k, q, g1)] = val
                    if g1 >= 2:
                        acc += val
                    tails[(diag, q, g1)] = acc
        prev, prev_tails = cur, tails
    return prev[(0, root, root)]


# ---------------------------------------------------------------------------
# explicit paths: the desk-scale oracle for the series recursion


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
    start, end = TreeLabel(*start), TreeLabel(*end)
    if end not in successors(start, pattern):
        raise ValueError(f"{start} -> {end} is not a legal {pattern} step")
    return _records(start, end, _require_tree_pattern(pattern))


def signature_of(points: Iterable[tuple[int, int, int]], pattern: Pattern) -> tuple[int, ...]:
    """Starting x-coordinate, then the x-coordinates after recorded steps.

    Raises ``ValueError`` for an empty path or an illegal step.
    """
    pts = [TreeLabel(*p) for p in points]
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
    first = TreeLabel(*start)
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
            for child in successors(here, pattern):
                if _records(here, child, rule_2143):
                    grown[(child, sig + (child.x,))] += count
                else:
                    grown[(child, sig)] += count
        level = grown
    return profile
