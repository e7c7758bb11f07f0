"""Ground-truth counting: exhaustive search and closed-form evaluators.

Everything here is independent of the generating-tree and generating-function
machinery, so the three counting routes can be checked against each other.
All counts are exact Python integers.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from math import comb
from operator import mul

from .core import Pattern, find_occurrence_positions, _negative_halves

__all__ = [
    "catalan",
    "egge_formula",
    "classical_1234_formula",
    "avoider_counts",
    "type_d_avoiders",
    "classical_avoiders",
    "usable_cpus",
]


# concurrent.futures.ProcessPoolExecutor, bound by the first pooled scan: the
# pool machinery (multiprocessing, logging, socket) costs start-up time that no
# serial command needs.  Tests and perfbench's tracer may bind a stand-in first.
ProcessPoolExecutor = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def catalan(j: int) -> int:
    """The j-th Catalan number ``C(2j, j) / (j + 1)``, exactly."""
    if j < 0:
        raise ValueError("catalan argument must be nonnegative")
    num = comb(2 * j, j)
    q, r = divmod(num, j + 1)
    if r:
        raise ArithmeticError(f"C({2 * j}, {j}) is not divisible by {j + 1}")
    return q


def egge_formula(n: int) -> int:
    """Egge's count of 1234-avoiding signed permutations of size ``n``.

    >>> [egge_formula(n) for n in range(7)]
    [1, 2, 7, 33, 183, 1118, 7281]
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    return sum(comb(n, j) ** 2 * catalan(j) for j in range(n + 1))


def classical_1234_formula(n: int) -> int:
    """The closed form for ``|S_n(1234)|``; the integer division is exact.

    >>> [classical_1234_formula(n) for n in range(1, 7)]
    [1, 2, 6, 23, 103, 513]
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    total = sum(
        comb(2 * j, j) * comb(n + 1, j + 1) * comb(n + 2, j + 1)
        for j in range(n + 1)
    )
    q, r = divmod(total, (n + 1) ** 2 * (n + 2))
    if r:
        raise ArithmeticError(f"closed form for n={n} does not divide exactly")
    return q


def _count_row(n: int, pattern_values: tuple[int, ...], first: int | None) -> list[int]:
    """Avoider counts by positive-entry statistic over one enumeration block.

    With ``first`` set, only negative halves starting with that image are
    scanned (the parallel partition); with ``first=None`` the whole group is.
    Each word is built flat: an ordering of the absolute values, mirrored
    into the full image sequence, times one of the precomputed sign
    vectors, whose statistic j is precomputed with it.
    """
    pattern = Pattern(pattern_values)
    if first is None:
        head, head_signs, rest = (), (), range(1, n + 1)
    else:
        head, head_signs = (abs(first),), (1 if first > 0 else -1,)
        rest = [a for a in range(1, n + 1) if a != abs(first)]
    sign_vectors = []
    for tail in itertools.product((1, -1), repeat=len(rest)):
        signs = head_signs + tail
        mirrored = signs + tuple(-s for s in reversed(signs))
        sign_vectors.append((mirrored, signs.count(-1)))
    counts = [0] * (n + 1)
    for tail in itertools.permutations(rest):
        perm = head + tail
        images = perm + perm[::-1]
        for mirrored, j in sign_vectors:
            if find_occurrence_positions(tuple(map(mul, images, mirrored)), pattern) is None:
                counts[j] += 1
    return counts


@lru_cache(maxsize=None)
def _avoider_row(n: int, pattern_values: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_count_row(n, pattern_values, None))


def avoider_counts(
    n: int, pattern: Pattern, workers: int | None = None
) -> tuple[int, ...]:
    """Exhaustive avoider counts of size ``n``, indexed by the statistic j.

    Entry ``j`` is the number of signed permutations of size ``n`` avoiding
    ``pattern`` with exactly ``j`` positive indices mapped to positive images.
    With ``workers > 1`` the ``2n`` blocks fixing the first image are counted
    in separate processes and summed (order-independent, so the result is
    identical to the serial scan).  The pool holds at most
    ``min(workers, 2n, usable_cpus())`` processes.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if workers is not None and workers > 1 and n >= 2:
        firsts = [v for v in range(-n, n + 1) if v != 0]
        counts = [0] * (n + 1)
        pool_size = min(workers, len(firsts), usable_cpus())
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            for block in pool.map(
                _count_row,
                itertools.repeat(n),
                itertools.repeat(pattern.values),
                firsts,
            ):
                for j, c in enumerate(block):
                    counts[j] += c
        return tuple(counts)
    return _avoider_row(n, pattern.values)


def type_d_avoiders(n: int, pattern: Pattern) -> int:
    """Avoiders inside the type-D subgroup, counted directly.

    Agrees with summing the statistic-refined counts over ``j`` with
    ``n - j`` even; that identity is checked in the test suite rather than
    assumed here.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    total = 0
    for word in _negative_halves(n):
        j = sum(1 for v in word if v < 0)
        if (n - j) % 2 != 0:
            continue
        full = word + tuple(-v for v in reversed(word))
        if find_occurrence_positions(full, pattern) is None:
            total += 1
    return total


@lru_cache(maxsize=None)
def _classical_row(n: int, pattern_values: tuple[int, ...]) -> int:
    pattern = Pattern(pattern_values)
    total = 0
    for word in itertools.permutations(range(1, n + 1)):
        if find_occurrence_positions(word, pattern) is None:
            total += 1
    return total


def classical_avoiders(n: int, pattern: Pattern) -> int:
    """``|S_n(pattern)|`` by direct scan of the symmetric group.

    Independent of the signed enumeration; the j = 0 slice of
    :func:`avoider_counts` must reproduce it.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    return _classical_row(n, pattern.values)

