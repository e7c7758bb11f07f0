"""Ground-truth counting: exhaustive search and closed-form evaluators.

Everything here is independent of the generating-tree and generating-function
machinery, so the three counting routes can be checked against each other.
All counts are exact Python integers.

Two brute routes count avoiders.  :func:`avoider_counts` scans every word of
``B_n`` whole with the containment kernel, and :func:`scan_rows` gives that
scan's rows for every size up to ``N`` and several patterns at once.
:func:`avoider_rows` grows the avoiders depth-first and checks each new word
only through its new entries with the pinned kernel,
``core.find_occurrence_through``; ``gentree`` grows its trees with that same
kernel, so ``verify`` keeps the whole-word scan as its independent check of
the tree route.

Each route cuts its work into blocks, and ``_run_blocks`` alone decides
where they run: in one process pool when ``workers > 1`` and there are two
blocks or more, else in this process.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from functools import lru_cache
from math import comb
from operator import mul
from typing import Callable, Iterator, Sequence

from .core import (
    Pattern,
    _negative_halves,
    find_occurrence_positions,
    find_occurrence_through,
)

__all__ = [
    "catalan",
    "egge_formula",
    "classical_1234_formula",
    "avoider_counts",
    "scan_rows",
    "avoider_rows",
    "type_d_avoiders",
    "classical_avoiders",
    "usable_cpus",
]


# concurrent.futures.ProcessPoolExecutor, bound by the first pool started: the
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


def _count_row(n: int, pattern_values: tuple[int, ...], first: int) -> list[int]:
    """Avoider counts by positive-entry statistic over one enumeration block,
    the words of size ``n`` whose negative half starts with the image ``first``.

    Each word is built flat: an ordering of the other absolute values,
    mirrored into the full image sequence, times one of the precomputed sign
    vectors, whose statistic j is precomputed with it.
    """
    pattern = Pattern(pattern_values)
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


def _scan_blocks(
    sizes: Sequence[int], patterns: Sequence[tuple[int, ...]]
) -> list[tuple[int, tuple[int, ...], int]]:
    """The ``_count_row`` arguments ``(n, pattern values, first image)`` of
    the whole-word scans of ``sizes`` and ``patterns``, in that order."""
    return [
        (n, values, first)
        for n in sizes
        for values in patterns
        for first in range(-n, n + 1)
        if first
    ]


@lru_cache(maxsize=None)
def _avoider_row(n: int, pattern_values: tuple[int, ...]) -> tuple[int, ...]:
    blocks = itertools.starmap(_count_row, _scan_blocks([n], [pattern_values]))
    return tuple(map(sum, zip(*blocks))) if n else (1,)


@contextmanager
def _run_blocks(fn, blocks: list[tuple], workers: int | None) -> Iterator[Iterator]:
    """Within the ``with`` block, the results ``fn(*block)`` of ``blocks`` in
    order.  This is the only place a process pool starts.

    With ``workers > 1`` and at least two blocks, every block is submitted on
    entry to a pool of ``min(workers, len(blocks), usable_cpus())``
    processes, so the caller may work inside the block while the pool does;
    leaving the block waits for the workers, and leaving it by an exception
    first cancels the blocks not yet started.  Otherwise the blocks run in
    this process, each when its result is read.
    """
    if workers is None or workers < 2 or len(blocks) < 2:
        yield itertools.starmap(fn, blocks)
        return
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    pool_size = min(workers, len(blocks), usable_cpus())
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        try:
            yield pool.map(fn, *zip(*blocks))
        except BaseException:
            if hasattr(pool, "shutdown"):  # stand-in pools offer only ``map``
                pool.shutdown(cancel_futures=True)
            raise


def avoider_counts(
    n: int, pattern: Pattern, workers: int | None = None
) -> tuple[int, ...]:
    """Exhaustive avoider counts of size ``n``, indexed by the statistic j.

    Entry ``j`` is the number of signed permutations of size ``n`` avoiding
    ``pattern`` with exactly ``j`` positive indices mapped to positive images.
    The scan sums the ``2n`` blocks fixing the first image, in any order, so
    the result is the same for every ``workers``.  With ``workers > 1`` and
    ``n >= 2`` the blocks go to ``_run_blocks`` (uncached); otherwise the
    row is computed once per process and cached.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if workers is None or workers < 2 or n < 2:
        return _avoider_row(n, pattern.values)
    with _run_blocks(_count_row, _scan_blocks([n], [pattern.values]), workers) as results:
        return tuple(map(sum, zip(*results)))


@contextmanager
def scan_rows(
    max_n: int, patterns: Sequence[Pattern], workers: int | None = None
) -> Iterator[Callable[[], list[tuple[tuple[int, ...], ...]]]]:
    """The whole-word scan's rows ``n = 0..max_n`` of several patterns.

    Used as ``with scan_rows(max_n, patterns, workers) as collect:``;
    ``collect()`` returns one entry per pattern, the rows
    ``(avoider_counts(n, p) for n = 0..max_n)``.  The blocks of every
    (pattern, size ``n >= 2``, first image), largest sizes first, go to one
    ``_run_blocks`` call, so with a pool the caller's work inside the
    ``with`` block runs while the pool scans; ``collect`` reads the blocks
    and sums them per size.  Raises ``ValueError`` for ``max_n < 0``.

    >>> with scan_rows(3, [Pattern.parse("2143")]) as collect:
    ...     collect()
    [((1,), (1, 1), (2, 4, 1), (6, 17, 9, 1))]
    """
    if max_n < 0:
        raise ValueError("size must be nonnegative")
    values = list(dict.fromkeys(p.values for p in patterns))
    blocks = _scan_blocks(range(max_n, 1, -1), values)
    with _run_blocks(_count_row, blocks, workers) as results:

        def collect() -> list[tuple[tuple[int, ...], ...]]:
            sums: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
            for (n, v, _), counts in zip(blocks, results):
                so_far = sums.get((n, v), (0,) * (n + 1))
                sums[n, v] = tuple(map(sum, zip(so_far, counts)))
            return [
                tuple(
                    sums.get((n, p.values)) or _avoider_row(n, p.values)
                    for n in range(max_n + 1)
                )
                for p in patterns
            ]

        yield collect


def _avoiding_children(
    full: tuple[int, ...], j: int, pattern: Pattern, mirror: bool
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The children of an avoider that still avoid ``pattern``, with their
    statistic.

    ``full`` is the avoider's image sequence, of size ``m``.  A child puts
    ``v = m + 1`` or ``-(m + 1)`` at index ``cut`` of the negative half and
    ``-v`` at the mirror index ``2m + 1 - cut``; every occurrence in it uses
    one of the two, since ``full`` avoids ``pattern``.  An occurrence through
    ``-v`` reflects to one of the reverse complement through ``v``, so with
    ``mirror`` unset (``pattern`` is its own reverse complement) the check
    through ``v`` alone decides.
    """
    m = len(full) // 2
    n = m + 1
    for cut in range(n):
        left, middle, right = full[:cut], full[cut : 2 * m - cut], full[2 * m - cut :]
        for v, child_j in ((n, j), (-n, j + 1)):
            child = left + (v,) + middle + (-v,) + right
            if find_occurrence_through(child, pattern, cut) is None and (
                not mirror
                or find_occurrence_through(child, pattern, 2 * n - 1 - cut) is None
            ):
                yield child, child_j


def _subtree_rows(
    max_n: int, pattern_values: tuple[int, ...], seed: tuple[tuple[int, ...], int]
) -> list[list[int]]:
    """Rows ``n = 0..max_n`` of the avoiders strictly below one avoider
    ``seed = (full image sequence, statistic)``, walked depth-first; the
    rows up to the seed's own size are zero."""
    pattern = Pattern(pattern_values)
    mirror = pattern.reverse_complement() != pattern
    rows = [[0] * (n + 1) for n in range(max_n + 1)]

    def visit(full: tuple[int, ...], j: int) -> None:
        n = len(full) // 2 + 1
        row = rows[n]
        for child, child_j in _avoiding_children(full, j, pattern, mirror):
            row[child_j] += 1
            if n < max_n:
                visit(child, child_j)

    full, j = seed
    if len(full) // 2 < max_n:
        visit(full, j)
    return rows


def avoider_rows(
    max_n: int, pattern: Pattern, workers: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The rows ``(|B_n^0|, ..., |B_n^n|)`` of ``pattern`` for ``n = 0..max_n``.

    Avoidance is hereditary: deleting the pair ``±n`` from an avoider of
    size ``n`` leaves an avoider of size ``n - 1``.  So one depth-first walk
    from the empty word reaches every avoider, each once, and checks each
    child only through its new entries (``2n`` children per avoider of size
    ``n - 1``, one or two pinned checks each).  The walk runs breadth-first
    down to the seed size ``max_n // 2``, and the subtree below each avoider
    of that size is one ``_run_blocks`` block; the blocks' rows are summed,
    so the result does not depend on ``workers``.  Raises ``ValueError`` for
    ``max_n < 0``.

    >>> avoider_rows(3, Pattern.parse("2143"))
    ((1,), (1, 1), (2, 4, 1), (6, 17, 9, 1))
    """
    if max_n < 0:
        raise ValueError("size must be nonnegative")
    mirror = pattern.reverse_complement() != pattern
    rows = [[0] * (n + 1) for n in range(max_n + 1)]
    rows[0][0] = 1
    seeds = [((), 0)]
    for n in range(1, max_n // 2 + 1):
        seeds = [c for seed in seeds for c in _avoiding_children(*seed, pattern, mirror)]
        for _, j in seeds:
            rows[n][j] += 1
    blocks = [(max_n, pattern.values, seed) for seed in seeds]
    with _run_blocks(_subtree_rows, blocks, workers) as results:
        for block in results:
            for row, block_row in zip(rows, block):
                row[:] = map(sum, zip(row, block_row))
    return tuple(map(tuple, rows))


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

