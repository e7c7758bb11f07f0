"""Ground-truth counting: exhaustive search, and the closed forms of
:mod:`sigperm.formulas`, imported here for the checks that hold the scan
against them.

Everything here is independent of the generating-tree and generating-function
machinery, so the three counting routes can be checked against each other.
All counts are exact Python integers.

Two brute routes count avoiders.  :func:`avoider_counts` scans every word of
``B_n`` whole with the containment kernel, and :func:`scan_rows` gives that
scan's rows for every size up to ``N`` and several patterns at once.  The
scan fixes the first image per block, and per ordering of the other
absolute values steps through the sign vectors in reflected binary Gray
order, so consecutive words differ in one sign and its mirror, changed in
place in one list.
:func:`avoider_rows` grows the avoiders depth-first and checks each new word
only through its new entries: one ``core.avoiding_insertions`` sweep tries
every cut of the new pair.  ``gentree`` grows its trees with that same
kernel, so ``verify`` keeps the whole-word scan as its independent check of
the tree route.

Each route cuts its work into blocks, and ``_run_blocks`` alone decides
where they run: in one pool of forked child processes (``_ForkPool``) when
``workers > 1`` and there are two blocks or more, else in this process.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .core import (
    Pattern,
    _negative_halves,
    avoiding_insertions,
    find_occurrence_positions,
)
from .formulas import catalan, classical_1234_formula, egge_formula

__all__ = [
    "avoider_counts",
    "scan_rows",
    "avoider_rows",
    "type_d_avoiders",
    "classical_avoiders",
    "usable_cpus",
]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_row(n: int, pattern_values: tuple[int, ...], first: int) -> list[int]:
    """Avoider counts by positive-entry statistic over one enumeration block,
    the words of size ``n`` whose negative half starts with the image ``first``.

    Per ordering of the other absolute values, the full image sequence is
    built once, as a list with every tail sign ``+``, and the ``2^(n-1)``
    tail sign vectors are walked in reflected binary Gray order: step ``g``
    flips tail entry ``t = ctz(g)``, which swaps index ``1 + t`` with its
    mirror ``2n - 2 - t``.  After step ``g`` the negative tail entries are
    the ones of the Gray code ``g ^ (g >> 1)``, so the statistic j (the
    negative entries of the negative half) is the same for every ordering
    and computed once per block.  Each word is checked by one kernel call on
    that same list.
    """
    pattern = Pattern(pattern_values)
    rest = [a for a in range(1, n + 1) if a != abs(first)]
    head_j = int(first < 0)
    steps = []
    for g in range(1, 1 << len(rest)):
        i = (g & -g).bit_length()  # 1 + ctz(g)
        steps.append((i, 2 * n - 1 - i, head_j + bin(g ^ g >> 1).count("1")))
    counts = [0] * (n + 1)
    for tail in itertools.permutations(rest):
        seq = [first, *tail, *[-a for a in reversed(tail)], -first]
        if find_occurrence_positions(seq, pattern) is None:
            counts[head_j] += 1
        for i, mirror, j in steps:
            seq[i], seq[mirror] = seq[mirror], seq[i]
            if find_occurrence_positions(seq, pattern) is None:
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


class _ForkPool:
    """A pool of forked child processes that runs blocks in any order and
    yields their results in block order: ``_run_blocks``' pool wherever the
    platform has ``os.fork``.

    ``map`` forks ``max_workers`` children, which inherit ``fn`` and the
    blocks, so nothing is pickled on the way in.  The blocks are cut into
    at most ``select.PIPE_BUF // 4`` chunks of consecutive blocks (one block
    each below that many blocks), and the index of each chunk's first
    block, 4 bytes, is written to one shared pipe before the first fork:
    that much fits in an empty pipe, so the write never blocks.  Each child
    reads the next index until the pipe is empty, so the chunks go to
    whichever child is free.  A child sends each block's result, or the
    exception it raised, pickled behind an 8-byte length down a pipe of its
    own, and leaves by ``os._exit``.  The parent reads those pipes under
    ``select`` and raises a block's exception where its result would be,
    and a ``RuntimeError`` when a child exits before its blocks are done.

    ``shutdown(cancel_futures=True)``, and leaving the ``with`` block by an
    exception, kill the children; leaving it either way reaps them all.
    """

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max_workers
        # read end of each live child's pipe -> (pid, bytes read but not yet unpickled)
        self._children: dict[int, tuple[int, bytearray]] = {}

    def __enter__(self) -> "_ForkPool":
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        self.shutdown(cancel_futures=exc_type is not None)
        return False

    def map(self, fn, *iterables) -> Iterator:
        # loaded by the parent before the first fork, so no child imports them
        import pickle  # noqa: F401
        import select

        blocks = list(zip(*iterables))
        chunk = max(1, -(-len(blocks) // (select.PIPE_BUF // 4)))
        tasks, feed = os.pipe()
        try:
            os.write(feed, b"".join(k.to_bytes(4, "little") for k in range(0, len(blocks), chunk)))
            os.close(feed)
            for _ in range(self._max_workers):
                reader, writer = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        os.close(reader)
                        for sibling in self._children:
                            os.close(sibling)
                        _serve(fn, blocks, chunk, tasks, writer)  # never returns
                finally:
                    os.close(writer)
                self._children[reader] = pid, bytearray()
        finally:
            os.close(tasks)
        return self._results(len(blocks))

    def _results(self, count: int) -> Iterator:
        import select

        done: dict[int, tuple[bool, object]] = {}
        for i in range(count):
            while i not in done:
                if not self._children:
                    raise RuntimeError(f"no pool worker is left to run block {i}")
                ready, _, _ = select.select(list(self._children), [], [])
                for reader in ready:
                    self._receive(reader, done)
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value

    def _receive(self, reader: int, done: dict[int, tuple[bool, object]]) -> None:
        """Read what one child sent; at its end of file, reap it."""
        import pickle

        pid, buffer = self._children[reader]
        data = os.read(reader, 1 << 16)
        if not data:
            del self._children[reader]
            os.close(reader)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise RuntimeError(f"a pool worker exited with code {code}")
            return
        buffer += data
        # fewer than 8 bytes read as a length still exceed what is buffered
        while len(buffer) >= 8 + (size := int.from_bytes(buffer[:8], "little")):
            i, ok, value = pickle.loads(buffer[8 : 8 + size])
            del buffer[: 8 + size]
            done[i] = ok, value

    def shutdown(self, *, cancel_futures: bool = False) -> None:
        """Close the pipes and reap every child, killing each first with
        ``cancel_futures``."""
        while self._children:
            reader, (pid, _) = self._children.popitem()
            os.close(reader)
            if cancel_futures:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, blocks: list[tuple], chunk: int, tasks: int, out: int) -> None:
    """A forked child's whole life: run the chunks read from ``tasks`` and
    send each block's ``(index, ok, result or exception)`` down ``out``.
    An exception that cannot be pickled is sent as a ``RuntimeError`` with
    its repr.  Leaves by ``os._exit``, so the parent's stdio buffers are
    never flushed here and its exit hooks never run."""
    import pickle

    code = 1
    try:
        while record := os.read(tasks, 4):
            start = int.from_bytes(record, "little")
            for i in range(start, min(start + chunk, len(blocks))):
                try:
                    data = pickle.dumps((i, True, fn(*blocks[i])))
                except BaseException as exc:
                    try:
                        data = pickle.dumps((i, False, exc))
                    except Exception:
                        data = pickle.dumps((i, False, RuntimeError(repr(exc))))
                data = len(data).to_bytes(8, "little") + data
                while data:
                    data = data[os.write(out, data) :]
        code = 0
    finally:
        os._exit(code)


# The pool class ``_run_blocks`` starts: ``_ForkPool`` where the platform
# has ``os.fork``, else concurrent.futures' ``ProcessPoolExecutor``, imported
# by the first pool started.  The name stays because tests and perfbench's
# tracer bind stand-ins to it.  A stand-in is ``cls(max_workers=...)``, a
# context manager with ``map(fn, *iterables)``, and may offer
# ``shutdown(cancel_futures=True)``.
ProcessPoolExecutor = _ForkPool if hasattr(os, "fork") else None


@contextmanager
def _run_blocks(fn, blocks: list[tuple], workers: int | None) -> Iterator[Iterator]:
    """Within the ``with`` block, the results ``fn(*block)`` of ``blocks`` in
    order.  This is the only place a pool of processes starts.

    With ``workers > 1`` and at least two blocks, a pool of
    ``min(workers, len(blocks), usable_cpus())`` processes
    (``ProcessPoolExecutor``) starts on every block on entry, so the caller
    may work inside the block while the pool does; leaving the block waits
    for the workers, and leaving it by an exception first stops them
    (kills the forked children, or cancels the blocks not yet started).
    Otherwise the blocks run in this process, each when its result is read.
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
    full: tuple[int, ...], j: int, pattern: Pattern, mirror: Pattern | None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The children of an avoider that still avoid ``pattern``, with their
    statistic.

    ``full`` is the avoider's image sequence, of size ``m``.  A child puts
    ``v = m + 1`` or ``-(m + 1)`` at index ``cut`` of the negative half and
    ``-v`` at the mirror index ``2m + 1 - cut``; every occurrence in it uses
    one of the two, since ``full`` avoids ``pattern``.  One
    :func:`~sigperm.core.avoiding_insertions` sweep per sign keeps the
    cuts with no occurrence through ``v``.  An occurrence through ``-v``
    reflects to one of the reverse complement through ``v``, so for a
    pattern that is not its own reverse complement, ``mirror`` holds that
    reverse complement and a second sweep keeps only the cuts it accepts
    too; with ``mirror`` ``None`` the first sweep decides.
    """
    n = len(full) // 2 + 1
    for v, child_j in ((n, j), (-n, j + 1)):
        accepted = avoiding_insertions(full, v, pattern)
        if mirror is not None:
            cuts = {cut for cut, _ in avoiding_insertions(full, v, mirror)}
            accepted = [(cut, child) for cut, child in accepted if cut in cuts]
        for _, child in accepted:
            yield child, child_j


def _mirror(pattern: Pattern) -> Pattern | None:
    """The reverse complement of ``pattern``, or ``None`` when that is
    ``pattern`` itself: the ``mirror`` of :func:`_avoiding_children`."""
    mirror = pattern.reverse_complement()
    return None if mirror == pattern else mirror


def _subtree_rows(
    max_n: int, pattern_values: tuple[int, ...], seed: tuple[tuple[int, ...], int]
) -> list[list[int]]:
    """Rows ``n = 0..max_n`` of the avoiders strictly below one avoider
    ``seed = (full image sequence, statistic)``, walked depth-first; the
    rows up to the seed's own size are zero."""
    pattern = Pattern(pattern_values)
    mirror = _mirror(pattern)
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
    ``n - 1``, in one :func:`~sigperm.core.avoiding_insertions` sweep per
    sign, or two for a pattern that is not its own reverse complement).
    The walk runs breadth-first down to the seed size ``max_n // 2``, and
    the subtree below each avoider of that size is one ``_run_blocks``
    block; the blocks' rows are summed, so the result does not depend on
    ``workers``.  Raises ``ValueError`` for ``max_n < 0``.

    >>> avoider_rows(3, Pattern.parse("2143"))
    ((1,), (1, 1), (2, 4, 1), (6, 17, 9, 1))
    """
    if max_n < 0:
        raise ValueError("size must be nonnegative")
    mirror = _mirror(pattern)
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

