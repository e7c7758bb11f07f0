"""Brute-force counts and the closed-form evaluators."""

import itertools
import os
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest

import sigperm.cli
import sigperm.formulas
import sigperm.oracle
from sigperm.core import Pattern, find_occurrence_positions, signed_permutations
from sigperm.oracle import (
    _avoider_row,
    _count_row,
    avoider_counts,
    avoider_rows,
    catalan,
    classical_1234_formula,
    classical_avoiders,
    egge_formula,
    scan_rows,
    type_d_avoiders,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")


def scan_3(**kwargs):
    return avoider_counts(3, P2143, **kwargs)


def walk_6(**kwargs):
    return avoider_rows(6, P2143, **kwargs)


def walk_2_of_12(**kwargs):
    return avoider_rows(2, Pattern.parse("12"), **kwargs)


class TestExactArithmetic:
    def test_catalan(self):
        assert [catalan(j) for j in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_catalan_recurrence(self):
        # C_{m+1} = sum C_i C_{m-i}, an independent route to the same values
        cats = [catalan(j) for j in range(12)]
        for m in range(11):
            assert cats[m + 1] == sum(cats[i] * cats[m - i] for i in range(m + 1))

    def test_inexact_division_raises(self, monkeypatch):
        # the exact-division checks must hold under python -O too
        monkeypatch.setattr(sigperm.formulas, "comb", lambda a, b: 1)
        with pytest.raises(ArithmeticError):
            catalan(2)
        with pytest.raises(ArithmeticError):
            classical_1234_formula(2)

    def test_egge_values(self):
        assert [egge_formula(n) for n in range(7)] == [1, 2, 7, 33, 183, 1118, 7281]

    def test_classical_formula_values(self):
        assert [classical_1234_formula(n) for n in range(1, 7)] == [
            1,
            2,
            6,
            23,
            103,
            513,
        ]

    def test_classical_formula_divides_exactly_up_to_30(self):
        for n in range(31):
            classical_1234_formula(n)  # the internal divmod asserts exactness


class TestBruteForce:
    def test_row_n2(self):
        # all eight size-2 elements; only the identity's embedding is 1234
        assert avoider_counts(2, P1234) == (2, 4, 1)
        assert avoider_counts(2, P2143) == (2, 4, 1)
        assert sum(avoider_counts(2, P1234)) == 7

    def test_full_statistic_slice(self):
        for n in range(6):
            assert avoider_counts(n, P1234)[n] == 1
            assert avoider_counts(n, P2143)[n] == 1

    def test_size_one(self):
        assert avoider_counts(1, P2143)[0] == 1
        assert sum(avoider_counts(1, P2143)) == 2

    def test_zero_slice_is_classical(self):
        for pat in (P1234, P2143, Pattern.parse("12345")):
            for n in range(6):
                assert avoider_counts(n, pat)[0] == classical_avoiders(n, pat)

    def test_classical_1234_sequence(self):
        assert [classical_avoiders(n, P1234) for n in range(1, 7)] == [
            1,
            2,
            6,
            23,
            103,
            513,
        ]

    def test_totals_match_egge(self):
        for n in range(5):
            assert sum(avoider_counts(n, P1234)) == egge_formula(n)


class TestFlatEnumeration:
    """A pattern longer than the 2n entries of a word is avoided by every
    word, so each count is the size of its slice of the group."""

    LONG = Pattern.parse("123456789").values

    @staticmethod
    def _binomial(m, i):
        return comb(m, i) if i >= 0 else 0

    @pytest.mark.parametrize("n", range(5))
    def test_whole_row(self, n):
        assert _avoider_row(n, self.LONG) == tuple(
            comb(n, j) * factorial(n) for j in range(n + 1)
        )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_blocks_sum_to_the_row(self, n):
        blocks = []
        for first in (v for v in range(-n, n + 1) if v):
            block = _count_row(n, self.LONG, first)
            assert block == [
                self._binomial(n - 1, j - (first < 0)) * factorial(n - 1)
                for j in range(n + 1)
            ], first
            blocks.append(block)
        assert tuple(sum(col) for col in zip(*blocks)) == _avoider_row(n, self.LONG)


class TestGrayWalk:
    """``_count_row`` walks each block's sign vectors in Gray order on one
    list; these tests hold it to the words and statistics of a plain
    enumeration of the same block, which a long pattern cannot tell apart."""

    @staticmethod
    def _block(n, first):
        return [w for w in signed_permutations(n) if w.neg_images[0] == first]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_each_word_of_the_block_checked_once(self, monkeypatch, n):
        for first in (v for v in range(-n, n + 1) if v):
            seen = []

            def spy(seq, pattern):
                seen.append(tuple(seq))
                return find_occurrence_positions(seq, pattern)

            monkeypatch.setattr(sigperm.oracle, "find_occurrence_positions", spy)
            _count_row(n, P2143.values, first)
            expected = [w.full_images() for w in self._block(n, first)]
            assert sorted(seen) == sorted(expected), first

    @pytest.mark.parametrize("pattern", ["1234", "2143", "132", "12345"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_match_a_per_word_reference(self, pattern, n):
        p = Pattern.parse(pattern)
        for first in (v for v in range(-n, n + 1) if v):
            expected = [0] * (n + 1)
            for w in self._block(n, first):
                if find_occurrence_positions(w.full_images(), p) is None:
                    expected[sum(v < 0 for v in w.neg_images)] += 1
            assert _count_row(n, p.values, first) == expected, first


class TestTypeD:
    def test_d2(self):
        assert type_d_avoiders(2, P1234) == 3

    def test_slice_identity(self):
        for n in range(5):
            for pat in (P1234, P2143):
                row = avoider_counts(n, pat)
                sliced = sum(row[j] for j in range(n + 1) if (n - j) % 2 == 0)
                assert type_d_avoiders(n, pat) == sliced

    def test_b0(self):
        assert type_d_avoiders(0, P1234) == 1


class RecordingPool:
    """A stand-in executor: records its size and the argument tuples of its
    blocks, and runs the blocks inline."""

    pools: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.blocks = []
        self.pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.blocks.extend(zip(*iterables))
        return itertools.starmap(fn, self.blocks)


@pytest.fixture
def recording_pool(monkeypatch):
    """The pools started while the test runs, as ``RecordingPool``s."""
    monkeypatch.setattr(RecordingPool, "pools", [])
    monkeypatch.setattr(sigperm.oracle, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.pools


class TestParallel:
    def test_matches_serial(self):
        serial = avoider_counts(5, P2143)
        parallel = avoider_counts(5, P2143, workers=2)
        assert serial == parallel
        assert avoider_counts(5, P2143, workers=1) == parallel
        assert avoider_rows(6, P2143, workers=1) == avoider_rows(6, P2143, workers=2)

    # the scan of size 3 splits into 2n = 6 blocks; the walk to size 6 into
    # the 33 avoiders of 2143 at its seed size 6 // 2 = 3, and the walk of 12
    # to size 2 into its one avoider of size 1, which runs without a pool
    @pytest.mark.parametrize(
        "count, workers, cpus, expected",
        [
            pytest.param(scan_3, 1000, 64, [6], id="1000-64-6"),
            pytest.param(scan_3, 1000, 3, [3], id="1000-3-3"),
            pytest.param(scan_3, 2, 64, [2], id="2-64-2"),
            pytest.param(scan_3, 1, 64, [], id="1-64-none"),
            pytest.param(walk_6, 1000, 64, [33], id="walk-1000-64-33"),
            pytest.param(walk_6, 1000, 3, [3], id="walk-1000-3-3"),
            pytest.param(walk_6, 2, 64, [2], id="walk-2-64-2"),
            pytest.param(walk_6, 1, 64, [], id="walk-1-64-none"),
            pytest.param(walk_2_of_12, 2, 64, [], id="walk-one-block-none"),
        ],
    )
    def test_pool_capped_by_blocks_and_cpus(
        self, monkeypatch, recording_pool, count, workers, cpus, expected
    ):
        serial = count()
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: cpus)
        assert count(workers=workers) == serial
        assert [pool.max_workers for pool in recording_pool] == expected

    def test_spawned_workers(self):
        # spawned workers start from a fresh interpreter, so each builds its
        # own compiled searches; nothing compiled crosses the process line.
        # The spawn context leaves its resource tracker running, a child of
        # the process that started the pool, so the pool runs in a fresh
        # interpreter of its own, as the FORK_POOL cases do
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", SPAWN_POOL],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["True", "True"]


SPAWN_POOL = """
import functools, multiprocessing
from concurrent.futures import ProcessPoolExecutor
import sigperm.oracle as oracle
from sigperm import Pattern, avoider_counts, avoider_rows

oracle.ProcessPoolExecutor = functools.partial(
    ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
)
p = Pattern.parse("2143")
print(avoider_counts(4, p, workers=2) == avoider_counts(4, p))
print(avoider_rows(4, p, workers=2) == avoider_rows(4, p))
"""


# runs one case against the default pool in a fresh interpreter, whose only
# children are the pool's (the test process may have others); prints the
# case's outcome, then whether a child of the interpreter is left
FORK_POOL = """
import os, signal, sys
import sigperm.oracle as oracle
from sigperm.cli import main

oracle.usable_cpus = lambda: 2
count_row = oracle._count_row


def run(fn, blocks):
    with oracle._run_blocks(fn, blocks, 2) as results:
        return list(results)


def fail_at_7(i):
    if i == 7:
        raise ValueError("x")
    return i


class Unpicklable(Exception):
    def __init__(self):
        super().__init__(lambda: None)


def unpicklable_at_1(i):
    if i == 1:
        raise Unpicklable
    return i


def die_at_3(*args):
    if args[-1] == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return count_row(*args)


def interrupted():
    # blocks of about 0.2 s each, still running when the caller leaves
    with oracle._run_blocks(count_row, oracle._scan_blocks([7], [(1, 2, 3, 4)]), 2) as results:
        next(results)
        raise KeyboardInterrupt


def crashed_count():
    oracle._count_row = die_at_3
    return main(["count", "--n", "4", "--pattern", "1234", "--threads", "2"])


CASES = {
    # 20 000 indices of 4 bytes would not fit in a 64 KiB pipe
    "in-order": lambda: oracle.ProcessPoolExecutor is oracle._ForkPool
    and run(lambda i: 2 * i, [(i,) for i in range(20_000)]) == [2 * i for i in range(20_000)],
    "raises": lambda: run(fail_at_7, [(i,) for i in range(10)]),
    "unpicklable": lambda: run(unpicklable_at_1, [(i,) for i in range(10)]),
    "killed": lambda: run(die_at_3, oracle._scan_blocks([3], [(2, 1)])),
    "interrupted": interrupted,
    "crashed-count": crashed_count,
}
try:
    print(CASES[sys.argv[1]]())
except BaseException as exc:
    print(type(exc).__name__, exc)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child is left")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the forked pool needs os.fork")
@pytest.mark.parametrize(
    "case, outcome, err",
    [
        ("in-order", "True", []),
        ("raises", "ValueError x", []),
        ("unpicklable", "RuntimeError Unpicklable(<function ", []),
        ("killed", "RuntimeError a pool worker exited with code -9", []),
        ("interrupted", "KeyboardInterrupt ", []),
        (
            "crashed-count",
            "SystemExit 2",
            ["sigperm count: error: RuntimeError: a pool worker exited with code -9"],
        ),
    ],
)
def test_fork_pool(case, outcome, err):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", FORK_POOL, case],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    first, last = result.stdout.splitlines()
    assert first.startswith(outcome)
    assert last == "no child is left"
    assert result.stderr.splitlines() == err


def _scan_rows(max_n, pattern):
    return tuple(avoider_counts(n, pattern) for n in range(max_n + 1))


ALL_UP_TO_4 = [
    "".join(map(str, perm))
    for k in range(1, 5)
    for perm in itertools.permutations(range(1, k + 1))
]


class TestAvoiderRows:
    """The depth-first walk against the whole-word scan, which checks every
    word of B_n whole and never uses the pinned kernel the walk relies on."""

    # 132, 1243, 1342, 2134 and 13524 are not their own reverse complements:
    # a walk that skipped the check through the mirror entry got their rows
    # wrong, the first four already at n = 3
    @pytest.mark.parametrize("pattern", ALL_UP_TO_4)
    def test_matches_scan_for_short_patterns(self, pattern):
        p = Pattern.parse(pattern)
        assert avoider_rows(5, p) == _scan_rows(5, p)

    @pytest.mark.parametrize("pattern", ["12345", "21354", "13524"])
    def test_matches_scan_for_length_five(self, pattern):
        p = Pattern.parse(pattern)
        assert avoider_rows(6, p) == _scan_rows(6, p)

    def test_size_zero(self):
        assert avoider_rows(0, P2143) == ((1,),)

    # pattern 1 leaves no avoider at the seed size, so no block and no pool
    @pytest.mark.parametrize("pattern", ["1", "1243", "21354"])
    @pytest.mark.parametrize("max_n", [0, 1, 2, 5])
    def test_pooled_matches_serial(self, pattern, max_n):
        p = Pattern.parse(pattern)
        assert avoider_rows(max_n, p, workers=2) == avoider_rows(max_n, p)

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            avoider_rows(-1, P2143)
        with pytest.raises(ValueError):
            avoider_rows(-1, P2143, workers=2)


class TestScanRows:
    """One pool for every whole-word scan of ``verify``."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_rows_match_avoider_counts(self, workers):
        patterns = [Pattern.parse(p) for p in ALL_UP_TO_4]
        with scan_rows(5, patterns, workers) as collect:
            rows = collect()
        assert rows == [_scan_rows(5, p) for p in patterns]

    def test_verify_starts_one_pool_over_every_block(self, capsys, recording_pool):
        assert sigperm.cli.main(["verify", "--max-n", "5", "--threads", "2"]) == 0
        (pool,) = recording_pool
        expected = [
            (n, p, first)
            for p in ((1, 2, 3, 4), (2, 1, 4, 3))
            for n in range(2, 6)
            for first in range(-n, n + 1)
            if first
        ]
        # each (n, pattern, first image) exactly once
        assert sorted(pool.blocks) == sorted(expected)
        # largest sizes first
        sizes = [n for n, _, _ in pool.blocks]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize(
        "argv", [["--max-n", "5", "--threads", "1"], ["--max-n", "1", "--threads", "2"]]
    )
    def test_serial_or_tiny_verify_starts_no_pool(self, capsys, recording_pool, argv):
        assert sigperm.cli.main(["verify", *argv]) == 0
        assert recording_pool == []

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            with scan_rows(-1, [P2143], workers=2):
                pass

    def test_caller_failure_beside_a_stand_in_pool_keeps_its_error(self, recording_pool):
        # perfbench's in-process pool, like this stand-in, has only ``map``:
        # the caller's error must come out, not a missing ``shutdown``
        with pytest.raises(RuntimeError, match="caller failed"):
            with scan_rows(3, [P2143], workers=2):
                raise RuntimeError("caller failed")
        assert len(recording_pool) == 1
