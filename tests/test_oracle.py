"""Brute-force counts and the closed-form evaluators."""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from math import comb, factorial

import pytest

import sigperm.oracle
from sigperm.core import Pattern
from sigperm.oracle import (
    _count_row,
    avoider_counts,
    catalan,
    classical_1234_formula,
    classical_avoiders,
    egge_formula,
    type_d_avoiders,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")


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
        monkeypatch.setattr(sigperm.oracle, "comb", lambda a, b: 1)
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
        assert _count_row(n, self.LONG, None) == [
            comb(n, j) * factorial(n) for j in range(n + 1)
        ]

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
        assert [sum(col) for col in zip(*blocks)] == _count_row(n, self.LONG, None)


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


class TestParallel:
    def test_matches_serial(self):
        serial = avoider_counts(5, P2143)
        parallel = avoider_counts(5, P2143, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(1000, 64, 6), (1000, 3, 3), (2, 64, 2)],
    )
    def test_pool_capped_by_blocks_and_cpus(self, monkeypatch, workers, cpus, expected):
        # a stand-in executor: records the pool size, runs the blocks inline
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sigperm.oracle, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: cpus)
        assert avoider_counts(3, P2143, workers=workers) == avoider_counts(3, P2143)
        assert sizes == [expected]


    def test_spawned_workers(self, monkeypatch):
        # spawned workers start from a fresh interpreter, so each builds its
        # own compiled searches; nothing compiled crosses the process line
        spawn = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(sigperm.oracle, "ProcessPoolExecutor", spawn)
        assert avoider_counts(4, P2143, workers=2) == avoider_counts(4, P2143)
