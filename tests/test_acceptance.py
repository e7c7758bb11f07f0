"""Acceptance criteria: every counting route, identity, and fixture.

Each test prints one ``criterion NN ... PASS`` line (visible with ``-s`` or
``-rP``); a failure reads as the test failing.  The 12345/21354 sweep at
n = 7 is marked ``slow``, like the suite's other checks past tier-1 sizes,
and runs with ``pytest -m slow``.
"""

import time
from collections import Counter

import pytest

from sigperm.core import Pattern
from sigperm.gentree import build_tree, level_counts, stats, successors
from sigperm.gf import (
    SeriesCache,
    is_recorded,
    path_profile,
    signature_of,
    signatures,
    avoider_count_from_series,
)
from sigperm.oracle import (
    avoider_counts,
    catalan,
    classical_1234_formula,
    classical_avoiders,
    egge_formula,
    type_d_avoiders,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")
BOTH = (P1234, P2143)

# Frozen fixture paths: one per rule, same signature; R = recorded step.
PATH_2143 = [
    (4, 4, 3), (3, 5, 3), (3, 5, 3), (4, 4, 2), (2, 5, 2),
    (2, 4, 2), (2, 4, 2), (2, 3, 1), (2, 4, 1), (2, 4, 1),
]
PATH_2143_FLAGS = "R.RR..RR."
PATH_1234 = [
    (4, 4, 3), (3, 5, 3), (4, 6, 3), (2, 7, 2), (2, 8, 1), (2, 7, 1),
    (2, 7, 1), (2, 5, 1), (2, 4, 1), (2, 4, 1), (2, 5, 1), (2, 4, 1),
]
PATH_1234_FLAGS = "RRRR.....R."
SHARED_SIGNATURE = (4, 3, 4, 2, 2, 2)


def report(number: int, label: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS")


def test_criterion_01_cross_method_equality():
    started = time.perf_counter()
    for pattern in BOTH:
        series = avoider_count_from_series(6, pattern)
        for n in range(7):
            brute = avoider_counts(n, pattern)
            for j in range(n + 1):
                tree = level_counts(pattern, j, n - j)[-1]
                assert brute[j] == tree == series[n][j], (pattern, n, j)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"brute = tree = series for j <= n <= 6, {elapsed:.1f}s")


def test_criterion_02_egge_totals():
    expected = [2, 7, 33, 183, 1118, 7281]
    for n in range(1, 7):
        total = sum(avoider_counts(n, P1234))
        assert total == egge_formula(n) == expected[n - 1], n
    report(2, "totals match the binomial-Catalan sum for n = 1..6")


def test_criterion_03_refined_wilf_equivalence():
    for n in range(7):
        assert avoider_counts(n, P1234) == avoider_counts(n, P2143), n
    report(3, "refined counts agree between 1234 and 2143 for n <= 6")


def test_criterion_04_classical_slice():
    expected = [1, 2, 6, 23, 103, 513]
    for n in range(1, 7):
        value = expected[n - 1]
        assert avoider_counts(n, P1234)[0] == value, n
        assert classical_1234_formula(n) == value, n
        assert classical_avoiders(n, P1234) == value, n
    report(4, "j = 0 slice matches |S_n(1234)| for n = 1..6")


def test_criterion_05_series_equality_grid():
    started = time.perf_counter()
    cache_a, cache_b = SeriesCache(10), SeriesCache(10)
    combos = 0
    for g1 in range(1, 6):
        for gamma in signatures(g1, 4):
            for k in range(6):
                for q in range(1, 6):
                    combos += 1
                    assert cache_a.series(P2143, k, q, gamma) == cache_b.series(
                        P1234, k, q, gamma
                    ), (k, q, gamma)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    report(5, f"series equal on all {combos} grid points, {elapsed:.1f}s")


def test_criterion_06_series_versus_paths():
    started = time.perf_counter()
    checks = 0
    for pattern in BOTH:
        for x in range(1, 4):
            for y in range(x, 5):
                for z in range(1, 4):
                    profile = path_profile(pattern, (x, y, z), 7)
                    cache = SeriesCache(7)
                    for gamma in signatures(x, 7):
                        top = min(5, 7 - len(gamma))
                        if top < 0:
                            continue
                        series = cache.series(pattern, y - x, z, gamma)
                        for d in range(top + 1):
                            assert series[d] == profile.get(
                                (gamma, d), 0
                            ), (pattern, (x, y, z), gamma, d)
                            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    report(6, f"path enumeration matches {checks} series coefficients, {elapsed:.1f}s")


def test_criterion_07_succession_rule_isomorphism():
    # labels read off build_tree; tests/test_gentree.py holds them to ``stats``
    # and ``children``/``stats`` to the rule
    started = time.perf_counter()
    nodes = 0
    for pattern in BOTH:
        for j in range(3):
            level = [build_tree(pattern, j, 5)]
            for _depth in range(5):  # nodes at depth 0..4 get checked
                for node in level:
                    nodes += 1
                    assert Counter(kid.label for kid in node.children) == Counter(
                        successors(node.label, pattern)
                    ), (pattern, j, node.perm)
                level = [kid for node in level for kid in node.children]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    report(7, f"children match the rule on {nodes} nodes, {elapsed:.1f}s")


def test_criterion_08_signature_fixture():
    for points, pattern, flags in (
        (PATH_2143, P2143, PATH_2143_FLAGS),
        (PATH_1234, P1234, PATH_1234_FLAGS),
    ):
        recorded = [is_recorded(a, b, pattern) for a, b in zip(points, points[1:])]
        assert "".join("R" if r else "." for r in recorded) == flags
        assert signature_of(points, pattern) == SHARED_SIGNATURE
    report(8, "both fixture paths validate with signature (4,3,4,2,2,2)")


def test_criterion_09_type_d():
    for n in range(7):
        values = set()
        for pattern in BOTH:
            direct = type_d_avoiders(n, pattern)
            row = avoider_counts(n, pattern)
            sliced = sum(row[j] for j in range(n + 1) if (n - j) % 2 == 0)
            assert direct == sliced, (pattern, n)
            values.add(direct)
        assert len(values) == 1, n
    report(9, "type-D counts agree directly, by slices, and across patterns")


def test_criterion_10_longer_patterns():
    p12345 = Pattern.parse("12345")
    p21354 = Pattern.parse("21354")
    for n in range(6):
        row1 = avoider_counts(n, p12345)
        row2 = avoider_counts(n, p21354)
        assert row1 == row2, n
        assert row1[n] == catalan(n), n
    report(10, "12345/21354 refined counts agree for n <= 5, full slice Catalan")


@pytest.mark.slow
def test_criterion_10_bench_n7():
    p12345 = Pattern.parse("12345")
    p21354 = Pattern.parse("21354")
    started = time.perf_counter()
    for n in (6, 7):
        assert avoider_counts(n, p12345) == avoider_counts(n, p21354), n
    report(10, f"n <= 7 sweep equal, {time.perf_counter() - started:.0f}s")


def test_criterion_11_statistics_fixtures():
    from sigperm.core import parse

    assert stats(parse("[-6,4,-3,5,2,1]"), P2143) == (3, 5, 2)
    assert stats(parse("[2,-3,4,-5,1,-6]"), P1234) == (3, 7, 3)
    report(11, "figure statistics reproduce exactly")
