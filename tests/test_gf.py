"""Signatures, lattice paths, and the path series."""

import sys
from collections import Counter
from itertools import pairwise
from math import comb

import pytest

from sigperm.core import Pattern
from sigperm.gentree import TreeLabel, level_counts, successors
from sigperm.gf import (
    MAX_SIGNATURE_LENGTH,
    SeriesCache,
    avoider_count_from_series,
    f_series,
    is_recorded,
    path_profile,
    signature_of,
    signatures,
    validate_signature,
)
from sigperm.oracle import avoider_counts, classical_1234_formula, egge_formula

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")
BOTH = (P1234, P2143)

# Example fixture: two ten- and twelve-point paths, one per rule, realizing
# the same signature.  Flags: R = recorded step, "." = unrecorded.
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


def per_signature_count(n, j, pattern):
    """The reference for the summed series: ``|B_n^j|`` as one coefficient
    of ``F`` per signature starting at ``j + 1`` (exponential in ``n``)."""
    r = n - j + 1
    cache = SeriesCache(r)
    return sum(
        cache.series(pattern, 0, j + 1, g)[r - len(g)]
        for g in signatures(j + 1, r)
    )


def enumerated_profile(pattern, start, max_points):
    """The reference for ``path_profile``: every path one at a time, grown
    by one classified step and bucketed by its signature."""
    profile = Counter()

    def extend(points, sig):
        profile[(sig, len(points) - len(sig))] += 1
        if len(points) < max_points:
            here = points[-1]
            for child in successors(here, pattern):
                recorded = is_recorded(here, child, pattern)
                extend(points + (child,), sig + (child.x,) if recorded else sig)

    if max_points >= 1:
        extend((start,), (start[0],))
    return profile


def flags(points, pattern):
    """The steps of a path: R = recorded, "." = unrecorded."""
    return "".join(
        "R" if is_recorded(a, b, pattern) else "." for a, b in pairwise(points)
    )


class TestSignatures:
    def test_validate(self):
        assert validate_signature((4, 3, 4, 2, 2, 2)) == (4, 3, 4, 2, 2, 2)
        assert validate_signature((1, 2)) == (1, 2)
        for bad in [(), (0,), (3, 1), (2, 4), (3, 2, 1)]:
            with pytest.raises(ValueError):
                validate_signature(bad)

    def test_enumeration_start_one(self):
        assert signatures(1, 2) == [(1,), (1, 2)]

    def test_enumeration_single(self):
        assert signatures(3, 1) == [(3,)]

    def test_order_and_bounds(self):
        out = signatures(3, 4)
        assert out == sorted(out, key=lambda g: (len(g), g))
        assert len(set(out)) == len(out)
        for g in out:
            validate_signature(g)
            for i, entry in enumerate(g):
                assert entry <= 3 + i  # entries grow by at most one per step


class TestSeries:
    def test_length_one_signature_is_geometric(self):
        # s^k = 1/(1-t)^k: coefficient d is C(d + k - 1, d), and s^0 = 1
        for pattern in BOTH:
            for k in range(4):
                expected = (
                    tuple(comb(d + k - 1, d) for d in range(7))
                    if k
                    else (1, 0, 0, 0, 0, 0, 0)
                )
                for q in (1, 3):
                    assert f_series(pattern, k, q, (3,), 6) == expected

    def test_hand_computed_base(self):
        # F(0,1,(1,2)) = F(0,0,(1,2)) + F(0,1,(2)) = 0 + 1
        assert f_series(P2143, 0, 1, (1, 2), 5) == (1, 0, 0, 0, 0, 0)
        assert f_series(P1234, 0, 1, (1, 2), 5) == (1, 0, 0, 0, 0, 0)

    def test_rules_give_equal_series(self):
        cache_a, cache_b = SeriesCache(6), SeriesCache(6)
        for g1 in range(1, 4):
            for gamma in signatures(g1, 3):
                for k in range(4):
                    for q in range(1, 4):
                        assert cache_a.series(P2143, k, q, gamma) == cache_b.series(
                            P1234, k, q, gamma
                        )

    def test_repeat_call_returns_the_memoized_tuple(self):
        cache = SeriesCache(6)
        first = cache.series(P1234, 2, 3, [3, 2, 3])
        assert type(first) is tuple and len(first) == 7
        assert cache.series(P1234, 2, 3, (3, 2, 3)) is first

    def test_coefficients_nonnegative(self):
        cache = SeriesCache(8)
        for gamma in signatures(3, 3):
            for k in range(4):
                for q in range(1, 4):
                    series = cache.series(P2143, k, q, gamma)
                    assert all(c >= 0 for c in series)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            f_series(P2143, -1, 1, (2,), 4)
        with pytest.raises(ValueError):
            f_series(P2143, 0, 1, (3, 1), 4)
        with pytest.raises(ValueError):
            f_series(Pattern.parse("321"), 0, 1, (2,), 4)

    def test_signature_length_bounded(self):
        message = "signature has 600 entries, more than the bound 200"
        with pytest.raises(ValueError, match=message):
            f_series(P2143, 0, 1, [2] * 600, 0)
        assert f_series(P2143, 0, 1, [2] * MAX_SIGNATURE_LENGTH, 0) == (1,)

    def test_zero_conventions(self):
        assert f_series(P2143, 2, 0, (3, 2), 4) == (0,) * 5
        assert f_series(P1234, 2, -1, (3,), 4) == (0,) * 5


FAR_N = 40


@pytest.fixture(scope="module")
def far_triangles():
    """The series triangles of both patterns up to ``FAR_N``, built once."""
    return {str(p): avoider_count_from_series(FAR_N, p) for p in BOTH}


class TestCountExtraction:
    def test_full_statistic(self):
        for pattern in BOTH:
            triangle = avoider_count_from_series(4, pattern)
            for n in range(5):
                assert triangle[n][n] == 1

    def test_size_one(self):
        assert avoider_count_from_series(1, P2143)[1][0] == 1

    @pytest.mark.parametrize("pattern", BOTH)
    def test_matches_brute_force(self, pattern):
        triangle = avoider_count_from_series(4, pattern)
        for n in range(5):
            assert triangle[n] == avoider_counts(n, pattern), n

    @pytest.mark.parametrize("pattern", BOTH)
    def test_matches_per_signature_sum(self, pattern):
        triangle = avoider_count_from_series(8, pattern)
        for n in range(9):
            for j in range(n + 1):
                assert triangle[n][j] == per_signature_count(n, j, pattern), (n, j)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_matches_label_dp_row(self, pattern):
        n = 12
        triangle = avoider_count_from_series(n, pattern)
        for j in range(n + 1):
            levels = level_counts(pattern, j, n - j)
            for m in range(j, n + 1):
                assert triangle[m][j] == levels[m - j], (m, j)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_smaller_triangle_is_a_prefix(self, pattern):
        # fewer degrees and layers must not change any row they still reach
        big = avoider_count_from_series(20, pattern)
        for max_n in (0, 1, 7, 12):
            assert avoider_count_from_series(max_n, pattern) == big[: max_n + 1]

    @pytest.mark.parametrize("pattern", BOTH)
    def test_totals_match_egge(self, pattern, far_triangles):
        triangle = far_triangles[str(pattern)]
        assert len(triangle) == FAR_N + 1
        for n, row in enumerate(triangle):
            assert len(row) == n + 1
            assert sum(row) == egge_formula(n), n

    @pytest.mark.parametrize("pattern", BOTH)
    def test_far_classical_slice(self, pattern, far_triangles):
        for n, row in enumerate(far_triangles[str(pattern)]):
            assert row[0] == classical_1234_formula(n), n

    def test_far_triangles_agree(self, far_triangles):
        # the paper's theorem, far past the exhaustive scan's reach
        assert far_triangles["1234"] == far_triangles["2143"]

    @pytest.mark.parametrize("pattern", BOTH)
    def test_size_thirty_at_default_recursion_limit(self, pattern):
        limit = sys.getrecursionlimit()
        assert avoider_count_from_series(30, pattern)[30][0] == classical_1234_formula(30)
        assert sys.getrecursionlimit() == limit

    def test_longer_signatures_contribute_nothing(self):
        # the extraction truncates signature length at n - j + 1: a longer
        # signature would need a path with fewer points than recorded steps,
        # and no path is shorter than its signature
        for pattern in BOTH:
            for _sig, d in path_profile(pattern, (2, 2, 2), 4):
                assert d >= 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="size -1 must be nonnegative"):
            avoider_count_from_series(-1, P2143)
        with pytest.raises(ValueError, match="no generating tree"):
            avoider_count_from_series(3, Pattern.parse("321"))


class TestRecordedSteps:
    def test_2143_fixture_steps(self):
        assert is_recorded(TreeLabel(4, 4, 3), TreeLabel(3, 5, 3), P2143)
        assert not is_recorded(TreeLabel(3, 5, 3), TreeLabel(3, 5, 3), P2143)
        # layer drop: forced through the sites before the first turn
        assert is_recorded(TreeLabel(3, 5, 3), TreeLabel(4, 4, 2), P2143)

    def test_1234_fixture_steps(self):
        assert not is_recorded(TreeLabel(2, 8, 1), TreeLabel(2, 7, 1), P1234)
        assert is_recorded(TreeLabel(2, 4, 1), TreeLabel(2, 5, 1), P1234)

    def test_plain_tuples(self):
        assert is_recorded((4, 4, 3), (3, 5, 3), P2143)
        assert not is_recorded((2, 8, 1), (2, 7, 1), P1234)
        with pytest.raises(ValueError):
            is_recorded((2, 4, 1), (2, 6, 1), P1234)

    def test_illegal_steps_raise(self):
        with pytest.raises(ValueError):
            is_recorded(TreeLabel(2, 4, 2), TreeLabel(2, 2, 1), P2143)
        with pytest.raises(ValueError):
            is_recorded(TreeLabel(2, 2, 1), TreeLabel(2, 2, 2), P2143)
        with pytest.raises(ValueError):
            is_recorded(TreeLabel(2, 4, 1), TreeLabel(2, 6, 1), P1234)

    @staticmethod
    def box_steps(pattern):
        """Every legal step from the labels with x <= 4, y <= 5, z <= 3."""
        for x in range(1, 5):
            for y in range(x, 6):
                for z in range(1, 4):
                    a = TreeLabel(x, y, z)
                    for b in successors(a, pattern):
                        yield a, b

    @pytest.mark.parametrize("pattern", BOTH)
    def test_unrecorded_steps_preserve_x(self, pattern):
        unrecorded = 0
        for a, b in self.box_steps(pattern):
            if not is_recorded(a, b, pattern):
                assert a.x == b.x, (a, b)
                unrecorded += 1
        assert unrecorded > 0

    def test_2143_layer_drops_set_y_from_x(self):
        drops = 0
        for a, b in self.box_steps(P2143):
            if b.z < a.z:
                assert is_recorded(a, b, P2143) and b.y == a.x + 1, (a, b)
                drops += 1
        assert drops > 0


class TestPaths:
    def test_fixture_paths_validate(self):
        assert flags(PATH_2143, P2143) == PATH_2143_FLAGS
        assert signature_of(PATH_2143, P2143) == SHARED_SIGNATURE

        assert flags(PATH_1234, P1234) == PATH_1234_FLAGS
        assert signature_of(PATH_1234, P1234) == SHARED_SIGNATURE

    def test_signature_of_refuses_bad_paths(self):
        assert signature_of([(3, 4, 2)], P2143) == (3,)
        with pytest.raises(ValueError, match="at least one point"):
            signature_of([], P2143)
        with pytest.raises(ValueError, match="not a legal"):
            signature_of([(2, 4, 2), (2, 2, 1)], P2143)

    def test_single_point_path(self):
        for pattern in BOTH:
            assert path_profile(pattern, (3, 4, 2), 1) == {((3,), 0): 1}

    def test_invalid_start(self):
        for start in [(3, 2, 1), (0, 2, 1), (2, 2, 0)]:
            with pytest.raises(ValueError):
                path_profile(P2143, start, 4)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_profile_counts_tree_levels(self, pattern):
        # paths of m points from a tree root are the avoiders at depth m - 1
        for j in range(3):
            profile = path_profile(pattern, (j + 1, j + 1, j + 1), 7)
            levels = level_counts(pattern, j, 6)
            for m in range(1, 8):
                paths = sum(
                    count for (sig, d), count in profile.items() if len(sig) + d == m
                )
                assert paths == levels[m - 1], (j, m)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_profile_matches_path_enumeration(self, pattern):
        # the starts of acceptance criterion 06
        for x in range(1, 4):
            for y in range(x, 5):
                for z in range(1, 4):
                    for max_points in (0, 1, 6):
                        start = (x, y, z)
                        expected = enumerated_profile(pattern, start, max_points)
                        assert path_profile(pattern, start, max_points) == expected, (
                            start,
                            max_points,
                        )

    @pytest.mark.parametrize("pattern", BOTH)
    def test_profile_matches_series_small_start(self, pattern):
        start = (2, 2, 1)
        profile = path_profile(pattern, start, 4)
        cache = SeriesCache(4)
        for g in signatures(2, 4):
            for d in range(0, 4 - len(g) + 1):
                assert cache.series(pattern, 0, 1, g)[d] == profile.get(
                    (g, d), 0
                ), (g, d)

    def test_profile_matches_series_with_offset_start(self):
        # start above the diagonal: k = y - x = 2
        start = (2, 4, 2)
        for pattern in BOTH:
            profile = path_profile(pattern, start, 5)
            cache = SeriesCache(5)
            for g in signatures(2, 5):
                for d in range(0, 5 - len(g) + 1):
                    assert cache.series(pattern, 2, 2, g)[d] == profile.get(
                        (g, d), 0
                    ), (pattern, g, d)
