"""Signatures, lattice paths, and the path series."""

import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from itertools import pairwise
from math import comb

import pytest

import sigperm.gf
from sigperm.core import Pattern
from sigperm.gentree import TreeLabel, level_counts, successors
from sigperm.gf import MAX_SERIES_CELLS, avoider_count_from_series
from sigperm.paths import (
    MAX_SIGNATURE_LENGTH,
    SeriesCache,
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


# sha256 of one line "pattern k q gamma series" per point of verify's series
# grid, patterns 1234 then 2143, signatures in the order of `signatures`
# (starts 1..5, at most 4 entries), k = 0..5, q = 1..5, degree 10; computed
# with the per-key memo that the suffix tables replaced
GRID_SHA256 = "846ab0fea5c7a049a5629742ff6fab7347ff255fca2cc26f7cce5959d2daa1bb"
# f_series(P, 3, 3, [5, 6, 7] + [2] * 197, 8), the same for both patterns
LONG_SIGNATURE_SERIES = (
    20100,
    210115305,
    887148936411,
    2101163685121914,
    3230090109320890410,
    3509331782561364469395,
    2851265657970669804407865,
    1804115269676168465476199256,
    916651892245722852573167358204,
)


class TestSeriesValuesPinned:
    def test_grid_series_hash(self):
        digest = hashlib.sha256()
        for pattern in BOTH:
            cache = SeriesCache(10)
            for g1 in range(1, 6):
                for gamma in signatures(g1, 4):
                    for k in range(6):
                        for q in range(1, 6):
                            series = cache.series(pattern, k, q, gamma)
                            digest.update(f"{pattern} {k} {q} {gamma} {series}\n".encode())
        assert digest.hexdigest() == GRID_SHA256

    @pytest.mark.parametrize("pattern", BOTH)
    def test_long_signature(self, pattern):
        gamma = [5, 6, 7] + [2] * 197
        assert len(gamma) == MAX_SIGNATURE_LENGTH
        assert f_series(pattern, 3, 3, gamma, 8) == LONG_SIGNATURE_SERIES


class TestSeriesCacheMemo:
    @staticmethod
    def assert_holds_only_suffix_tables(cache, gamma):
        # table i holds, for each rule and layer, F(k, q, gamma[i:]) for every
        # k it has grown to; the 1234 and 2143 layers q = 1 are one list
        assert len(cache._tables) == len(gamma)
        for i, (rows_2143, rows_1234) in enumerate(cache._tables):
            assert len(rows_2143) == len(rows_1234) and rows_1234[0] is rows_2143[0]
            for pattern, rows in ((P2143, rows_2143), (P1234, rows_1234)):
                for q, row in enumerate(rows, 1):
                    for k, series in enumerate(row):
                        expected = f_series(pattern, k, q, gamma[i:], cache.degree_bound)
                        assert series == expected, (pattern, k, q, gamma[i:])

    def test_holds_tables_only_for_the_last_signatures_suffixes(self):
        cache = SeriesCache(5)
        for gamma in [(3, 4, 2), (2, 3, 4, 2), (1, 2), (2,), (4, 2, 3, 2)]:
            cache.series(P1234, 2, 3, gamma)
            self.assert_holds_only_suffix_tables(cache, gamma)
        # a failed call keeps the tables it found
        with pytest.raises(ValueError):
            cache.series(P2143, 0, 1, (4, 2, 1))
        self.assert_holds_only_suffix_tables(cache, (4, 2, 3, 2))
        cache.series(P2143, 0, 0, (3, 2))
        self.assert_holds_only_suffix_tables(cache, (3, 2))

    def test_shuffled_points_match_a_fresh_cache_per_point(self):
        points = [
            (pattern, k, q, gamma)
            for pattern in BOTH
            for g1 in range(1, 5)
            for gamma in signatures(g1, 4)
            for k in range(5)
            for q in range(5)
        ]
        random.Random(38).shuffle(points)
        cache = SeriesCache(6)
        for point in points:
            assert cache.series(*point) == f_series(*point, 6), point
            assert len(cache._tables) == len(point[3])


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

    @pytest.mark.parametrize("pattern", BOTH)
    @pytest.mark.parametrize("max_j", (0, 1, 3, 10))
    def test_column_cut_equals_the_triangle(self, pattern, max_j, far_triangles):
        # the tables cut at layer max_j + 1 keep every column they still hold
        cut = avoider_count_from_series(FAR_N, pattern, max_j)
        assert cut == tuple(row[: max_j + 1] for row in far_triangles[str(pattern)])

    def test_column_cut_builds_only_its_layers(self):
        # two degrees' tables are held at a time, so one column's peak is
        # about 1/max_n of the triangle's (17 times smaller at size 20)
        peaks = []
        for max_j in (None, 0):
            tracemalloc.start()
            try:
                avoider_count_from_series(20, P2143, max_j)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] * 5 < peaks[0]

    def test_column_bound_past_the_size_is_the_triangle(self):
        for pattern in BOTH:
            assert avoider_count_from_series(7, pattern, 9) == avoider_count_from_series(
                7, pattern
            )

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="size -1 must be nonnegative"):
            avoider_count_from_series(-1, P2143)
        with pytest.raises(ValueError, match="column bound -1 must be nonnegative"):
            avoider_count_from_series(3, P2143, -1)
        with pytest.raises(ValueError, match="no generating tree"):
            avoider_count_from_series(3, Pattern.parse("321"))

    def test_cells_are_counted_exactly(self):
        # one cell per state (q, diag, g1), 0 <= g1 <= diag <= size, for each
        # layer q the tables keep, summed over the degrees
        for max_n in range(12):
            for layers in range(1, max_n + 3):
                cells = sum(
                    min(size, layers) * (size + 1) * (size + 2) // 2
                    for size in range(1, max_n + 2)
                )
                assert sigperm.gf._table_cells(max_n, layers) == cells
        # the budget is the whole triangle at size 120
        assert sigperm.gf._table_cells(120, 121) == MAX_SERIES_CELLS

    def test_refuses_past_the_cap_before_allocating(self, monkeypatch):
        # the message is matched after tracing stops: compiling the pattern
        # can resize the re module's cache, which is no allocation of ours
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refused:
                avoider_count_from_series(121, P2143)
            with pytest.raises(ValueError) as column_refused:
                avoider_count_from_series(10**9, P2143, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        assert str(refused.value) == (
            f"series table for size 121 has 29074125 cells, over the budget of "
            f"{MAX_SERIES_CELLS}; `sigperm count --method gf --j J` builds one "
            "statistic's column"
        )
        # a refused column names no column route
        assert str(column_refused.value).endswith(f"over the budget of {MAX_SERIES_CELLS}")
        # the budget is read at call time
        monkeypatch.setattr(sigperm.gf, "MAX_SERIES_CELLS", sigperm.gf._table_cells(5, 6))
        assert avoider_count_from_series(5, P1234)[5] == avoider_counts(5, P1234)
        with pytest.raises(ValueError, match="has 630 cells, over the budget of 378;"):
            avoider_count_from_series(6, P1234)
        # two columns of size 6 fit where its triangle does not
        assert avoider_count_from_series(6, P1234, 1)[6] == avoider_counts(6, P1234)[:2]


@pytest.mark.slow
@pytest.mark.parametrize("pattern", BOTH)
def test_far_columns_match_label_dp_and_gessel(pattern):
    # the cut series tables against the other column route, the forward
    # label DP, and column 0 against Gessel's |S_n(1234)|
    columns = avoider_count_from_series(150, pattern, 3)
    for j in range(4):
        assert [row[j] for row in columns[j:]] == level_counts(pattern, j, 150 - j), j
    column = avoider_count_from_series(300, pattern, 0)
    assert [row[0] for row in column] == [classical_1234_formula(n) for n in range(301)]


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
