"""Signed permutations: construction, containment, insertion, enumeration."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from sigperm.core import (
    Occurrence,
    Pattern,
    SignedPermutation,
    contains_naive,
    find_occurrence_positions,
    find_occurrence_through,
    parse,
    signed_permutations,
    standardize,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")


@st.composite
def signed_perms(draw, max_n=4):
    """Hypothesis strategy for signed permutations of size <= max_n."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(-v if s else v for v, s in zip(perm, signs)))


class TestParse:
    def test_figure_fixture(self):
        w = parse("[-6,4,-3,5,2,1]")
        assert [w.image(-i) for i in range(6, 0, -1)] == [-6, 4, -3, 5, 2, 1]

    def test_empty(self):
        assert parse("[]") == SignedPermutation(())
        assert parse("[]").n == 0

    def test_repeated_absolute_value(self):
        with pytest.raises(ValueError, match="repeated absolute value 1"):
            parse("[1,1]")

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError, match="out of range"):
            parse("[1,3]")

    def test_bad_token_named(self):
        with pytest.raises(ValueError, match="'x'"):
            parse("[1,x]")

    def test_missing_brackets(self):
        with pytest.raises(ValueError, match="expected"):
            parse("1,2")

    def test_whitespace_tolerated(self):
        assert parse(" [ -2 , 1 ] ") == parse("[-2,1]")

    @given(signed_perms())
    def test_round_trip(self, w):
        assert parse(str(w)) == w


class TestImage:
    def test_fixture(self):
        w = parse("[-3,4,2,1]")
        assert w.image(-3) == 4
        assert w.image(3) == -4

    def test_zero_and_out_of_range(self):
        w = parse("[-3,4,2,1]")
        with pytest.raises(ValueError):
            w.image(0)
        with pytest.raises(ValueError):
            w.image(5)

    @given(signed_perms())
    def test_antisymmetry(self, w):
        for i in range(1, w.n + 1):
            assert w.image(i) == -w.image(-i)


class TestEmbedding:
    def test_b2_example(self):
        w = SignedPermutation((1, -2))
        assert w.standardized() == (3, 1, 4, 2)

    def test_identity_b1(self):
        assert SignedPermutation((-1,)).standardized() == (1, 2)

    def test_containment_matches_standardized(self):
        # the signed containment test and classical containment of the
        # relabeled embedding must be the same relation
        w = parse("[-6,4,-3,5,2,1]")
        std = w.standardized()
        assert len(std) == 12
        for pat in (P1234, P2143, Pattern.parse("231"), Pattern.parse("321")):
            assert w.contains(pat) == (
                find_occurrence_positions(std, pat) is not None
            )


class TestContains:
    def test_b2_example(self):
        w = SignedPermutation((1, -2))
        assert w.contains(Pattern.parse("231"))
        assert not w.contains(Pattern.parse("123"))

    def test_too_short(self):
        assert not SignedPermutation((1,)).contains(P2143)

    def test_figure3_avoider(self):
        assert parse("[-5,6,-4,7,-3,-1,2]").avoids(P2143)

    def test_witness_is_an_occurrence(self):
        w = SignedPermutation((1, -2))
        occ = w.occurrence_of(Pattern.parse("231"))
        assert isinstance(occ, Occurrence)
        assert list(occ.indices) == sorted(occ.indices)
        assert standardize(occ.values) == (2, 3, 1)
        assert all(w.image(i) == v for i, v in zip(occ.indices, occ.values))

    def test_no_witness_when_avoiding(self):
        assert SignedPermutation((1, -2)).occurrence_of(Pattern.parse("123")) is None

    def test_matches_naive_oracle_exhaustively(self):
        pats = [Pattern.parse(p) for p in ("123", "231", "1234", "2143", "1243")]
        for w in signed_permutations(3):
            for pat in pats:
                assert w.contains(pat) == contains_naive(w, pat), (w, pat)

    @given(signed_perms(4), st.sampled_from(["132", "2143", "1234", "3142"]))
    def test_matches_naive_oracle_random(self, w, pat_text):
        pat = Pattern.parse(pat_text)
        assert w.contains(pat) == contains_naive(w, pat)


# 132 and 1243 are not their own reverse complement; the others are
PINNED_PATTERNS = ("1", "21", "132", "1243", "2143", "1234", "3142", "12345", "21354")


def _occurs_through(seq, pattern, pin):
    """Reference: some k-combination of positions holding ``pin``
    standardizes to the pattern."""
    return any(
        pin in combo and standardize([seq[p] for p in combo]) == pattern.values
        for combo in itertools.combinations(range(len(seq)), len(pattern))
    )


def _check_through(seq, pattern, pin):
    got = find_occurrence_through(seq, pattern, pin)
    assert (got is not None) == _occurs_through(seq, pattern, pin), (seq, pattern, pin)
    if got is not None:
        assert pin in got
        assert got == sorted(set(got)) and len(got) == len(pattern)
        assert standardize([seq[p] for p in got]) == pattern.values


class TestPinnedKernel:
    def test_matches_reference_exhaustively(self):
        for n in range(4):
            for w in signed_permutations(n):
                seq = w.full_images()
                for text in PINNED_PATTERNS:
                    for pin in range(len(seq)):
                        _check_through(seq, Pattern.parse(text), pin)

    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=9, unique=True),
        st.sampled_from(PINNED_PATTERNS),
        st.data(),
    )
    def test_matches_reference_random(self, seq, text, data):
        pin = data.draw(st.integers(0, len(seq) - 1))
        _check_through(seq, Pattern.parse(text), pin)

    def test_pin_out_of_range(self):
        with pytest.raises(IndexError):
            find_occurrence_through([1, 2], P1234, 2)


def _restricted_contains(w, pattern):
    """Containment using no point with positive index and negative image."""
    seq = w.full_images()
    sub = [v for p, v in enumerate(seq) if not (p >= w.n and v < 0)]
    return find_occurrence_positions(sub, pattern) is not None


class TestQuadrantStructure:
    @pytest.mark.parametrize("n", range(6))
    def test_monotone_positive_images(self, n):
        # avoiders keep the top-right quadrant increasing (2143) or
        # decreasing (1234)
        for w in signed_permutations(n):
            tops = [w.image(i) for i in range(1, n + 1) if w.image(i) > 0]
            if w.avoids(P2143):
                assert tops == sorted(tops)
            if w.avoids(P1234):
                assert tops == sorted(tops, reverse=True)

    @pytest.mark.parametrize("n", range(6))
    def test_bottom_right_quadrant_ignorable(self, n):
        for w in signed_permutations(n):
            for pat in (P1234, P2143):
                assert w.contains(pat) == _restricted_contains(w, pat)


class TestReverseComplement:
    def test_fixes_every_element(self):
        # antisymmetry makes every full image sequence its own reverse
        # complement, so reflecting an occurrence stays inside w
        for w in signed_permutations(3):
            seq = w.full_images()
            assert tuple(-v for v in reversed(seq)) == seq

    def test_pattern_reverse_complement(self):
        assert Pattern.parse("2143").reverse_complement() == Pattern.parse("2143")
        assert Pattern.parse("1234").reverse_complement() == Pattern.parse("1234")
        assert Pattern.parse("21354").reverse_complement() == Pattern.parse("21354")
        assert Pattern.parse("132").reverse_complement() == Pattern.parse("213")

    def test_pattern_and_its_reflection_agree_on_signed_perms(self):
        # reflecting an occurrence through the origin swaps the pattern for
        # its reverse complement, so containment of the two always agrees
        pat = Pattern.parse("132")
        rc = pat.reverse_complement()
        for w in signed_permutations(3):
            assert w.contains(pat) == w.contains(rc)


class TestInsert:
    def test_into_empty(self):
        assert SignedPermutation(()).insert(1, 1) == parse("[1]")

    def test_basic_example(self):
        assert parse("[-1]").insert(1, 2) == parse("[-1,2]")

    def test_pushes_images_outward(self):
        assert parse("[-1]").insert(1, 1) == parse("[-2,1]")
        assert parse("[1]").insert(2, 1) == parse("[1,2]")

    def test_out_of_range(self):
        w = parse("[-1]")
        with pytest.raises(ValueError):
            w.insert(0, 1)
        with pytest.raises(ValueError):
            w.insert(3, 1)
        with pytest.raises(ValueError):
            w.insert(1, 0)
        with pytest.raises(ValueError):
            w.insert(1, 3)

    def test_keeps_old_entries_exhaustive(self):
        for w in signed_permutations(3):
            for site in range(1, w.n + 2):
                for gap in range(1, w.n + 2):
                    _check_keeps_old_entries(w, site, gap)

    @given(signed_perms(4), st.data())
    def test_keeps_old_entries_random(self, w, data):
        site = data.draw(st.integers(1, w.n + 1))
        gap = data.draw(st.integers(1, w.n + 1))
        _check_keeps_old_entries(w, site, gap)


def _check_keeps_old_entries(w, site, gap):
    """The new image ``gap`` sits at index ``-site``; the other entries keep
    the signs of ``w`` and the relative order of its absolute values, which
    determines them, so deleting the new pair gives ``w`` back."""
    child = w.insert(site, gap)
    assert child.image(-site) == gap
    rest = [child.image(-i) for i in range(child.n, 0, -1) if i != site]
    assert [v > 0 for v in rest] == [v > 0 for v in w.neg_images]
    assert standardize([abs(v) for v in rest]) == standardize(
        [abs(v) for v in w.neg_images]
    )


class TestStatistic:
    def test_fixtures(self):
        assert parse("[-6,4,-3,5,2,1]").positive_entries() == 2
        assert parse("[2,-3,4,-5,1,-6]").positive_entries() == 3

    def test_identity(self):
        for n in range(5):
            w = SignedPermutation(tuple(range(-n, 0)))
            assert w.positive_entries() == n


class TestEnumeration:
    def test_group_orders(self):
        for n in range(5):
            assert sum(1 for _ in signed_permutations(n)) == 2**n * math.factorial(n)

    def test_small_fixtures(self):
        assert [str(w) for w in signed_permutations(1)] == ["[-1]", "[1]"]

    def test_lexicographic_and_distinct(self):
        words = [w.neg_images for w in signed_permutations(3)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    def test_b0(self):
        assert list(signed_permutations(0)) == [SignedPermutation(())]


class TestPattern:
    def test_parse_forms(self):
        assert Pattern.parse("2143") == Pattern.parse("2,1,4,3")

    def test_invalid(self):
        with pytest.raises(ValueError):
            Pattern.parse("122")
        with pytest.raises(ValueError):
            Pattern.parse("")
        with pytest.raises(ValueError):
            Pattern((1, 2, 3, 4, 5, 6, 7, 8, 9, 10))

    def test_str(self):
        assert str(Pattern.parse("21354")) == "21354"
