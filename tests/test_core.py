"""Signed permutations: construction, containment, insertion, enumeration."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from sigperm.core import (
    MAX_PATTERN_LENGTH,
    Pattern,
    SignedPermutation,
    avoiding_insertions,
    find_occurrence_positions,
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


def first_occurrence(seq, pattern):
    """Reference kernel: the first combination of positions, in
    ``itertools.combinations`` (lexicographic) order, whose values
    standardize to the pattern.  Deliberately exhaustive, no pruning."""
    for combo in itertools.combinations(range(len(seq)), len(pattern)):
        if standardize([seq[p] for p in combo]) == pattern.values:
            return list(combo)
    return None


def contains_naive(w, pattern):
    """Reference containment: some combination of entries is an occurrence."""
    return first_occurrence(w.full_images(), pattern) is not None


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
        seq = w.full_images()
        pos = find_occurrence_positions(seq, Pattern.parse("231"))
        assert pos == sorted(set(pos)) and len(pos) == 3
        assert standardize([seq[p] for p in pos]) == (2, 3, 1)

    def test_no_witness_when_avoiding(self):
        w = SignedPermutation((1, -2))
        assert find_occurrence_positions(w.full_images(), Pattern.parse("123")) is None

    def test_matches_naive_oracle_exhaustively(self):
        pats = [Pattern.parse(p) for p in ("123", "231", "1234", "2143", "1243")]
        for w in signed_permutations(3):
            for pat in pats:
                assert w.contains(pat) == contains_naive(w, pat), (w, pat)

    @given(signed_perms(4), st.sampled_from(["132", "2143", "1234", "3142"]))
    def test_matches_naive_oracle_random(self, w, pat_text):
        pat = Pattern.parse(pat_text)
        assert w.contains(pat) == contains_naive(w, pat)


class TestFirstOccurrence:
    """The kernel returns the lexicographically first occurrence."""

    def test_every_short_pattern_on_every_small_word(self):
        words = [w.full_images() for n in range(4) for w in signed_permutations(n)]
        for k in range(1, 6):
            for values in itertools.permutations(range(1, k + 1)):
                pattern = Pattern(values)
                for seq in words:
                    assert find_occurrence_positions(seq, pattern) == first_occurrence(
                        seq, pattern
                    ), (seq, pattern)

    @given(
        st.lists(st.integers(-30, 30), max_size=14, unique=True),
        st.integers(1, 6).flatmap(lambda k: st.permutations(range(1, k + 1))),
    )
    def test_random_sequences(self, seq, values):
        pattern = Pattern(values)
        assert find_occurrence_positions(seq, pattern) == first_occurrence(seq, pattern)

    def test_sequence_shorter_than_pattern(self):
        assert find_occurrence_positions((), Pattern.parse("1")) is None
        assert find_occurrence_positions((2, 1, 3), P2143) is None
        assert find_occurrence_positions(SignedPermutation((1,)).full_images(), P1234) is None

    @given(st.permutations(range(12)), st.sets(st.integers(0, 11), min_size=9, max_size=9))
    def test_longest_pattern(self, seq, sites):
        # the deepest nesting: rearrange the values at nine sites into the
        # pattern, so the sequence contains it, maybe more than once
        pattern = Pattern.parse("316289457")
        assert len(pattern) == MAX_PATTERN_LENGTH
        sites = sorted(sites)
        chosen = sorted(seq[p] for p in sites)
        seq = list(seq)
        for p, rank in zip(sites, pattern.values):
            seq[p] = chosen[rank - 1]
        got = find_occurrence_positions(seq, pattern)
        assert got is not None and got == first_occurrence(seq, pattern)
        assert find_occurrence_positions(seq[:8], pattern) is None


# 132 and 1243 are not their own reverse complement; the others are
PINNED_PATTERNS = ("1", "21", "132", "1243", "2143", "1234", "3142", "12345", "21354")


def _occurs_through(seq, pattern, pin):
    """Reference: some k-combination of positions holding ``pin``
    standardizes to the pattern."""
    others = [p for p in range(len(seq)) if p != pin]
    return any(
        standardize([seq[p] for p in sorted((pin, *combo))]) == pattern.values
        for combo in itertools.combinations(others, len(pattern) - 1)
    )


def _accepted_at_pin(seq, pattern, pin):
    """Whether the sweep accepts ``seq``, an image sequence, as the child
    that puts the pair ``±seq[pin]`` at cut ``pin``, for ``pin`` in its left
    half: the pinned loops' answer at ``pin``."""
    L = len(seq)
    base = seq[:pin] + seq[pin + 1 : L - 1 - pin] + seq[L - pin :]
    accepted = dict(avoiding_insertions(base, seq[pin], pattern))
    assert accepted.get(pin, seq) == seq
    return pin in accepted


class TestPinnedKernel:
    """The loops of ``core._pinned_loops``, as the sweep runs them."""

    def test_matches_reference_exhaustively(self):
        for n in range(4):
            for w in signed_permutations(n):
                seq = w.full_images()
                for text in PINNED_PATTERNS:
                    pattern = Pattern.parse(text)
                    for pin in range(n):
                        want = not _occurs_through(seq, pattern, pin)
                        assert _accepted_at_pin(seq, pattern, pin) == want, (seq, text, pin)


def _spliced(base, v):
    """``(cut, child)`` for every cut of the pair ``±v`` into ``base``, each
    child spliced afresh."""
    base, L = tuple(base), len(base)
    return [
        (cut, base[:cut] + (v,) + base[cut : L - cut] + (-v,) + base[L - cut :])
        for cut in range(L // 2 + 1)
    ]


def _per_cut(base, v, pattern):
    """Reference for ``avoiding_insertions``: each spliced child kept unless
    some combination of its entries holding index ``cut`` is an
    occurrence."""
    return [
        (cut, child)
        for cut, child in _spliced(base, v)
        if not _occurs_through(child, pattern, cut)
    ]


def _whole_word(base, v, pattern):
    """The spliced children that avoid ``pattern`` as whole words."""
    return [
        (cut, child)
        for cut, child in _spliced(base, v)
        if find_occurrence_positions(child, pattern) is None
    ]


def _shifted(seq, gap):
    """``seq`` with the entries of absolute value >= ``gap`` moved one step
    away from zero, as the tree makes room for ``±gap``."""
    return [v if abs(v) < gap else (v - 1 if v < 0 else v + 1) for v in seq]


def _both_sweeps(base, v, pattern):
    """The children that the sweeps for ``pattern`` and for its reverse
    complement both accept: on a base that avoids the pattern, those that
    avoid it, since an occurrence through ``-v`` reflects to one of the
    reverse complement through ``v``."""
    cuts = {cut for cut, _ in avoiding_insertions(base, v, pattern.reverse_complement())}
    return [(cut, child) for cut, child in avoiding_insertions(base, v, pattern) if cut in cuts]


class TestAvoidingInsertions:
    """The sweep of every cut against whole-word scans and a combinations
    search through the cut."""

    def test_tree_bases_every_gap(self):
        # the shifted image sequences the tree sweeps: against the whole-word
        # scan where the word avoids, else against the search through the cut
        for text in PINNED_PATTERNS:
            pattern = Pattern.parse(text)
            for n in range(5):
                for w in signed_permutations(n):
                    avoids = find_occurrence_positions(w.full_images(), pattern) is None
                    if not avoids and n > 3:
                        continue
                    for gap in range(1, n + 2):
                        base = _shifted(w.full_images(), gap)
                        if avoids:
                            got = _both_sweeps(base, gap, pattern)
                            assert got == _whole_word(base, gap, pattern), (w, gap, text)
                        else:
                            got = avoiding_insertions(base, gap, pattern)
                            assert got == _per_cut(base, gap, pattern), (w, gap, text)

    def test_avoider_bases_match_whole_word_scan(self):
        # an avoider's child holds an occurrence only through v or -v, so the
        # sweeps for the pattern and its reverse complement together keep
        # exactly the children that avoid; for a pattern that is its own
        # reverse complement, one sweep does
        for text in PINNED_PATTERNS:
            pattern = Pattern.parse(text)
            symmetric = pattern.reverse_complement() == pattern
            for n in range(5):
                for w in signed_permutations(n):
                    base = w.full_images()
                    if find_occurrence_positions(base, pattern) is not None:
                        continue
                    for v in (n + 1, -(n + 1)):
                        whole = _whole_word(base, v, pattern)
                        assert _both_sweeps(base, v, pattern) == whole, (w, v, text)
                        if symmetric:
                            assert avoiding_insertions(base, v, pattern) == whole, (w, v, text)

    def test_float_bases_match_int_bases(self):
        # the same sweep on values scaled down and up to the largest floats
        words = [w.full_images() for n in range(5) for w in signed_permutations(n)]
        for text in PINNED_PATTERNS:
            pattern = Pattern.parse(text)
            for seq in words:
                for v in (len(seq) // 2 + 1, -(len(seq) // 2 + 1)):
                    want = avoiding_insertions(seq, v, pattern)
                    for scale in (0.5, 4e307):
                        floats = [x * scale for x in seq]
                        scaled = [(cut, tuple(x * scale for x in child)) for cut, child in want]
                        got = avoiding_insertions(floats, v * scale, pattern)
                        assert got == scaled, (floats, text)

    @given(
        st.lists(st.integers(-30, 30), max_size=12, unique=True),
        st.integers(1, 30),
        st.booleans(),
        st.sampled_from(PINNED_PATTERNS),
    )
    def test_matches_per_cut_random(self, base, v, negative, text):
        base = [x for x in base if abs(x) != v]
        v = -v if negative else v
        pattern = Pattern.parse(text)
        assert avoiding_insertions(base, v, pattern) == _per_cut(base, v, pattern)


# the tree patterns and four more; between them, their whole-word and pinned
# loops keep values below a threshold, above one, or stop at the first failure
PRUNED_PATTERNS = ("1234", "2143", "1243", "3142", "12345", "21354")


class TestDominancePruning:
    """The whole-word search and the sweep's pinned loops against the
    references on words long enough for every pruning mode of the compiled
    loops to fire."""

    def test_every_word_of_b4_at_every_pin(self):
        words = [w.full_images() for w in signed_permutations(4)]
        for text in PRUNED_PATTERNS:
            pattern = Pattern.parse(text)
            for seq in words:
                # every occurrence, in lexicographic order, from one pass
                occurrences = [
                    combo
                    for combo in itertools.combinations(range(len(seq)), len(pattern))
                    if standardize([seq[p] for p in combo]) == pattern.values
                ]
                first = list(occurrences[0]) if occurrences else None
                assert find_occurrence_positions(seq, pattern) == first, (seq, text)
                covered = {p for combo in occurrences for p in combo}
                for pin in range(len(seq) // 2):
                    accepted = _accepted_at_pin(seq, pattern, pin)
                    assert accepted == (pin not in covered), (seq, text, pin)

    def test_float_words_match_int_words(self):
        # the thresholds start at an int sentinel, which must stay above and
        # below every float value too, the largest finite ones included
        words = [w.full_images() for w in signed_permutations(4)]
        patterns = [
            Pattern(values)
            for k in range(1, 5)
            for values in itertools.permutations(range(1, k + 1))
        ]
        for seq in words:
            for pattern in patterns:
                want = find_occurrence_positions(seq, pattern)
                sweeps = [avoiding_insertions(seq, v, pattern) for v in (5, -5)]
                for scale in (0.5, 4e307):
                    floats = [v * scale for v in seq]
                    assert find_occurrence_positions(floats, pattern) == want, (floats, pattern)
                    got = [avoiding_insertions(floats, v * scale, pattern) for v in (5, -5)]
                    scaled = [
                        [(cut, tuple(x * scale for x in child)) for cut, child in sweep]
                        for sweep in sweeps
                    ]
                    assert got == scaled, (floats, pattern)

    @pytest.mark.parametrize(
        "text, word, first",
        [
            # lower-bound threshold: with v0 = -3, the failed v1 = 2 drops the
            # later v1 = 4, and v1 = -1 then completes -3 -1 1 3
            ("1234", "[-3,2,4,-1]", [0, 3, 4, 7]),
            # upper-bound threshold (2143's never drops a value the bounds
            # keep: that value would complete the failed candidate): with
            # v0 = -1, the failed v1 = -2 drops the later v1 = -3, and
            # v0 = 3 then starts 3 2 -2 -3
            ("4321", "[-4,-1,3,2]", [2, 3, 4, 5]),
            # the stop: v1 is no bound of any later value, so once v1 = -1
            # fails under v0 = 2, v1 = -3 is not tried; the first occurrence
            # starts at v0 = -1
            ("2143", "[2,-1,-3]", [1, 2, 3, 4]),
        ],
    )
    def test_first_occurrence_after_a_pruned_candidate(self, text, word, first):
        pattern = Pattern.parse(text)
        seq = parse(word).full_images()
        assert first_occurrence(seq, pattern) == first
        assert find_occurrence_positions(seq, pattern) == first


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
