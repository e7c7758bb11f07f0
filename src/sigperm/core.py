"""Signed permutations and classical-pattern containment.

A signed permutation of size ``n`` is a bijection ``w`` on
``{-n, ..., -1, 1, ..., n}`` with ``w(i) = -w(-i)``.  The group of all such
bijections is the hyperoctahedral group (the Weyl group of type B); the
index-even elements form the type-D subgroup.

Only the images of the negative indices are stored, written left to right as
``[w(-n), ..., w(-1)]``; the positive half is always derived by antisymmetry,
so the defining constraint cannot be violated by construction.  ``w`` contains
a classical pattern exactly when the full length-``2n`` image sequence
``(w(-n), ..., w(-1), w(1), ..., w(n))`` contains it in the usual sense.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

__all__ = [
    "Pattern",
    "Occurrence",
    "SignedPermutation",
    "parse",
    "signed_permutations",
]

MAX_PATTERN_LENGTH = 9  # keeps the digit-string notation ("2143") unambiguous


@dataclass(frozen=True)
class Pattern:
    """A classical permutation pattern, stored in one-line notation.

    >>> Pattern.parse("2143").values
    (2, 1, 4, 3)
    >>> len(Pattern.parse("2,1,4,3"))
    4
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.values)
        if not 1 <= k <= MAX_PATTERN_LENGTH:
            raise ValueError(f"pattern length {k} outside 1..{MAX_PATTERN_LENGTH}")
        if sorted(self.values) != list(range(1, k + 1)):
            raise ValueError(f"{self.values} is not a permutation of 1..{k}")

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse a digit string like ``"2143"`` or a comma-separated list."""
        text = text.strip()
        if "," in text:
            tokens = [t.strip() for t in text.split(",")]
        else:
            tokens = list(text)
        try:
            values = tuple(int(t) for t in tokens)
        except ValueError:
            raise ValueError(f"malformed pattern {text!r}") from None
        return cls(values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "".join(str(v) for v in self.values)

    def reverse_complement(self) -> "Pattern":
        """Reverse the positions and complement the values.

        Containment of a pattern and of its reverse complement agree on every
        signed permutation: reflecting an occurrence through the origin maps
        one onto the other.
        """
        k = len(self.values)
        return Pattern(tuple(k + 1 - v for v in reversed(self.values)))


@dataclass(frozen=True)
class Occurrence:
    """A witness occurrence of a pattern: the signed indices, increasing."""

    indices: tuple[int, ...]
    values: tuple[int, ...]


def _containment_plan(
    pattern: Pattern, order: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-depth bounds for a backtracking search that matches the pattern
    indices in ``order``.

    When some entries of the pattern have been matched, order isomorphism
    pins the next value between two already-chosen ones: the match of the
    largest smaller pattern entry and of the smallest larger one.  Returns
    the pattern indices of those two entries per depth (-1 when absent).
    """
    pat = pattern.values
    lo: list[int] = []
    hi: list[int] = []
    for d, i in enumerate(order):
        lo_t, lo_v = -1, 0
        hi_t, hi_v = -1, len(pat) + 1
        for t in order[:d]:
            if lo_v < pat[t] < pat[i]:
                lo_t, lo_v = t, pat[t]
            if pat[i] < pat[t] < hi_v:
                hi_t, hi_v = t, pat[t]
        lo.append(lo_t)
        hi.append(hi_t)
    return tuple(lo), tuple(hi)


_PLAN_CACHE: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _plan_for(pattern: Pattern) -> tuple[tuple[int, ...], tuple[int, ...]]:
    plan = _PLAN_CACHE.get(pattern.values)
    if plan is None:
        plan = _PLAN_CACHE[pattern.values] = _containment_plan(
            pattern, range(len(pattern))
        )
    return plan


def find_occurrence_positions(
    seq: Sequence[int], pattern: Pattern
) -> Optional[list[int]]:
    """First (lexicographically) occurrence of ``pattern`` in ``seq``.

    Backtracking over positions with prefix order-isomorphism pruning; worst
    case ``O(len(seq) ** len(pattern))`` but heavily pruned in practice.
    Values of ``seq`` must be distinct; only comparisons are used.
    """
    k = len(pattern)
    n_seq = len(seq)
    if n_seq < k:
        return None
    plan_lo, plan_hi = _plan_for(pattern)
    pos = [0] * k
    vals = [0] * k
    d = 0
    p = 0
    limit = n_seq - k
    while True:
        if p > limit + d:
            d -= 1
            if d < 0:
                return None
            p = pos[d] + 1
            continue
        v = seq[p]
        lo = plan_lo[d]
        hi = plan_hi[d]
        if (lo < 0 or vals[lo] < v) and (hi < 0 or v < vals[hi]):
            pos[d] = p
            vals[d] = v
            d += 1
            if d == k:
                return pos
        p += 1


def _pinned_plans(pattern: Pattern) -> tuple[tuple, ...]:
    """Per pattern index ``t``: what matching entry ``t`` first needs.

    Each plan holds ``t``; how many other entries lie left-below,
    left-above, right-below and right-above it; and the search order,
    ``t`` and then the other indices left to right, with its per-depth
    bounds.
    """
    pat = pattern.values
    plans = []
    for t, pt in enumerate(pat):
        quadrants = (
            sum(1 for v in pat[:t] if v < pt),
            sum(1 for v in pat[:t] if v > pt),
            sum(1 for v in pat[t + 1 :] if v < pt),
            sum(1 for v in pat[t + 1 :] if v > pt),
        )
        order = (t, *(i for i in range(len(pat)) if i != t))
        plans.append((t, quadrants, order, *_containment_plan(pattern, order)))
    return tuple(plans)


_PINNED_CACHE: dict[tuple[int, ...], tuple[tuple, ...]] = {}


def find_occurrence_through(
    seq: Sequence[int], pattern: Pattern, pin: int
) -> Optional[list[int]]:
    """An occurrence of ``pattern`` in ``seq`` that uses position ``pin``.

    One backtracking pass per pattern index ``t``, with ``t`` matched to
    ``pin`` before the others, so ``seq[pin]`` bounds the value of every
    later depth and the positions of each side are confined to their side
    of ``pin``.  A pass is skipped when one of the four quadrants around
    ``pin`` holds fewer entries of ``seq`` than the pattern needs there.
    This is the check for a word grown by one point from a word that
    avoided ``pattern``: any new occurrence uses the new point.  Returns the
    increasing positions, or ``None``.
    """
    n_seq = len(seq)
    if not 0 <= pin < n_seq:
        raise IndexError(f"pin {pin} outside 0..{n_seq - 1}")
    plans = _PINNED_CACHE.get(pattern.values)
    if plans is None:
        plans = _PINNED_CACHE[pattern.values] = _pinned_plans(pattern)
    k = len(pattern)
    pivot = seq[pin]
    below = pivot.__gt__  # v < pivot, counted without a Python-level loop
    left_below = sum(map(below, seq[:pin]))
    right_below = sum(map(below, seq[pin + 1 :]))
    left_above = pin - left_below
    right_above = n_seq - 1 - pin - right_below
    for t, (ll, la, rl, ra), order, plan_lo, plan_hi in plans:
        if ll > left_below or la > left_above or rl > right_below or ra > right_above:
            continue
        pos = [0] * k
        vals = [0] * k
        pos[t] = pin
        vals[t] = pivot
        if k == 1:
            return pos
        # last usable position per index: left of pin, or right of it
        limit = [pin - t + i if i < t else n_seq - k + i for i in range(k)]
        d = 1
        i = order[1]
        p = 0 if i == 0 else pin + 1
        while True:
            if p > limit[i]:
                d -= 1
                if d < 1:
                    break
                i = order[d]
                p = pos[i] + 1
                continue
            v = seq[p]
            lo = plan_lo[d]
            hi = plan_hi[d]
            if (lo < 0 or vals[lo] < v) and (hi < 0 or v < vals[hi]):
                pos[i] = p
                vals[i] = v
                d += 1
                if d == k:
                    return pos
                i = order[d]
                p = pos[i - 1] + 1
                continue
            p += 1
    return None


def standardize(values: Sequence[int]) -> tuple[int, ...]:
    """Relabel distinct integers order-isomorphically to ``1..len(values)``."""
    order = sorted(values)
    rank = {v: r + 1 for r, v in enumerate(order)}
    return tuple(rank[v] for v in values)


def _insert_word(
    word: tuple[int, ...], site: int, gap: int
) -> tuple[tuple[int, ...], int]:
    """The arithmetic of :meth:`SignedPermutation.insert` on a bare
    negative-half word, without its range checks: the new word, and the
    position of the new entry in it."""
    shifted = [v if abs(v) < gap else (v - 1 if v < 0 else v + 1) for v in word]
    cut = len(word) + 1 - site
    shifted.insert(cut, gap)
    return tuple(shifted), cut


@dataclass(frozen=True)
class SignedPermutation:
    """An element of the hyperoctahedral group, stored by its negative half.

    ``neg_images[t]`` is the image of ``-(n - t)`` for ``t = 0..n-1``, i.e.
    the one-line word ``[w(-n), ..., w(-1)]``.

    >>> w = parse("[-3,4,2,1]")
    >>> w.image(-3), w.image(3)
    (4, -4)
    >>> str(w)
    '[-3,4,2,1]'
    """

    neg_images: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.neg_images)
        object.__setattr__(self, "n", n)
        seen = set()
        for v in self.neg_images:
            if not isinstance(v, int) or v == 0 or abs(v) > n:
                raise ValueError(f"entry {v!r} out of range for size {n}")
            if abs(v) in seen:
                raise ValueError(f"repeated absolute value {abs(v)}")
            seen.add(abs(v))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.neg_images) + "]"

    def image(self, i: int) -> int:
        """The image ``w(i)``; for positive ``i`` derived as ``-w(-i)``."""
        if i == 0 or abs(i) > self.n:
            raise ValueError(f"index {i} outside {{-{self.n},..,-1,1,..,{self.n}}}")
        if i < 0:
            return self.neg_images[self.n + i]
        return -self.neg_images[self.n - i]

    def full_images(self) -> tuple[int, ...]:
        """The image sequence ``(w(-n), ..., w(-1), w(1), ..., w(n))``."""
        return self.neg_images + tuple(-v for v in reversed(self.neg_images))

    def standardized(self) -> tuple[int, ...]:
        """The length-``2n`` classical permutation the full images define."""
        return standardize(self.full_images())

    def positive_entries(self) -> int:
        """How many indices ``i > 0`` have ``w(i) > 0``.

        Equals the number of negative entries in the stored negative half.
        This is the statistic that refines the avoider counts.
        """
        return sum(1 for v in self.neg_images if v < 0)

    def occurrence_of(self, pattern: Pattern) -> Optional[Occurrence]:
        """A witness occurrence of ``pattern``, or ``None`` if avoided."""
        seq = self.full_images()
        pos = find_occurrence_positions(seq, pattern)
        if pos is None:
            return None
        indices = tuple(p - self.n if p < self.n else p - self.n + 1 for p in pos)
        return Occurrence(indices, tuple(seq[p] for p in pos))

    def contains(self, pattern: Pattern) -> bool:
        return find_occurrence_positions(self.full_images(), pattern) is not None

    def avoids(self, pattern: Pattern) -> bool:
        return not self.contains(pattern)

    def insert(self, site: int, gap: int) -> "SignedPermutation":
        """Insert a new point at the given site and gap of the negative half.

        Sites ``1..n+1`` count from the right (site ``i`` puts the new index
        at ``-i``); the new image is ``gap``, and existing images of absolute
        value >= ``gap`` are pushed one step away from zero to make room for
        the pair ``(gap, -gap)``.
        """
        n = self.n
        if not 1 <= site <= n + 1:
            raise ValueError(f"site {site} outside 1..{n + 1}")
        if not 1 <= gap <= n + 1:
            raise ValueError(f"gap {gap} outside 1..{n + 1}")
        return SignedPermutation(_insert_word(self.neg_images, site, gap)[0])


def parse(text: str) -> SignedPermutation:
    """Parse bracketed one-line notation, e.g. ``"[-6,4,-3,5,2,1]"``.

    The entries are the images of ``-n, ..., -1`` in that order; ``"[]"`` is
    the unique signed permutation of size 0.
    """
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"malformed signed permutation {text!r}: expected [..]")
    body = stripped[1:-1].strip()
    if not body:
        return SignedPermutation(())
    entries = []
    for token in body.split(","):
        token = token.strip()
        try:
            entries.append(int(token))
        except ValueError:
            raise ValueError(
                f"malformed signed permutation {text!r}: bad token {token!r}"
            ) from None
    return SignedPermutation(tuple(entries))


def _negative_halves(
    n: int, prefix: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """All valid negative-half words of size ``n``, lexicographically.

    Entries are compared as integers (-n < ... < -1 < 1 < ... < n), so the
    order is stable for test fixtures.  A ``prefix`` restricts the scan to
    the words extending it, which is how exhaustive counts are partitioned
    across workers.
    """
    values = [v for v in range(-n, n + 1) if v != 0]
    used = [False] * (n + 1)
    for v in prefix:
        used[abs(v)] = True
    word = list(prefix)

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == n:
            yield tuple(word)
            return
        for v in values:
            a = abs(v)
            if not used[a]:
                used[a] = True
                word.append(v)
                yield from rec()
                word.pop()
                used[a] = False

    return rec()


def signed_permutations(n: int) -> Iterator[SignedPermutation]:
    """All ``2^n n!`` signed permutations of size ``n``, lexicographically.

    >>> [str(w) for w in signed_permutations(1)]
    ['[-1]', '[1]']
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    for word in _negative_halves(n):
        yield SignedPermutation(word)


def contains_naive(w: SignedPermutation, pattern: Pattern) -> bool:
    """Independent containment oracle: try every index combination.

    Deliberately exhaustive (no pruning); kept for cross-checking the
    backtracking search on small sizes.
    """
    seq = w.full_images()
    k = len(pattern)
    for combo in itertools.combinations(seq, k):
        if standardize(combo) == pattern.values:
            return True
    return False
