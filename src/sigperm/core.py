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

from typing import Callable, Iterator, Optional, Sequence

# the pattern lives in a leaf module that the routes without a kernel load;
# it is re-exported here
from .pattern import (
    MAX_PATTERN_LENGTH,
    PATTERN_1234,
    PATTERN_2143,
    TREE_PATTERNS,
    Pattern,
    _Frozen,
    _require_tree_pattern,
)

__all__ = ["SignedPermutation", "parse", "signed_permutations"]


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


def _nested_loops(pattern: Pattern, t: int) -> list[str]:
    """Source lines of a backtracking search for ``pattern`` in ``seq``,
    one ``for`` loop per pattern index.

    With ``t >= 0``, index ``t`` is already matched to ``p{t} = pin`` and
    the search starts there; the other indices follow left to right
    (``t = -1``: all of them).  Index ``i`` runs its position ``p{i}`` up to
    the last one that leaves room for the indices between it and ``pin``,
    or after it, and keeps the value ``v{i} = seq[p{i}]`` only between the
    two bounds of :func:`_containment_plan`.  The innermost loop returns the
    positions.  Each loop and test indents the lines after it one level.

    Dominance: a later position of index ``i`` leaves the deeper loops a
    subset of the positions an earlier one had, with the same earlier
    values, so once a kept ``v{i}`` has found no match, a later value that
    constrains the deeper loops at least as tightly cannot match either.
    If the deeper loops use ``v{i}`` only as a lower bound, index ``i``
    keeps values below the threshold ``m{i}``, set to each failed value; if
    only as an upper bound, values above it.  ``m{i}`` starts at the bound
    it tightens, or where there is none at ``INF`` (``-INF``), an int above
    (below) every value, so it replaces that bound in the test.  If the deeper loops never use ``v{i}``, the loop
    ends after its first kept value fails; if they use it as both, nothing
    is pruned.  Only subtrees that cannot match are skipped, so the search
    still returns the first occurrence in the same loop order.
    """
    k = len(pattern)
    order = [i for i in range(k) if i != t]
    if t >= 0:
        order.insert(0, t)
    lo, hi = _containment_plan(pattern, order)
    lines = []
    closers = []  # per depth, the line run once its deeper loops find nothing
    pad = ""
    for d, i in enumerate(order):
        if i == t:
            continue
        as_lo = i in lo[d + 1 :]
        as_hi = i in hi[d + 1 :]
        low = f"v{lo[d]}" if lo[d] >= 0 else None
        high = f"v{hi[d]}" if hi[d] >= 0 else None
        if d == k - 1 or as_lo and as_hi:
            closer = None
        elif as_lo:  # deeper values lie above v{i}: keep values below the failures
            lines.append(f"{pad}m{i} = {high or 'INF'}")
            high, closer = f"m{i}", f"m{i} = v{i}"
        elif as_hi:  # deeper values lie below v{i}: keep values above the failures
            lines.append(f"{pad}m{i} = {low or '-INF'}")
            low, closer = f"m{i}", f"m{i} = v{i}"
        else:
            closer = "break"
        start = f"p{i - 1} + 1" if i else "0"
        end, room = ("pin", t - 1 - i) if i < t else ("n", k - 1 - i)
        stop = f"{end} - {room}" if room else end
        lines += [f"{pad}for p{i} in range({start}, {stop}):", f"{pad}    v{i} = seq[p{i}]"]
        pad += "    "
        chain = [bound for bound in (low, f"v{i}", high) if bound]
        if len(chain) > 1:
            lines.append(f"{pad}if {' < '.join(chain)}:")
            pad += "    "
        if closer:
            closers.append(pad + closer)
    positions = ", ".join(f"p{i}" for i in range(k))
    return [*lines, f"{pad}return [{positions}]", *reversed(closers)]


# an int above every finite float (those stop below 2**1024) and every word's
# values: the thresholds start here, and an int-to-int comparison is cheaper
# than one against float("inf")
INF = 1 << 1100


def _compile(name: str, lines: list[str], **names: Callable) -> Callable:
    """Define the function ``name`` from generated source lines, which may
    call the functions ``names``."""
    namespace: dict = {"INF": INF, **names}
    exec(compile("\n".join(lines), f"<sigperm {name}>", "exec"), namespace)
    return namespace[name]


def _compiled_search(pattern: Pattern) -> Callable:
    """``search(seq)``: the search of :func:`find_occurrence_positions`."""
    loops = _nested_loops(pattern, -1)
    return _compile(
        "search",
        ["def search(seq):", "    n = len(seq)", *(f"    {line}" for line in loops), "    return None"],
    )


_SEARCHES: dict[tuple[int, ...], Callable] = {}


def find_occurrence_positions(
    seq: Sequence[int], pattern: Pattern
) -> Optional[list[int]]:
    """First (lexicographically) occurrence of ``pattern`` in ``seq``.

    A backtracking search over positions with prefix order-isomorphism
    pruning, compiled once per pattern (and per process) into plain nested
    ``for`` loops, one per pattern index: each loop tests its value against
    the matches of the largest smaller and the smallest larger earlier
    pattern entry.  Worst case ``O(len(seq) ** len(pattern))``.  Each loop
    also skips the candidates a failed earlier one dominates (see
    :func:`_nested_loops`): once a value has found no match below it, a
    later value that bounds the deeper loops at least as tightly is not
    tried.  Only subtrees without a match are skipped, so the result is
    still the first occurrence, in one call per word.  ``seq`` may be any
    sequence, and it is only read, during the call: the whole-word scan
    passes one list that it changes between calls.  Its values must be
    distinct real numbers strictly between ``-INF`` and ``INF`` (``2**1100``,
    so every finite float); only comparisons are used, with each other and
    with those bounds.  Returns the increasing positions, or ``None``.
    """
    search = _SEARCHES.get(pattern.values)
    if search is None:
        search = _SEARCHES[pattern.values] = _compiled_search(pattern)
    return search(seq)


def _pinned_loops(pattern: Pattern) -> list[str]:
    """Source lines of the search for an occurrence of ``pattern`` in
    ``seq`` that uses position ``pin``, indented one level.

    They read ``seq``, its length ``n``, ``pin``, ``pv = seq[pin]`` and the
    quadrant counts around ``pin``: ``lb`` and ``la`` entries left of it
    below and above ``pv``, ``rb`` and ``ra`` right of it.  Per pattern
    index ``t``, a test that each quadrant holds the entries the pattern
    needs there guards the nested loops with ``t`` matched to ``pin``; the
    other indices follow left to right, confined to their side of ``pin``.
    A match returns its positions.  The sweep of
    :func:`avoiding_insertions` runs these lines once per cut.
    """
    pat = pattern.values
    lines = []
    for t, pt in enumerate(pat):
        quadrants = {
            "lb": sum(1 for v in pat[:t] if v < pt),
            "la": sum(1 for v in pat[:t] if v > pt),
            "rb": sum(1 for v in pat[t + 1 :] if v < pt),
            "ra": sum(1 for v in pat[t + 1 :] if v > pt),
        }
        needs = " and ".join(f"{q} >= {need}" for q, need in quadrants.items() if need)
        pad = "    "
        if needs:
            lines.append(f"{pad}if {needs}:")
            pad += "    "
        body = [f"p{t} = pin", f"v{t} = pv", *_nested_loops(pattern, t)]
        lines += [pad + line for line in body]
    return lines


def _compiled_insertions(pattern: Pattern) -> Callable:
    """``insertions(base, v)``: the sweep of :func:`avoiding_insertions`,
    which hands each cut's quadrant counts to ``occurs``, the loops of
    :func:`_pinned_loops`.  The entry that ``v`` passes moves to its left,
    so ``lb`` grows by one comparison; the other counts follow from
    ``total``, the entries below ``v``."""
    # two compiles: compiled as one unit, the two peaked 40 kB higher
    # (tracemalloc, 12345), enough to raise a short command's peak RSS
    occurs = _compile(
        "occurs",
        ["def occurs(seq, n, pin, pv, lb, la, rb, ra):", *_pinned_loops(pattern), "    return None"],
    )
    return _compile(
        "insertions",
        [
            "def insertions(base, v):",
            "    seq = [v, *base, -v]",
            "    n = len(seq)",
            "    nv = -v",
            "    total = sum(map(v.__gt__, seq))",
            "    lb = 0",
            "    accepted = []",
            "    for cut in range(n // 2):",
            "        if cut:",
            "            seq[cut - 1], seq[cut] = seq[cut], v",
            "            seq[n - cut], seq[n - 1 - cut] = seq[n - 1 - cut], nv",
            "            lb += seq[cut - 1] < v",
            "        rb = total - lb",
            "        if occurs(seq, n, cut, v, lb, cut - lb, rb, n - 1 - cut - rb) is None:",
            "            accepted.append((cut, tuple(seq)))",
            "    return accepted",
        ],
        occurs=occurs,
    )


_INSERTIONS: dict[tuple[int, ...], Callable] = {}


def avoiding_insertions(
    base: Sequence[int], v: int, pattern: Pattern
) -> list[tuple[int, tuple[int, ...]]]:
    """Every cut of the pair ``±v`` into ``base`` that adds no occurrence of
    ``pattern`` through ``v``.

    For ``cut = 0..len(base) // 2`` the child is ``base[:cut] + (v,) +
    base[cut : L - cut] + (-v,) + base[L - cut :]`` with ``L = len(base)``;
    returns the ``(cut, child)`` pairs, by increasing cut, whose child has
    no occurrence of ``pattern`` through index ``cut``.  One list holds the
    child, from ``[v, *base, -v]`` at cut 0: two swaps move the pair to the
    next cut, the quadrant counts around ``v`` follow from one comparison,
    and each cut runs the loops of :func:`_pinned_loops` on them.
    Only accepted children become tuples, built from that list, so each has
    its exact size: a tuple grown from a generator would be resized, and
    CPython's tuple free lists then keep thousands of those resized tuples
    alive, enough to raise a tree dump's peak memory.  Compiled once per
    pattern (and per process).  ``base`` and ``v`` follow the value rules of
    :func:`find_occurrence_positions`, with ``±v`` not in ``base``.
    """
    insertions = _INSERTIONS.get(pattern.values)
    if insertions is None:
        insertions = _INSERTIONS[pattern.values] = _compiled_insertions(pattern)
    return insertions(base, v)


def standardize(values: Sequence[int]) -> tuple[int, ...]:
    """Relabel distinct integers order-isomorphically to ``1..len(values)``."""
    order = sorted(values)
    rank = {v: r + 1 for r, v in enumerate(order)}
    return tuple(rank[v] for v in values)


class SignedPermutation(_Frozen):
    """An element of the hyperoctahedral group, stored by its negative half.

    ``neg_images[t]`` is the image of ``-(n - t)`` for ``t = 0..n-1``, i.e.
    the one-line word ``[w(-n), ..., w(-1)]``; ``n`` is its length.

    >>> w = parse("[-3,4,2,1]")
    >>> w.image(-3), w.image(3)
    (4, -4)
    >>> str(w)
    '[-3,4,2,1]'
    >>> SignedPermutation([1, 2]) == parse("[1,2]")
    True
    """

    __slots__ = ("neg_images", "n")
    _fields = ("neg_images",)
    neg_images: tuple[int, ...]
    n: int

    def __init__(self, neg_images: Sequence[int]) -> None:
        neg_images = tuple(neg_images)
        n = len(neg_images)
        seen = set()
        for v in neg_images:
            if type(v) is not int or v == 0 or abs(v) > n:
                raise ValueError(f"entry {v!r} out of range for size {n}")
            if abs(v) in seen:
                raise ValueError(f"repeated absolute value {abs(v)}")
            seen.add(abs(v))
        object.__setattr__(self, "neg_images", neg_images)
        object.__setattr__(self, "n", n)

    @classmethod
    def _unchecked(cls, neg_images: tuple[int, ...]) -> "SignedPermutation":
        """The element with negative half ``neg_images``, a tuple already
        known to be one: built without the constructor's checks, for words
        made by a checked insertion."""
        w = object.__new__(cls)
        object.__setattr__(w, "neg_images", neg_images)
        object.__setattr__(w, "n", len(neg_images))
        return w

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.neg_images == other.neg_images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.neg_images)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.neg_images)) + "]"

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
        word = [v if abs(v) < gap else (v - 1 if v < 0 else v + 1) for v in self.neg_images]
        word.insert(n + 1 - site, gap)
        return SignedPermutation(word)


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


def _negative_halves(n: int) -> Iterator[tuple[int, ...]]:
    """All valid negative-half words of size ``n``, lexicographically.

    Entries are compared as integers (-n < ... < -1 < 1 < ... < n), so the
    order is stable for test fixtures.
    """
    values = [v for v in range(-n, n + 1) if v != 0]
    used = [False] * (n + 1)
    word: list[int] = []

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
