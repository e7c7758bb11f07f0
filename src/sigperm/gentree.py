"""Generating trees for the two length-4 tree patterns (2143 and 1234).

Avoiders are grown by inserting a new largest image into the negative half,
one element at a time, keeping the number of positive indices with positive
images fixed.  Each avoider is reached exactly once, so the nodes at depth
``d`` of the tree rooted at the unique smallest avoider with statistic ``j``
are precisely the avoiders of size ``j + d``.

Three statistics label each node:

* ``x`` - sites before the first descent (2143) or first ascent (1234),
* ``y`` - active sites in the relevant layer (the current layer for 2143,
  the top layer for 1234), found by trial insertion and an avoidance check,
* ``z`` - the layer number, counting from the layer of the largest inserted
  image up to the top.

The label of a node determines the multiset of its children's labels.  Each
succession rule is stated once, as range blocks: boxes of children labels
whose sides are fixed or run up to a bound set by the parent's label.
:func:`successors` expands the blocks label by label.  The label dynamic
program in :func:`level_counts` reproduces the tree's level sizes without
building it: it sums over the blocks with suffix sums along their bounding
coordinates, in time about linear in the number of labels per level.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .core import (
    Pattern,
    SignedPermutation,
    _insert_word,
    find_occurrence_positions,
    find_occurrence_through,
)

__all__ = [
    "TreeLabel",
    "PermTreeNode",
    "TREE_PATTERNS",
    "tree_root",
    "children",
    "stats",
    "active_sites",
    "successors",
    "build_tree",
    "level_counts",
]


class TreeLabel(NamedTuple):
    x: int
    y: int
    z: int


PATTERN_2143 = Pattern((2, 1, 4, 3))
PATTERN_1234 = Pattern((1, 2, 3, 4))
TREE_PATTERNS = (PATTERN_1234, PATTERN_2143)

# The explicit tree is for desk-scale inspection only; the label dynamic
# program (level_counts) has no cap.
MAX_TREE_DEPTH = 6
MAX_TREE_J = 4


def _require_tree_pattern(pattern: Pattern) -> bool:
    """Return True for 2143, False for 1234, reject anything else."""
    if pattern == PATTERN_2143:
        return True
    if pattern == PATTERN_1234:
        return False
    raise ValueError(f"no generating tree for pattern {pattern}")


def tree_root(pattern: Pattern, j: int) -> SignedPermutation:
    """The unique avoider of size ``j`` whose positive images all sit at
    positive indices: increasing there for 2143, decreasing for 1234."""
    if j < 0:
        raise ValueError("statistic must be nonnegative")
    if _require_tree_pattern(pattern):
        return SignedPermutation(tuple(range(-j, 0)))
    return SignedPermutation(tuple(range(-1, -j - 1, -1)))


def _max_inserted(w: SignedPermutation) -> int:
    """Largest negative-half image, or 0 when none is positive."""
    return max((v for v in w.neg_images if v > 0), default=0)


def _require_avoider(w: SignedPermutation, pattern: Pattern) -> None:
    """The precondition of :func:`_trial_avoids`, checked on the whole word."""
    if find_occurrence_positions(w.full_images(), pattern) is not None:
        raise ValueError(f"{w} contains {pattern}")


def _trial_avoids(
    word: tuple[int, ...], site: int, gap: int, pattern: Pattern
) -> tuple[int, ...] | None:
    """Insert into a bare negative-half word that avoids ``pattern`` and
    test whether the result still avoids it.

    The insertion is :meth:`SignedPermutation.insert`'s, without the
    value-type construction; trees try (sites x gaps) candidates per node
    and most are thrown away, so the hot loop works on raw words.  A new
    occurrence must use the new pair ``(gap, -gap)``, and reflecting through
    the origin maps one through ``-gap`` onto one through ``gap``, because
    both tree patterns are their own reverse complement; so only
    occurrences through the ``gap`` entry are searched.  Returns the new
    word, or None when the insertion creates the pattern.
    """
    new_word, cut = _insert_word(word, site, gap)
    full = new_word + tuple(-v for v in reversed(new_word))
    if find_occurrence_through(full, pattern, cut) is None:
        return new_word
    return None


def _accepted(
    w: SignedPermutation, gap: int, pattern: Pattern
) -> list[tuple[int, tuple[int, ...]]]:
    """The ``(site, new word)`` pairs of every avoiding insertion at ``gap``,
    by increasing site; ``w`` must avoid ``pattern``."""
    trials = (
        (site, _trial_avoids(w.neg_images, site, gap, pattern))
        for site in range(1, w.n + 2)
    )
    return [(site, word) for site, word in trials if word is not None]


def _label_gap(w: SignedPermutation, is_2143: bool) -> int:
    """The gap whose trials give y: the lowest admissible one for 2143 (the
    current layer), the top one for 1234 (the top layer)."""
    return _max_inserted(w) + 1 if is_2143 else w.n + 1


def children(w: SignedPermutation, pattern: Pattern) -> list[SignedPermutation]:
    """All avoiding insertions of a new largest image into ``w``.

    Sites run over ``1..n+1``; gaps run strictly above the largest image
    already inserted, which is what makes the construction reach every
    avoider exactly once.
    """
    _require_tree_pattern(pattern)
    _require_avoider(w, pattern)
    return [
        SignedPermutation(word)
        for gap in range(_max_inserted(w) + 1, w.n + 2)
        for _, word in _accepted(w, gap, pattern)
    ]


def _sites_before_first_turn(w: SignedPermutation, is_2143: bool) -> int:
    """Sites whose left prefix is still monotone: increasing word means no
    descent yet (2143); decreasing word means no ascent yet (1234)."""
    word = w.neg_images
    if not word:
        return 1
    t = 0
    while t + 1 < len(word) and (word[t] < word[t + 1]) == is_2143:
        t += 1
    return t + 2


def _layer_number(w: SignedPermutation) -> int:
    if w.n == 0:
        return 1
    m = max(w.neg_images)
    heights = (-v for v in w.neg_images if v < 0)
    return 1 + sum(1 for h in heights if h > m)


def _label(w: SignedPermutation, is_2143: bool, y: int) -> TreeLabel:
    """The label of ``w`` given its active-site count ``y``."""
    return TreeLabel(_sites_before_first_turn(w, is_2143), y, _layer_number(w))


def active_sites(
    w: SignedPermutation, pattern: Pattern, gap: int | None = None
) -> tuple[int, ...]:
    """Sites where inserting the next largest image keeps ``w`` avoiding.

    The trial gap defaults to the lowest admissible one for 2143 (the
    current layer) and to the top gap for 1234 (the top layer); any gap
    within the same layer gives an order-isomorphic result, so the choice
    of representative does not matter.  Raises ``ValueError`` when ``w``
    contains ``pattern`` or ``gap`` lies outside ``1..n+1``.
    """
    is_2143 = _require_tree_pattern(pattern)
    if gap is None:
        gap = _label_gap(w, is_2143)
    elif not 1 <= gap <= w.n + 1:
        raise ValueError(f"gap {gap} outside 1..{w.n + 1}")
    _require_avoider(w, pattern)
    return tuple(site for site, _ in _accepted(w, gap, pattern))


def stats(w: SignedPermutation, pattern: Pattern) -> TreeLabel:
    """The label (x, y, z) of ``w`` in the generating tree for ``pattern``.

    >>> from .core import parse
    >>> stats(parse("[-6,4,-3,5,2,1]"), Pattern((2, 1, 4, 3)))
    TreeLabel(x=3, y=5, z=2)
    >>> stats(parse("[2,-3,4,-5,1,-6]"), Pattern((1, 2, 3, 4)))
    TreeLabel(x=3, y=7, z=3)
    """
    is_2143 = _require_tree_pattern(pattern)
    y = len(active_sites(w, pattern))  # rejects a containing w
    return _label(w, is_2143, y)


class _End(NamedTuple):
    """One end of a block side: ``label[axis] + offset``, or ``offset``
    alone when ``axis`` is None."""

    axis: int | None
    offset: int

    def at(self, label: tuple[int, ...]) -> int:
        return self.offset if self.axis is None else label[self.axis] + self.offset


class _Block(NamedTuple):
    """A box of children labels ``(i, yy, zz)`` of a parent ``(x, y, z)``.

    ``sides`` holds a ``(lo, hi)`` pair of ends per child coordinate; a side
    is fixed when its ends are equal.  A range is *summed* when its upper
    end reads a parent coordinate that no fixed side pins.  ``passes``
    holds, per summed range, its side, that coordinate, and a function that
    keys the lines along it by the other coordinates some end reads.
    ``box`` is ``sides`` with the ranges summed before the last pass fixed
    at their upper ends.
    """

    sides: tuple[tuple[_End, _End], ...]
    passes: tuple[tuple[int, int, Callable[[tuple[int, ...]], object]], ...]
    box: tuple[tuple[_End, _End], ...]


def _end(text: str) -> _End:
    """Parse an end such as ``"x+1"``, ``"z"`` or ``"2"``."""
    text = text.strip()
    if text[0] in "xyz":
        return _End("xyz".index(text[0]), int(text[1:] or 0))
    return _End(None, int(text))


def _block(text: str) -> _Block:
    """Parse a block written as three sides, such as ``"2..x+1, y+1, z"``.

    The label DP needs at least one summed range, no two bounded by the
    same coordinate, every range's lower end a constant or a parent
    coordinate that a fixed side pins, and, for each summed range, an end
    that reads some other coordinate.
    """
    sides = []
    for side in text.split(","):
        lo, _, hi = side.partition("..")
        sides.append((_end(lo), _end(hi or lo)))
    known = {None} | {lo.axis for lo, hi in sides if lo == hi}
    ranges = [(k, lo, hi) for k, (lo, hi) in enumerate(sides) if lo != hi]
    summed = [(k, hi.axis) for k, _, hi in ranges if hi.axis not in known]
    axes = [a for _, a in summed]
    loose = any(lo.axis not in known for _, lo, _ in ranges)
    if not summed or loose or len(set(axes)) < len(axes):
        raise ValueError(f"the label DP cannot sum the block {text!r}")
    read = sorted({end.axis for side in sides for end in side} - {None})
    passes = tuple((k, a, itemgetter(*(b for b in read if b != a))) for k, a in summed)
    early = {k for k, _ in summed[:-1]}
    box = tuple((s[1], s[1]) if k in early else s for k, s in enumerate(sides))
    return _Block(tuple(sides), passes, box)


# The succession rules, each stated once as blocks of children labels
# (i, yy, zz) of a parent (x, y, z); the key is whether the pattern is 2143.
_RULES = {
    True: tuple(
        map(_block, ("2..x+1, y+1, z", "x, x+1..y, z", "2..x+1, x+1, 1..z-1"))
    ),
    False: tuple(map(_block, ("2..x+1, y+1, 1..z", "x, x+1..y, 1"))),
}


def _blocks(pattern: Pattern) -> tuple[_Block, ...]:
    return _RULES[_require_tree_pattern(pattern)]


def successors(label: TreeLabel, pattern: Pattern) -> list[TreeLabel]:
    """The multiset of children labels under the succession rule.

    The rule's blocks, expanded layer by layer from the parent's down.
    Same-layer moves either bump the active-site count (new first turn
    right after the insertion) or keep ``x`` and shrink ``y``; moves into a
    lower layer restart the active-site count from the sites before the
    first turn.  For 1234 only the top layer admits the shrinking moves,
    and the active-site count carries over from layer to layer; at layer 1
    the two rules coincide.
    """
    x, y, z = label
    if not (1 <= x <= y and z >= 1):
        raise ValueError(f"invalid label {label}")
    out: list[TreeLabel] = []
    for block in _blocks(pattern):
        (i0, i1), (y0, y1), (z0, z1) = (
            (lo.at(label), hi.at(label)) for lo, hi in block.sides
        )
        out.extend(
            TreeLabel(i, yy, zz)
            for zz in range(z1, z0 - 1, -1)
            for yy in range(y0, y1 + 1)
            for i in range(i0, i1 + 1)
        )
    return out


def _lines(
    table: dict[tuple[int, ...], int],
    axis: int,
    line_key: Callable[[tuple[int, ...]], object],
) -> Iterable[tuple[tuple[int, ...], dict[int, int]]]:
    """Group ``table`` into lines along ``axis``: one ``(point, line)`` pair
    per line key, with a point of the line and the line's multiplicities
    by that coordinate.  Coordinates the key leaves out are summed over."""
    lines: dict[object, tuple[tuple[int, ...], dict[int, int]]] = {}
    for point, mult in table.items():
        key = line_key(point)
        if key not in lines:
            lines[key] = (point, {})
        line = lines[key][1]
        v = point[axis]
        line[v] = line.get(v, 0) + mult
    return lines.values()


def _sums_from_above(line: dict[int, int], low: int) -> list[int]:
    """Suffix sums of ``line``: entry ``v - low`` totals the line at or
    above ``v``, for ``v`` in ``low..max(line)``."""
    values = [line.get(v, 0) for v in range(max(line), low - 1, -1)]
    return list(accumulate(values))[::-1]


def _next_level(
    state: dict[tuple[int, ...], int], blocks: tuple[_Block, ...]
) -> dict[tuple[int, ...], int]:
    """One step of the label DP: the children of every label, with
    multiplicity, summed block by block without listing them.

    Along a line of parents that differ only in a summed bound ``c``
    (coordinates no end reads are summed out), a block's boxes differ only
    in that side, and a child whose side is ``s`` comes from exactly the
    parents with ``c >= s - offset``.  So each pass replaces ``c`` by
    suffix sums over it, a line at a time, and the last pass hands the
    sums out to the children: about one step per parent and one per child.
    """
    nxt: dict[tuple[int, ...], int] = {}
    for block in blocks:
        table = state
        *early, (k, axis, line_key) = block.passes
        for side, a, key in early:
            lo, hi = block.sides[side]
            summed: dict[tuple[int, ...], int] = {}
            for point, line in _lines(table, a, key):
                low = lo.at(point) - hi.offset
                for v, total in enumerate(_sums_from_above(line, low), low):
                    summed[point[:a] + (v,) + point[a + 1 :]] = total
            table = summed
        lo, hi = block.sides[k]
        for point, line in _lines(table, axis, line_key):
            low = lo.at(point)
            weights = _sums_from_above(line, low - hi.offset)
            box = [range(l.at(point), h.at(point) + 1) for l, h in block.box]
            box[k] = range(low, low + len(weights))
            for child in product(*box):
                nxt[child] = nxt.get(child, 0) + weights[child[k] - low]
    return nxt


class PermTreeNode:
    """A node of the explicit permutation-labeled tree, with its label.

    Mutable, and equal to another node with equal fields; a node made
    without ``children`` gets a new empty list.
    """

    __slots__ = ("perm", "label", "children")

    def __init__(
        self,
        perm: SignedPermutation,
        label: TreeLabel,
        children: list[PermTreeNode] | None = None,
    ) -> None:
        self.perm = perm
        self.label = label
        self.children = [] if children is None else children

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.perm == other.perm
                and self.label == other.label
                and self.children == other.children
            )
        return NotImplemented

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        return (
            f"PermTreeNode(perm={self.perm!r}, label={self.label!r}, "
            f"children={self.children!r})"
        )


def build_tree(pattern: Pattern, j: int, depth: int) -> PermTreeNode:
    """The explicit tree down to ``depth``; level ``d`` holds every avoider
    of size ``j + d`` with statistic ``j``, each exactly once.

    Each node's label is :func:`stats` of its permutation, read off the
    same trial insertions that grow its children.  Only the root is
    scanned whole for the pattern: an insertion the trials accept avoids
    it.  Capped at ``MAX_TREE_DEPTH`` and ``MAX_TREE_J``.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_TREE_DEPTH or j > MAX_TREE_J:
        raise ValueError(
            f"explicit tree capped at depth {MAX_TREE_DEPTH}, statistic "
            f"{MAX_TREE_J}; level_counts gives level sizes beyond the cap"
        )
    is_2143 = _require_tree_pattern(pattern)

    def grow(w: SignedPermutation, levels: int) -> PermTreeNode:
        label_gap = _label_gap(w, is_2143)
        gaps = range(_max_inserted(w) + 1, w.n + 2) if levels else (label_gap,)
        y = 0
        kids = []
        for gap in gaps:
            accepted = _accepted(w, gap, pattern)
            if gap == label_gap:
                y = len(accepted)
            if levels:
                kids.extend(
                    grow(SignedPermutation(word), levels - 1) for _, word in accepted
                )
        return PermTreeNode(w, _label(w, is_2143, y), kids)

    root = tree_root(pattern, j)
    _require_avoider(root, pattern)
    return grow(root, depth)


def level_counts(pattern: Pattern, j: int, max_depth: int) -> list[int]:
    """Avoider counts ``|B_{j+d}^j|`` for ``d = 0..max_depth`` by label DP.

    The state is a multiplicity map over labels, and one step sums the
    rule's blocks over it (:func:`_next_level`) in time about linear in
    the number of labels.  Labels stay within ``x <= y <= j+d+2`` and
    ``z <= j+1``, so the map stays polynomial in the depth.

    >>> level_counts(PATTERN_1234, 0, 6)
    [1, 1, 2, 6, 23, 103, 513]
    """
    if j < 0 or max_depth < 0:
        raise ValueError("arguments must be nonnegative")
    blocks = _blocks(pattern)
    state = {(j + 1, j + 1, j + 1): 1}
    counts = [1]
    for _ in range(max_depth):
        state = _next_level(state, blocks)
        counts.append(sum(state.values()))
    return counts
