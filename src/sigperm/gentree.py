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

One pass of trial insertions per node gives both its label and its
children; :func:`children`, :func:`stats` and :func:`grow_tree` all run
that pass, and :func:`active_sites` answers for a single gap.  The trials
work on the node's full image sequence, shifted once per gap to make room
for ``±gap``; one :func:`~sigperm.core.avoiding_insertions` sweep then puts
``gap`` and ``-gap`` at the mirror indices of every site and searches each
child for the pattern only through ``gap``.

The label of a node determines the multiset of its children's labels.
:func:`successors` lists each succession rule child by child.  Two label
dynamic programs reproduce the tree's level sizes without building it, and
neither loads this module or the kernel: :func:`level_counts`, re-exported
here from the leaf :mod:`sigperm.labeldp`, runs the rules forward from one
root, and :mod:`sigperm.labeltable` runs them backward in one table for
the whole triangle of rows ``n <= N``.  :func:`grow_tree` counts a tree's
nodes with ``level_counts``, read through this module, before growing it.
The tests check the statements of each rule against each other.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, TypeVar

from .core import SignedPermutation, avoiding_insertions, find_occurrence_positions

# the forward label DP lives in a leaf module, which `count --method tree
# --j` loads without this module or the kernel; it is re-exported here
from .labeldp import level_counts

# the tree patterns live in a leaf module, which the label table and the
# series route share without loading this module or the kernel; they are
# re-exported here
from .pattern import (
    PATTERN_1234,
    PATTERN_2143,
    TREE_PATTERNS,
    Pattern,
    _require_tree_pattern,
)

__all__ = [
    "TreeLabel",
    "PermTreeNode",
    "tree_root",
    "children",
    "stats",
    "active_sites",
    "successors",
    "grow_tree",
    "build_tree",
]

T = TypeVar("T")


class TreeLabel(NamedTuple):
    x: int
    y: int
    z: int


# The explicit tree is for desk-scale inspection only; the label dynamic
# program (level_counts) has no cap.  `sigperm tree --j 3 --depth 5 --format
# json` grows 102 230 nodes and streams 29.5 MB of JSON: 3.9-4.4 s for 2143
# and 4.1-5.0 s for 1234, at 16.1-16.2 MB peak RSS for either (2 vCPUs,
# Python 3.11).  The dump holds one path of the tree, so the caps bound its
# time.
MAX_TREE_NODES = 150_000
MAX_TREE_J = 4


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
    """The precondition of :func:`_accepted`, checked on the whole word."""
    if find_occurrence_positions(w.full_images(), pattern) is not None:
        raise ValueError(f"{w} contains {pattern}")


def _accepted(
    w: SignedPermutation, gap: int, pattern: Pattern
) -> list[tuple[int, tuple[int, ...]]]:
    """The ``(site, new negative half)`` pairs of every avoiding insertion
    at ``gap``, by increasing site; ``w`` must avoid ``pattern``.

    This is :meth:`SignedPermutation.insert` plus an avoidance check, on raw
    image sequences: trees try (sites x gaps) candidates per node and most
    are thrown away.  The entries of ``w`` with ``|v| >= gap`` move one step
    away from zero once per gap; one :func:`~sigperm.core.avoiding_insertions`
    sweep then tries ``gap`` at every ``cut = n + 1 - site`` of the negative
    half and ``-gap`` at the mirror index.  A new occurrence must use
    ``gap`` or ``-gap``, and reflecting through the origin maps one through
    ``-gap`` onto one through ``gap``, because both tree patterns are their
    own reverse complement; so the sweep's check through ``gap`` decides.
    """
    n = w.n
    full = [v if abs(v) < gap else (v - 1 if v < 0 else v + 1) for v in w.full_images()]
    sweep = avoiding_insertions(full, gap, pattern)
    return [(n + 1 - cut, child[: n + 1]) for cut, child in reversed(sweep)]


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
    is_2143 = _require_tree_pattern(pattern)
    _require_avoider(w, pattern)
    return _expand(w, pattern, is_2143, True)[1]


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


def _expand(
    w: SignedPermutation, pattern: Pattern, is_2143: bool, grow: bool
) -> tuple[TreeLabel, list[SignedPermutation]]:
    """The label of ``w`` and, if ``grow``, its children, from one pass of
    trial insertions; ``w`` must avoid ``pattern``.  y is read at
    :func:`_label_gap`, the only gap tried when not growing."""
    label_gap = _label_gap(w, is_2143)
    y, kids = 0, []
    for gap in range(_max_inserted(w) + 1, w.n + 2) if grow else (label_gap,):
        accepted = _accepted(w, gap, pattern)
        if gap == label_gap:
            y = len(accepted)
        if grow:
            kids += (SignedPermutation._unchecked(word) for _, word in accepted)
    return TreeLabel(_sites_before_first_turn(w, is_2143), y, _layer_number(w)), kids


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
    _require_avoider(w, pattern)
    return _expand(w, pattern, is_2143, False)[0]


def successors(label: TreeLabel, pattern: Pattern) -> list[TreeLabel]:
    """The multiset of children labels under the succession rule.

    Children are listed layer by layer from the parent's down.  Same-layer
    moves either bump the active-site count (new first turn right after the
    insertion) or keep ``x`` and shrink ``y``; moves into a lower layer
    restart the active-site count from the sites before the first turn.
    For 1234 only the top layer admits the shrinking moves, and the
    active-site count carries over from layer to layer; at layer 1 the two
    rules coincide.  ``labeldp._next_level`` sums the same rules.
    """
    x, y, z = label
    if not (1 <= x <= y and z >= 1):
        raise ValueError(f"invalid label {label}")
    sites = range(2, x + 2)
    if _require_tree_pattern(pattern):
        return (
            [TreeLabel(i, y + 1, z) for i in sites]
            + [TreeLabel(x, yy, z) for yy in range(x + 1, y + 1)]
            + [TreeLabel(i, x + 1, zz) for zz in range(z - 1, 0, -1) for i in sites]
        )
    return [TreeLabel(i, y + 1, zz) for zz in range(z, 0, -1) for i in sites] + [
        TreeLabel(x, yy, 1) for yy in range(x + 1, y + 1)
    ]


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


def grow_tree(
    pattern: Pattern,
    j: int,
    depth: int,
    node: Callable[[SignedPermutation, TreeLabel, Iterator[T]], T],
) -> T:
    """The explicit tree down to ``depth``, each node made by ``node(perm,
    label, children)``; level ``d`` holds every avoider of size ``j + d``
    with statistic ``j``, each exactly once.

    ``children`` is an iterator that grows each child, its subtree made the
    same way, only when it is reached, so a caller that consumes each
    subtree as it ends holds one path of the tree at a time.  Each node's
    label is :func:`stats` of its permutation, read off the same trial
    insertions that grow its children.  Only the root is scanned whole for
    the pattern: an insertion the trials accept avoids it.  Capped at
    statistic ``MAX_TREE_J`` and ``MAX_TREE_NODES`` nodes, checked before
    any node is made.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    is_2143 = _require_tree_pattern(pattern)
    root = tree_root(pattern, j)
    # every node below the root has x >= 2, so at least two children: a tree
    # of this depth has at least 2**depth nodes, and the label DP need not run
    too_deep = depth >= MAX_TREE_NODES.bit_length()
    if j > MAX_TREE_J or too_deep or sum(level_counts(pattern, j, depth)) > MAX_TREE_NODES:
        raise ValueError(
            f"explicit tree capped at statistic {MAX_TREE_J} and "
            f"{MAX_TREE_NODES} nodes; level_counts gives level sizes beyond the cap"
        )

    def grow(w: SignedPermutation, levels: int) -> T:
        label, kids = _expand(w, pattern, is_2143, levels > 0)
        return node(w, label, (grow(kid, levels - 1) for kid in kids))

    _require_avoider(root, pattern)
    return grow(root, depth)


def build_tree(pattern: Pattern, j: int, depth: int) -> PermTreeNode:
    """The explicit tree down to ``depth`` (:func:`grow_tree`), every node
    a :class:`PermTreeNode` with its children grown.

    >>> [len(c.children) for c in build_tree(PATTERN_2143, 1, 2).children]
    [6, 5, 3, 3]
    """
    return grow_tree(pattern, j, depth, lambda w, label, kids: PermTreeNode(w, label, list(kids)))
