"""Tree statistics, succession rules, and the label dynamic program."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sigperm.gentree
import sigperm.labeldp
import sigperm.labeltable
from sigperm.core import Pattern, SignedPermutation, parse, signed_permutations
from sigperm.gentree import (
    TreeLabel,
    active_sites,
    build_tree,
    children,
    grow_tree,
    level_counts,
    stats,
    successors,
    tree_root,
)
from sigperm.gentree import _accepted
from sigperm.labeldp import _next_level
from sigperm.labeltable import MAX_TABLE_N, _tables, tree_rows
from sigperm.gf import avoider_count_from_series
from sigperm.oracle import avoider_counts, classical_1234_formula, egge_formula

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")
BOTH = (P1234, P2143)
ROOT = Path(__file__).resolve().parent.parent


def reference_accepted(w, gap, pattern):
    """The trials of ``gentree._accepted`` through the public insertion and
    the whole-word avoidance check."""
    kids = ((site, w.insert(site, gap)) for site in range(1, w.n + 2))
    return [(site, kid.neg_images) for site, kid in kids if kid.avoids(pattern)]


@st.composite
def grown_avoiders(draw, pattern, min_n, max_n):
    """An avoider of size ``min_n..max_n``, grown one insertion at a time
    from the empty word, keeping a child only if the whole word avoids."""
    size = draw(st.integers(min_n, max_n))
    w = SignedPermutation(())
    while w.n < size:
        sites = range(1, w.n + 2)
        kids = [w.insert(site, gap) for site in sites for gap in sites]
        w = draw(st.sampled_from([kid for kid in kids if kid.avoids(pattern)]))
    return w


def tree_levels(root):
    """The nodes of an explicit tree, one list per level."""
    level = [root]
    while level:
        yield level
        level = [c for node in level for c in node.children]


def plain_next_level(state, pattern):
    """One label-DP step that lists every label's successors."""
    nxt = Counter()
    for label, mult in state.items():
        for child in successors(label, pattern):
            nxt[child] += mult
    return nxt


def as_rows(state):
    """A label multiplicity map as the label DP's state, one x-row per (z, y)."""
    rows = {}
    for (x, y, z), mult in state.items():
        rows.setdefault((z, y), [0] * (y + 1))[x] += mult
    return rows


def as_labels(rows):
    """The label DP's state as a label multiplicity map."""
    return {
        TreeLabel(x, y, z): mult
        for (z, y), row in rows.items()
        for x, mult in enumerate(row)
        if mult
    }


def dp_step(state, pattern):
    """One label-DP step on a label multiplicity map."""
    return as_labels(_next_level(as_rows(state), pattern == P2143))


def successors_recursive(label, pattern):
    """The succession rules exactly as recursions over the layer number.

    Kept here as the independent reference for the unrolled implementation.
    """
    x, y, z = label
    if z == 0:
        return []
    block1 = [TreeLabel(i, y + 1, z) for i in range(2, x + 2)]
    block2 = [TreeLabel(x, yy, z) for yy in range(x + 1, y + 1)]
    if pattern == P2143:
        return block1 + block2 + successors_recursive(TreeLabel(x, x, z - 1), pattern)
    if z == 1:
        return block1 + block2
    return block1 + successors_recursive(TreeLabel(x, y, z - 1), pattern)


class TestStats:
    def test_figure_fixtures(self):
        assert stats(parse("[-6,4,-3,5,2,1]"), P2143) == (3, 5, 2)
        assert stats(parse("[2,-3,4,-5,1,-6]"), P1234) == (3, 7, 3)

    @pytest.mark.parametrize("pattern", BOTH)
    @pytest.mark.parametrize("j", range(4))
    def test_root_label(self, pattern, j):
        assert stats(tree_root(pattern, j), pattern) == (j + 1, j + 1, j + 1)

    def test_rejects_containing_permutation(self):
        w = parse("[-2,-1]")  # embeds to 1234
        with pytest.raises(ValueError):
            stats(w, P1234)

    def test_rejects_other_patterns(self):
        with pytest.raises(ValueError):
            stats(parse("[-1]"), Pattern.parse("123"))

    @pytest.mark.parametrize("pattern", BOTH)
    def test_active_sites_rejects_containing_permutation(self, pattern):
        w = parse("[-2,-1]") if pattern == P1234 else parse("[-1,-2]")
        assert w.contains(pattern)
        with pytest.raises(ValueError, match="contains"):
            active_sites(w, pattern)

    def test_tree_patterns_are_their_own_reverse_complement(self):
        # trial insertions are searched only through the new positive entry,
        # which relies on this symmetry
        for pattern in sigperm.gentree.TREE_PATTERNS:
            assert pattern.reverse_complement() == pattern

    def test_top_layer_full_before_first_top_insertion(self):
        # while no image sits in the top layer (z >= 2), every site of a
        # 1234-avoider is active for the top layer
        for w in signed_permutations(4):
            if w.avoids(P1234):
                label = stats(w, P1234)
                if label.z >= 2:
                    assert label.y == w.n + 1

    def test_2143_lower_layers_have_x_active_sites(self):
        # layers strictly above the current one admit exactly the sites
        # before the first descent
        for w in signed_permutations(4):
            if not w.avoids(P2143):
                continue
            label = stats(w, P2143)
            heights = sorted(-v for v in w.neg_images if v < 0)
            for layer in range(1, label.z):
                # smallest gap landing in the given layer
                above = len(heights) - (layer - 1)
                gap = heights[above - 1] + 1 if above >= 1 else 1
                assert len(active_sites(w, P2143, gap)) == label.x

    @pytest.mark.parametrize("pattern", BOTH)
    def test_active_sites_rejects_gap_out_of_range(self, pattern):
        # the same range and message as SignedPermutation.insert
        w = parse("[2,-3,4,-5,1,-6]") if pattern == P1234 else parse("[-6,4,-3,5,2,1]")
        assert w.avoids(pattern)
        for gap in (0, -2, w.n + 2):
            with pytest.raises(ValueError, match=rf"gap {gap} outside 1\.\.7"):
                active_sites(w, pattern, gap)
            with pytest.raises(ValueError, match=rf"gap {gap} outside 1\.\.7"):
                w.insert(1, gap)


class TestRoots:
    def test_shapes(self):
        assert tree_root(P2143, 2) == parse("[-2,-1]")
        assert tree_root(P1234, 2) == parse("[-1,-2]")
        assert tree_root(P2143, 0) == parse("[]")

    @pytest.mark.parametrize("pattern", BOTH)
    def test_root_statistic(self, pattern):
        for j in range(4):
            root = tree_root(pattern, j)
            assert root.positive_entries() == j
            assert root.avoids(pattern)


class TestChildren:
    def test_empty_root_has_single_child(self):
        assert children(parse("[]"), P2143) == [parse("[1]")]

    def test_trial_word_path_matches_public_insert(self):
        # the raw-sequence trial loop used inside children/active_sites must
        # be the same map as SignedPermutation.insert plus an avoidance
        # check, on its precondition: the word avoids the pattern
        for w in signed_permutations(4):
            for pattern in BOTH:
                if w.contains(pattern):
                    continue
                for gap in range(1, w.n + 2):
                    assert _accepted(w, gap, pattern) == reference_accepted(w, gap, pattern)

    @pytest.mark.parametrize("pattern", BOTH)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_trial_loop_matches_public_insert_past_four(self, pattern, data):
        w = data.draw(grown_avoiders(pattern, 5, 8))
        for gap in range(1, w.n + 2):
            assert _accepted(w, gap, pattern) == reference_accepted(w, gap, pattern)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_root_of_statistic_two_has_nine_children(self, pattern):
        # the rule expansion of the root label (3,3,3) yields three labels
        # per layer over three layers
        kids = children(tree_root(pattern, 2), pattern)
        assert len(kids) == 9
        assert len(successors(TreeLabel(3, 3, 3), pattern)) == 9

    def test_rejects_containing_permutation(self):
        with pytest.raises(ValueError):
            children(parse("[-2,-1]"), P1234)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_children_are_distinct_avoiding_extensions(self, pattern):
        # exactly the avoiding public insertions above the largest inserted
        # image, gap by gap and site by site
        for n in range(4):
            for w in signed_permutations(n):
                if not w.avoids(pattern):
                    continue
                m = max((v for v in w.neg_images if v > 0), default=0)
                want = [
                    w.insert(s, g)
                    for g in range(m + 1, n + 2)
                    for s in range(1, n + 2)
                    if w.insert(s, g).avoids(pattern)
                ]
                assert children(w, pattern) == want, w
                assert len(set(want)) == len(want)


class TestSuccessionRule:
    def test_expansion_of_root_label(self):
        got = Counter(successors(TreeLabel(3, 3, 3), P2143))
        want = Counter(
            TreeLabel(i, 4, z) for i in (2, 3, 4) for z in (3, 2, 1)
        )
        assert got == want

    def test_rules_coincide_in_the_top_layer(self):
        for x in range(1, 6):
            for y in range(x, 7):
                label = TreeLabel(x, y, 1)
                assert Counter(successors(label, P1234)) == Counter(
                    successors(label, P2143)
                )

    @pytest.mark.parametrize("pattern", BOTH)
    def test_iterative_matches_recursive(self, pattern):
        # successors expands the rule's blocks
        for x in range(1, 6):
            for y in range(x, 8):
                for z in range(1, 5):
                    label = TreeLabel(x, y, z)
                    assert Counter(successors(label, pattern)) == Counter(
                        successors_recursive(label, pattern)
                    )

    def test_layer_descent_traces(self):
        # 2143 recurses through (x, x, z-1): every lower-layer label carries
        # the active-site count x+1.  1234 recurses through (x, y, z-1):
        # every bumping label carries y+1 whatever its layer.
        for x in range(1, 5):
            for y in range(x, 6):
                for z in range(2, 5):
                    for lab in successors(TreeLabel(x, y, z), P2143):
                        if lab.z < z:
                            assert lab.y == x + 1
                    for lab in successors(TreeLabel(x, y, z), P1234):
                        if lab.y == y + 1:
                            assert 1 <= lab.z <= z
                        else:
                            assert lab.z == 1 and lab.x == x

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            successors(TreeLabel(3, 2, 1), P2143)
        with pytest.raises(ValueError):
            successors(TreeLabel(1, 1, 0), P2143)


class TestTreeIsomorphism:
    @pytest.mark.parametrize("pattern", BOTH)
    @pytest.mark.parametrize("j", range(3))
    def test_children_stats_match_rule(self, pattern, j):
        for level in tree_levels(build_tree(pattern, j, 3)):
            for node in level:
                kids = children(node.perm, pattern)
                got = Counter(stats(c, pattern) for c in kids)
                want = Counter(successors(stats(node.perm, pattern), pattern))
                assert got == want, node.perm

    @pytest.mark.parametrize("pattern", BOTH)
    def test_active_sites_shrink_along_edges(self, pattern):
        # within a fixed layer, inserting splits one active site in two and
        # can only deactivate others
        for j in range(2):
            levels = tree_levels(build_tree(pattern, j, 2))
            for node in (node for level in levels for node in level):
                w = node.perm
                heights = sorted(-v for v in w.neg_images if v < 0)
                m = max((v for v in w.neg_images if v > 0), default=0)
                for gap in range(m + 1, w.n + 2):
                    old = set(active_sites(w, pattern, gap))
                    layer_top = sum(1 for h in heights if h >= gap)
                    for site in old:
                        child = w.insert(site, gap)
                        # gap of the child landing in the same layer
                        new_heights = sorted(
                            -v for v in child.neg_images if v < 0
                        )
                        candidates = [
                            g
                            for g in range(gap + 1, child.n + 2)
                            if sum(1 for h in new_heights if h >= g) == layer_top
                        ]
                        if not candidates:
                            continue
                        new = set(active_sites(child, pattern, candidates[0]))
                        survivors = {
                            s if s < site else s + 1 for s in old - {site}
                        } | {site, site + 1}
                        assert new <= survivors, (w, site, gap)


class TestExplicitTree:
    @pytest.mark.parametrize("pattern", BOTH)
    def test_levels_are_avoider_sets(self, pattern, monkeypatch):
        # every avoider appears exactly once, at the level matching its size
        monkeypatch.setattr(sigperm.gentree, "MAX_TREE_J", 5)
        for n in range(6):
            for j in range(n + 1):
                frontier = [build_tree(pattern, j, n - j)]
                for _ in range(n - j):
                    frontier = [c for node in frontier for c in node.children]
                perms = [node.perm for node in frontier]
                assert len(set(perms)) == len(perms)
                expected = {
                    w
                    for w in signed_permutations(n)
                    if w.positive_entries() == j and w.avoids(pattern)
                }
                assert set(perms) == expected, (n, j)

    @pytest.mark.parametrize("pattern", BOTH)
    def test_no_permutation_appears_twice_anywhere(self, pattern):
        seen = Counter(
            node.perm
            for level in tree_levels(build_tree(pattern, 1, 3))
            for node in level
        )
        assert all(count == 1 for count in seen.values())

    @pytest.mark.parametrize("pattern", BOTH)
    @pytest.mark.parametrize("j", range(3))
    def test_unchecked_children_equal_checked_ones(self, pattern, j):
        # the tree builds its children without the constructor's checks;
        # each must be the element the checked constructor makes
        for level in tree_levels(build_tree(pattern, j, 4)):
            for node in level:
                w = node.perm
                assert w == SignedPermutation(w.neg_images)
                assert type(w.neg_images) is tuple and w.n == len(w.neg_images)

    @pytest.mark.parametrize("pattern", BOTH)
    @pytest.mark.parametrize("j", range(3))
    def test_nodes_carry_their_labels(self, pattern, j):
        for depth, level in enumerate(tree_levels(build_tree(pattern, j, 3))):
            for node in level:
                assert node.label == stats(node.perm, pattern), node.perm
                if depth < 3:
                    got = Counter(c.label for c in node.children)
                    assert got == Counter(successors(node.label, pattern))

    @pytest.mark.parametrize("pattern", BOTH)
    def test_one_whole_scan_and_one_trial_pass(self, pattern, monkeypatch):
        # only the root is scanned whole, and no (node, gap) trials repeat
        scans, trials = [], []
        true_scan = sigperm.gentree.find_occurrence_positions
        true_accepted = sigperm.gentree._accepted

        def scan(seq, p):
            scans.append(tuple(seq))
            return true_scan(seq, p)

        def accepted(w, gap, p):
            trials.append((w, gap))
            return true_accepted(w, gap, p)

        monkeypatch.setattr(sigperm.gentree, "find_occurrence_positions", scan)
        monkeypatch.setattr(sigperm.gentree, "_accepted", accepted)
        root = build_tree(pattern, 1, 3)
        assert scans == [root.perm.full_images()]
        assert len(set(trials)) == len(trials)
        assert {w for w, _ in trials} == {
            node.perm for level in tree_levels(root) for node in level
        }
        # children: one whole scan, one trial pass per admissible gap
        w = root.children[0].children[0].perm
        m = max(v for v in w.neg_images if v > 0)
        assert w.n + 1 - m >= 2  # more than one gap to try
        del scans[:], trials[:]
        children(w, pattern)
        assert scans == [w.full_images()]
        assert trials == [(w, gap) for gap in range(m + 1, w.n + 2)]
        # stats: one whole scan, one trial pass at the gap that gives y
        label_gap = m + 1 if pattern == P2143 else w.n + 1
        del scans[:], trials[:]
        stats(w, pattern)
        assert scans == [w.full_images()]
        assert trials == [(w, label_gap)]

    def test_grow_tree_grows_children_when_reached(self, monkeypatch):
        # checks first, then one trial pass for the root; each child's pass
        # runs only when the children iterator reaches it
        expanded = []
        true_expand = sigperm.gentree._expand

        def expand(w, *args):
            expanded.append(w)
            return true_expand(w, *args)

        monkeypatch.setattr(sigperm.gentree, "_expand", expand)
        root = grow_tree(P2143, 1, 2, lambda perm, label, kids: (perm, label, kids))
        assert expanded == [root[0]]
        first = next(root[2])
        assert expanded == [root[0], first[0]]
        with pytest.raises(ValueError, match="capped"):
            grow_tree(P2143, 3, 6, lambda *node: node)
        assert len(expanded) == 2
        assert first[1] == stats(first[0], P2143)

    def test_caps(self, monkeypatch):
        # the node cap counts the tree by level_counts before growing it
        for j, depth in [(5, 1), (3, 6), (4, 5), (4, 6), (0, 10), (1, 8), (0, 10**9)]:
            with pytest.raises(ValueError, match="capped"):
                build_tree(P2143, j, depth)
        sizes = [len(level) for level in tree_levels(build_tree(P2143, 0, 7))]
        assert sizes == level_counts(P2143, 0, 7)  # 3 410 nodes, past the old depth cap
        monkeypatch.setattr(sigperm.gentree, "MAX_TREE_J", 5)
        build_tree(P2143, 5, 1)  # the caps are read at call time
        monkeypatch.setattr(sigperm.gentree, "MAX_TREE_NODES", 1_000)
        with pytest.raises(ValueError, match="1000 nodes"):
            build_tree(P2143, 1, 5)  # 2 760 nodes
        build_tree(P2143, 1, 4)  # 512 nodes


class TestLevelCounts:
    def test_classical_slice(self):
        assert level_counts(P2143, 0, 6) == [1, 1, 2, 6, 23, 103, 513]
        assert level_counts(P1234, 0, 6) == [1, 1, 2, 6, 23, 103, 513]

    def test_level_zero(self):
        for pattern in BOTH:
            for j in range(4):
                assert level_counts(pattern, j, 0) == [1]

    @pytest.mark.parametrize("pattern", BOTH)
    def test_matches_brute_force(self, pattern):
        for n in range(6):
            row = avoider_counts(n, pattern)
            for j in range(n + 1):
                assert level_counts(pattern, j, n - j)[-1] == row[j]

    def test_label_bounds(self):
        # the DP state stays inside x <= y <= j + d + 2, z <= j + 1, and
        # keeps only rows that hold a label
        for pattern in BOTH:
            j = 2
            rows = as_rows({TreeLabel(j + 1, j + 1, j + 1): 1})
            for depth in range(5):
                rows = _next_level(rows, pattern == P2143)
                assert all(any(row) for row in rows.values())
                for x, y, z in as_labels(rows):
                    assert 1 <= x <= y <= j + depth + 3
                    assert 1 <= z <= j + 1

    @pytest.mark.parametrize("pattern", BOTH)
    def test_one_step_per_label_matches_successors(self, pattern):
        # the rule is stated twice, listed by successors and summed by the DP
        for x in range(1, 7):
            for y in range(x, 10):
                for z in range(1, 6):
                    label = TreeLabel(x, y, z)
                    want = Counter(successors(label, pattern))
                    assert dp_step({label: 1}, pattern) == want, label

    @pytest.mark.parametrize("pattern", BOTH)
    def test_row_sums_match_plain_expansion(self, pattern):
        # the reference lists every label's successors, one label at a time
        for j in range(5):
            plain = summed = {TreeLabel(j + 1, j + 1, j + 1): 1}
            sizes = [1]
            for _ in range(8):
                plain = plain_next_level(plain, pattern)
                summed = dp_step(summed, pattern)
                assert summed == dict(plain)
                sizes.append(sum(plain.values()))
            assert level_counts(pattern, j, 8) == sizes

    @pytest.mark.parametrize("pattern", BOTH)
    def test_deep_roots(self, pattern):
        # a DP that allocated the whole label box up front could not run these
        children_of_root = successors(TreeLabel(501, 501, 501), pattern)
        assert level_counts(pattern, 500, 1) == [1, len(children_of_root)]
        assert level_counts(pattern, 2000, 0) == [1]

    def test_far_row_agrees_with_series_and_formulas(self):
        # n = 30 is out of a test's reach when the DP lists every child label
        n = 30
        rows = {}
        for pattern in BOTH:
            rows[str(pattern)] = tree_rows(n, pattern)
            assert rows[str(pattern)] == avoider_count_from_series(n, pattern)
        assert rows["1234"] == rows["2143"]
        for m, row in enumerate(rows["1234"]):
            assert sum(row) == egge_formula(m), m
            assert row[0] == classical_1234_formula(m), m


class TestTreeRows:
    @pytest.mark.parametrize("pattern", BOTH)
    def test_smaller_triangle_is_a_prefix(self, pattern):
        big = tree_rows(12, pattern)
        for max_n in (0, 1, 5, 12):
            assert tree_rows(max_n, pattern) == big[: max_n + 1]

    def test_rejects_negative_size_and_other_patterns(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tree_rows(-1, P2143)
        with pytest.raises(ValueError, match="no generating tree"):
            tree_rows(3, Pattern.parse("1243"))

    def test_reads_one_table_without_gentree(self, monkeypatch):
        # the forward DP is the table's reference, so the table must not
        # run it, nor load the module that holds it
        def refuse(*args):
            raise AssertionError("tree_rows ran the forward label DP")

        monkeypatch.setattr(sigperm.gentree, "level_counts", refuse)
        monkeypatch.setattr(sigperm.labeldp, "level_counts", refuse)
        monkeypatch.setattr(sigperm.labeldp, "_next_level", refuse)
        assert tree_rows(4, P1234)[4] == (23, 80, 63, 16, 1)
        script = (
            "import sys; from sigperm.core import PATTERN_2143;"
            "from sigperm.labeltable import tree_rows; tree_rows(5, PATTERN_2143);"
            "print(any(m in sys.modules for m in ('sigperm.gentree', 'sigperm.labeldp')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["False"]


def descendants_by_rule(pattern):
    """N_r(label) as a memoised recursion over the listed rule."""

    @lru_cache(maxsize=None)
    def count(label, r):
        if r == 0:
            return 1
        return sum(count(child, r - 1) for child in successors(label, pattern))

    return count


class TestLabelTable:
    @pytest.mark.parametrize("pattern", BOTH)
    def test_every_cell_matches_level_counts(self, pattern):
        max_n = 20
        rows = tree_rows(max_n, pattern)
        for j in range(max_n + 1):
            column = level_counts(pattern, j, max_n - j)
            assert [rows[n][j] for n in range(j, max_n + 1)] == column, j

    @pytest.mark.parametrize("pattern", BOTH)
    def test_every_label_matches_the_listed_rule(self, pattern):
        # the table's sums against the rule child by child, not against
        # the forward DP's own sums
        count = descendants_by_rule(pattern)
        max_n = 10
        for r, table in enumerate(islice(_tables(max_n, pattern == P2143), 6)):
            assert len(table) == max_n + 1 - r
            assert all(len(row) == y for plane in table for y, row in enumerate(plane, 1))
            for y in range(1, 7):
                for z in range(1, 7):
                    for x in range(1, y + 1):
                        label = TreeLabel(x, y, z)
                        assert table[z - 1][y - 1][x - 1] == count(label, r), (label, r)

    def test_refuses_past_the_cap_before_allocating(self, monkeypatch):
        # the message is matched after tracing stops: compiling the pattern
        # can resize the re module's cache, which is no allocation of ours
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refused:
                tree_rows(MAX_TABLE_N + 1, P2143)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        refused.match(f"capped at size {MAX_TABLE_N}")
        # the cap is read at call time
        monkeypatch.setattr(sigperm.labeltable, "MAX_TABLE_N", 5)
        assert tree_rows(5, P1234)[5] == avoider_counts(5, P1234)
        with pytest.raises(ValueError, match="capped at size 5"):
            tree_rows(6, P1234)


@pytest.mark.slow
def test_tree_triangle_at_eighty_equals_the_series_triangle():
    # the label table against the independent series triangle, cell by cell
    for pattern in BOTH:
        assert tree_rows(80, pattern) == avoider_count_from_series(80, pattern)
