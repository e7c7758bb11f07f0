#!/usr/bin/env python3
"""Growing avoiders one insertion at a time: the generating trees.

Every avoider is built uniquely from the smallest avoider with its statistic
by inserting a new largest image into the negative half.  Three statistics
(x, y, z) of a node determine the multiset of its children's statistics, so
a dynamic program over labels reproduces the tree's level sizes without
touching permutations at all.
"""

from collections import Counter

from sigperm import (
    Pattern,
    active_sites,
    build_tree,
    children,
    level_counts,
    parse,
    stats,
    successors,
    tree_root,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")

print("The two worked statistics examples:")
w = parse("[-6,4,-3,5,2,1]")
print(f"  {w} avoiding 2143 -> (x, y, z) = {tuple(stats(w, P2143))}")
print(f"    active sites in the current layer: {active_sites(w, P2143)}")
w = parse("[2,-3,4,-5,1,-6]")
print(f"  {w} avoiding 1234 -> (x, y, z) = {tuple(stats(w, P1234))}")
print(f"    active sites in the top layer:     {active_sites(w, P1234)}")
print()

print("Roots carry the label (j+1, j+1, j+1); their children realize the")
print("succession rule exactly:")
for pattern in (P2143, P1234):
    root = tree_root(pattern, 2)
    kids = children(root, pattern)
    label = stats(root, pattern)
    print(f"  pattern {pattern}: root {root}, label {tuple(label)}")
    got = Counter(tuple(stats(c, pattern)) for c in kids)
    want = Counter(tuple(lab) for lab in successors(label, pattern))
    assert got == want
    for lab, mult in sorted(got.items()):
        print(f"    child label {lab} x{mult}")
print()

print("One explicit tree, two levels deep (pattern 2143, j = 1).  Each node")
print("carries its label, read off the same trial insertions that grew its")
print("children, so the labels below cost no second pass:")
tree = build_tree(P2143, 1, 2)


def show(node, indent):
    print(f"{'  ' * indent}{node.perm}  {tuple(node.label)}")
    for child in node.children:
        show(child, indent + 1)


show(tree, 1)
print()

print("Level sizes from the label dynamic program (no permutations built):")
for j in range(3):
    counts = level_counts(P2143, j, 6 - j)
    print(f"  j={j}: sizes of levels 0..{6 - j}: {counts}")
print("The j=0 row is the classical avoider sequence 1, 1, 2, 6, 23, 103, 513.")
