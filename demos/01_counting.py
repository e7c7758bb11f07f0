#!/usr/bin/env python3
"""Counting pattern-avoiding signed permutations, three independent ways.

A signed permutation acts on {-n,..,-1,1,..,n} with w(i) = -w(-i); it avoids
a classical pattern when its full image sequence does.  This script counts
the avoiders of 1234 and 2143, refined by the number j of positive indices
with positive images, and shows that exhaustive search, the generating-tree
dynamic program, and generating-function coefficient extraction all agree.
"""

from sigperm import (
    Pattern,
    avoider_count_from_series,
    avoider_counts,
    egge_formula,
    level_counts,
    parse,
    type_d_avoiders,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")

print("A first taste: the eight signed permutations of size 2.")
w = parse("[-2,-1]")  # the identity: w(-2) = -2, w(-1) = -1, w(1) = 1, ...
print(f"  {w} embeds into S_4 as {w.standardized()}  (contains 1234)")
w = parse("[1,-2]")
print(f"  {w} embeds into S_4 as {w.standardized()}  (avoids both patterns)")
print()

print("Avoider counts by the statistic j, three methods per cell:")
print(f"{'n':>2} {'j':>2} {'brute':>8} {'tree':>8} {'series':>8}")
series_rows = avoider_count_from_series(5, P2143)  # every row n <= 5 at once
for n in range(6):
    brute_row = avoider_counts(n, P2143)
    for j in range(n + 1):
        tree = level_counts(P2143, j, n - j)[-1]
        series = series_rows[n][j]
        assert brute_row[j] == tree == series
        print(f"{n:>2} {j:>2} {brute_row[j]:>8} {tree:>8} {series:>8}")
print()

print("The refined counts agree between the two patterns, so their totals")
print("match Egge's binomial-Catalan sum:")
print(f"{'n':>2} {'1234':>8} {'2143':>8} {'sum C(n,j)^2 C_j':>18}")
for n in range(7):
    t1 = sum(avoider_counts(n, P1234))
    t2 = sum(avoider_counts(n, P2143))
    print(f"{n:>2} {t1:>8} {t2:>8} {egge_formula(n):>18}")
print()

print("Restricting to the type-D subgroup (evenly many sign changes) keeps")
print("the two patterns tied as well:")
for n in range(1, 7):
    d1 = type_d_avoiders(n, P1234)
    d2 = type_d_avoiders(n, P2143)
    print(f"  n={n}: |D_n(1234)| = {d1:>5}   |D_n(2143)| = {d2:>5}")
