#!/usr/bin/env python3
"""From trees to lattice paths to one-variable series.

Walks down a generating tree are lattice paths in Z^3.  Recording the steps
that bump the active-site count (and, for 2143, the layer drops) compresses
a path to its signature; counting paths by signature gives a series in t
that obeys a three-line recursion.  The punchline: the series is the same
for both succession rules, even though the trees are very different - and
single coefficients of it are exact avoider counts.
"""

from itertools import pairwise

from sigperm import (
    Pattern,
    SeriesCache,
    avoider_count_from_series,
    avoider_counts,
    f_series,
    is_recorded,
    path_profile,
    signature_of,
    signatures,
)

P1234 = Pattern.parse("1234")
P2143 = Pattern.parse("2143")

print("Two paths, one per rule, with the same signature:")
path_a = [(4, 4, 3), (3, 5, 3), (3, 5, 3), (4, 4, 2), (2, 5, 2),
          (2, 4, 2), (2, 4, 2), (2, 3, 1), (2, 4, 1), (2, 4, 1)]
path_b = [(4, 4, 3), (3, 5, 3), (4, 6, 3), (2, 7, 2), (2, 8, 1), (2, 7, 1),
          (2, 7, 1), (2, 5, 1), (2, 4, 1), (2, 4, 1), (2, 5, 1), (2, 4, 1)]
for pattern, path in ((P2143, path_a), (P1234, path_b)):
    arrows = "".join(
        "R" if is_recorded(a, b, pattern) else "." for a, b in pairwise(path)
    )
    print(f"  {pattern} path: {len(path)} points, steps {arrows}, "
          f"signature {signature_of(path, pattern)}")
print()

print("The series only needs prefix sums: s^k has coefficients C(d+k-1, k-1).")
print("A series is shown as its coefficients of t^0, ..., t^6.")
print(f"  F(2143, k=2, q=1, gamma=(3,)) = {f_series(P2143, 2, 1, (3,), 6)}")
print()

print("Both recursions produce identical series:")
for gamma in [(2,), (2, 3), (3, 2, 2), (1, 2, 3)]:
    a = f_series(P2143, 1, 3, gamma, 6)
    b = f_series(P1234, 1, 3, gamma, 6)
    assert a == b
    print(f"  gamma={gamma}: {a}")
print()

print("Brute-force path enumeration agrees with the recursion coefficient")
print("by coefficient (start (2,3,2), signature (2,3), both rules):")
for pattern in (P2143, P1234):
    profile = path_profile(pattern, (2, 3, 2), 6)
    series = f_series(pattern, 1, 2, (2, 3), 4)
    counted = [profile.get(((2, 3), d), 0) for d in range(5)]
    print(f"  {pattern}: enumerated {counted}, series {list(series)}")
    assert counted == list(series)
print()

print("Avoider counts are single coefficients, summed over signatures;")
print("the library sums the signatures inside the recursion instead:")
n = 5
summed_row = avoider_count_from_series(n, P2143)[n]
brute_row = avoider_counts(n, P2143)
for j in range(n + 1):
    r = n - j + 1
    sigs = signatures(j + 1, r)
    cache = SeriesCache(r)
    extracted = sum(
        cache.series(P2143, 0, j + 1, g)[r - len(g)] for g in sigs
    )
    summed, brute = summed_row[j], brute_row[j]
    print(f"  n={n}, j={j}: {len(sigs):>3} signatures -> {extracted:>4} "
          f"(summed series: {summed}, exhaustive search: {brute})")
    assert extracted == summed == brute
