#!/usr/bin/env python3
"""Probing the same refinement for length-5 patterns.

The pair 12345 / 21354 is the natural next candidate: in the symmetric
group the two are equinumerous, and on the full-statistic slice both reduce
to Catalan numbers.  Exhaustive search confirms the refined counts agree
for every size this desk-scale sweep reaches.  (The command-line tool runs
the same sweep at size 7 behind --allow-long.)
"""

from sigperm import Pattern, avoider_counts, catalan

p12345 = Pattern.parse("12345")
p21354 = Pattern.parse("21354")

print("Statistic-refined avoider counts, both patterns side by side:")
print(f"{'n':>2} {'j':>2} {'12345':>7} {'21354':>7}")
for n in range(6):
    row1 = avoider_counts(n, p12345)
    row2 = avoider_counts(n, p21354)
    for j in range(n + 1):
        flag = "" if row1[j] == row2[j] else "  <-- DIFFER"
        print(f"{n:>2} {j:>2} {row1[j]:>7} {row2[j]:>7}{flag}")
    assert row1 == row2
print()

print("The full-statistic slice j = n is Catalan for 12345:")
for n in range(6):
    slice_count = avoider_counts(n, p12345)[n]
    print(f"  n={n}: {slice_count} (C_{n} = {catalan(n)})")
    assert slice_count == catalan(n)
print()

print("For contrast, a pattern pair that is NOT tied in the signed world:")
p1234 = Pattern.parse("1234")
p1243 = Pattern.parse("1243")
p2134 = Pattern.parse("2134")  # the reverse complement of 1243
totals = []
for n in range(4):
    t1 = sum(avoider_counts(n, p1234))
    t2 = sum(avoider_counts(n, p1243))
    print(f"  n={n}: |avoiders(1234)| = {t1}, |avoiders(1243)| = {t2}")
    totals.append((t1, t2))
    assert avoider_counts(n, p2134) == avoider_counts(n, p1243)
assert totals == [(1, 1), (2, 2), (7, 8), (33, 34)]
print("(1243 leaves 1234 at n = 2; its reverse complement 2134 has the same")
print(" statistic-refined rows as 1243.)")
