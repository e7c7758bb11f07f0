#!/usr/bin/env python3
"""Probing the same refinement for length-5 patterns.

The pair 12345 / 21354 is the natural next candidate: in the symmetric
group the two are equinumerous, and on the full-statistic slice both reduce
to Catalan numbers.  A depth-first walk over the avoiders confirms the
refined counts agree for every size this desk-scale sweep reaches; one
``avoider_rows`` call gives all of a pattern's rows.  (The command-line tool
runs the same sweep at size 7 behind --allow-long.)
"""

from sigperm import Pattern, avoider_rows, catalan

rows12345 = avoider_rows(5, Pattern.parse("12345"))
rows21354 = avoider_rows(5, Pattern.parse("21354"))

print("Statistic-refined avoider counts, both patterns side by side:")
print(f"{'n':>2} {'j':>2} {'12345':>7} {'21354':>7}")
for n, (row1, row2) in enumerate(zip(rows12345, rows21354)):
    for j in range(n + 1):
        flag = "" if row1[j] == row2[j] else "  <-- DIFFER"
        print(f"{n:>2} {j:>2} {row1[j]:>7} {row2[j]:>7}{flag}")
    assert row1 == row2
print()

print("The full-statistic slice j = n is Catalan for 12345:")
for n, row in enumerate(rows12345):
    print(f"  n={n}: {row[n]} (C_{n} = {catalan(n)})")
    assert row[n] == catalan(n)
print()

print("For contrast, a pattern pair that is NOT tied in the signed world:")
rows1234 = avoider_rows(3, Pattern.parse("1234"))
rows1243 = avoider_rows(3, Pattern.parse("1243"))
rows2134 = avoider_rows(3, Pattern.parse("2134"))  # the reverse complement of 1243
totals = []
for n, (row1, row2) in enumerate(zip(rows1234, rows1243)):
    t1, t2 = sum(row1), sum(row2)
    print(f"  n={n}: |avoiders(1234)| = {t1}, |avoiders(1243)| = {t2}")
    totals.append((t1, t2))
assert rows2134 == rows1243
assert totals == [(1, 1), (2, 2), (7, 8), (33, 34)]
print("(1243 leaves 1234 at n = 2; its reverse complement 2134 has the same")
print(" statistic-refined rows as 1243.)")
