"""Closed forms the exhaustive counts are checked against.

A leaf module: ``count --method formula`` evaluates Egge's sum without
loading the scan in :mod:`sigperm.oracle`, which imports these names.  All
values are exact Python integers, and each exact division is checked.
"""

from __future__ import annotations

from math import comb

__all__ = ["catalan", "egge_formula", "classical_1234_formula"]


def catalan(j: int) -> int:
    """The j-th Catalan number ``C(2j, j) / (j + 1)``, exactly."""
    if j < 0:
        raise ValueError("catalan argument must be nonnegative")
    num = comb(2 * j, j)
    q, r = divmod(num, j + 1)
    if r:
        raise ArithmeticError(f"C({2 * j}, {j}) is not divisible by {j + 1}")
    return q


def egge_formula(n: int) -> int:
    """Egge's count of 1234-avoiding signed permutations of size ``n``.

    >>> [egge_formula(n) for n in range(7)]
    [1, 2, 7, 33, 183, 1118, 7281]
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    return sum(comb(n, j) ** 2 * catalan(j) for j in range(n + 1))


def classical_1234_formula(n: int) -> int:
    """The closed form for ``|S_n(1234)|``; the integer division is exact.

    >>> [classical_1234_formula(n) for n in range(1, 7)]
    [1, 2, 6, 23, 103, 513]
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    total = sum(
        comb(2 * j, j) * comb(n + 1, j + 1) * comb(n + 2, j + 1)
        for j in range(n + 1)
    )
    q, r = divmod(total, (n + 1) ** 2 * (n + 2))
    if r:
        raise ArithmeticError(f"closed form for n={n} does not divide exactly")
    return q
