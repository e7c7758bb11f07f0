"""Output checks for the benchmark's commands.

Every expected value is computed here, from closed forms, literature tables
and a separate implementation of the succession rules, without importing
``sigperm``: a wrong count from the program must never be timed as a
success.  ``check_round`` maps each command of a round to its list of
errors; an empty list means the command's output is correct.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb

# |S_n(12345)|, OEIS A047889, n = 0..8.
CLASSICAL_12345 = (1, 1, 2, 6, 24, 119, 694, 4582, 33324)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def egge(n: int) -> int:
    """1234- (and 2143-) avoiding signed permutations of size ``n``."""
    return sum(comb(n, j) ** 2 * catalan(j) for j in range(n + 1))


def classical_1234(n: int) -> int:
    """|S_n(1234)| = |S_n(2143)|, by Gessel's closed form."""
    total = sum(
        comb(2 * j, j) * comb(n + 1, j + 1) * comb(n + 2, j + 1)
        for j in range(n + 1)
    )
    return total // ((n + 1) ** 2 * (n + 2))


def succession(label: tuple[int, int, int], pattern: str) -> list[tuple[int, int, int]]:
    """Children labels of ``label = (x, y, z)`` under the pattern's rule.

    2143: the new first turn bumps ``y`` in the same layer (x' = 2..x+1),
    the shrinking moves keep ``x`` (y' = x+1..y), and each lower layer
    restarts at ``y' = x + 1``.  1234: every layer from ``z`` down bumps
    ``y``, and only layer 1 takes the shrinking moves.
    """
    x, y, z = label
    out = []
    if pattern == "2143":
        out += [(i, y + 1, z) for i in range(2, x + 2)]
        out += [(x, k, z) for k in range(x + 1, y + 1)]
        for layer in range(1, z):
            out += [(i, x + 1, layer) for i in range(2, x + 2)]
    else:
        for layer in range(1, z + 1):
            out += [(i, y + 1, layer) for i in range(2, x + 2)]
        out += [(x, k, 1) for k in range(x + 1, y + 1)]
    return out


def tree_level_sizes(pattern: str, j: int, depth: int) -> list[int]:
    """Level sizes of the generating tree by a label DP over ``succession``."""
    state = Counter({(j + 1, j + 1, j + 1): 1})
    sizes = [1]
    for _ in range(depth):
        nxt: Counter = Counter()
        for label, mult in state.items():
            for child in succession(label, pattern):
                nxt[child] += mult
        state = nxt
        sizes.append(sum(state.values()))
    return sizes


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _count_row(doc: dict, n: int) -> list[int]:
    """The j = 0..n counts of a ``count`` payload, after checking its shape."""
    rows = doc["rows"]
    if [r["j"] for r in rows] != list(range(n + 1)) + [None]:
        raise ValueError(f"rows do not cover j = 0..{n} plus the total")
    counts = [int(r["count"]) for r in rows]
    if sum(counts[:-1]) != counts[-1]:
        raise ValueError(f"row sum {sum(counts[:-1])} != total {counts[-1]}")
    return counts[:-1]


def _check_count(argv: list[str], doc: dict) -> list[str]:
    n, pattern = int(_arg(argv, "--n")), _arg(argv, "--pattern")
    if _arg(argv, "--method") == "formula":
        (row,) = doc["rows"]
        got = int(row["count"])
        return [] if got == egge(n) else [f"formula({n}) = {got}, expected {egge(n)}"]
    try:
        counts = _count_row(doc, n)
    except (KeyError, ValueError) as exc:
        return [str(exc)]
    errors = []
    if pattern in ("1234", "2143"):
        if sum(counts) != egge(n):
            errors.append(f"total {sum(counts)} != {egge(n)}")
        if counts[0] != classical_1234(n):
            errors.append(f"j=0 slice {counts[0]} != |S_{n}(1234)| = {classical_1234(n)}")
        if counts[n] != 1:
            errors.append(f"j=n slice {counts[n]} != 1")
    return errors


def _check_conjecture(argv: list[str], doc: dict) -> list[str]:
    max_n, p1 = int(_arg(argv, "--max-n")), _arg(argv, "--p1")
    rows = doc["rows"]
    cells = [(r["n"], r["j"]) for r in rows]
    expected_cells = [(n, j) for n in range(max_n + 1) for j in range(n + 1)]
    if cells != expected_cells:
        return [f"rows do not cover n = 0..{max_n}, j = 0..n"]
    errors = []
    for r in rows:
        n, j, c1, c2 = r["n"], r["j"], int(r["count1"]), int(r["count2"])
        if r["equal"] is not True or c1 != c2:
            errors.append(f"n={n} j={j}: {c1} vs {c2}, equal={r['equal']}")
        if p1 == "12345":
            if j == n and c1 != catalan(n):
                errors.append(f"n={n}: j=n slice {c1} != Catalan({n})")
            if j == 0 and n < len(CLASSICAL_12345) and c1 != CLASSICAL_12345[n]:
                errors.append(f"n={n}: j=0 slice {c1} != |S_n(12345)|")
    return errors


def _check_tree(argv: list[str], doc: dict) -> list[str]:
    pattern, j, depth = _arg(argv, "--pattern"), int(_arg(argv, "--j")), int(_arg(argv, "--depth"))
    root = doc["tree"]
    if tuple(root["label"]) != (j + 1, j + 1, j + 1):
        return [f"root label {root['label']} != {(j + 1,) * 3}"]
    errors = []
    sizes = []
    level = [root]
    for d in range(depth + 1):
        sizes.append(len(level))
        perms = [node["perm"] for node in level]
        if len(set(perms)) != len(perms):
            errors.append(f"depth {d}: repeated permutation")
        for perm in perms:
            word = [int(v) for v in perm.strip("[]").split(",") if v]
            if sorted(map(abs, word)) != list(range(1, j + d + 1)) or sum(
                v < 0 for v in word
            ) != j:
                errors.append(f"depth {d}: {perm} is not of size {j + d} with statistic {j}")
        nxt = []
        for node in level:
            kids = node["children"]
            if d == depth:
                if kids:
                    errors.append(f"depth {d}: {node['perm']} has children past the depth")
                continue
            got = sorted(tuple(k["label"]) for k in kids)
            if got != sorted(succession(tuple(node["label"]), pattern)):
                errors.append(f"{node['perm']}: children labels {got} break the rule")
            nxt.extend(kids)
        level = nxt
        if len(errors) > 20:
            break
    if not errors and sizes != tree_level_sizes(pattern, j, depth):
        errors.append(f"level sizes {sizes} != {tree_level_sizes(pattern, j, depth)}")
    return errors


def _check_verify(argv: list[str], doc: dict) -> list[str]:
    names = [r["name"] for r in doc["rows"]]
    expected = {"cross-method[1234]", "cross-method[2143]", "refined-wilf",
                "egge-total", "type-d-slice", "series-grid"}
    errors = [f"missing check {name}" for name in sorted(expected - set(names))]
    errors += [f"{r['name']}: {r['status']} ({r['detail']})" for r in doc["rows"]
               if r["status"] != "pass"]
    return errors


_CHECKERS = {
    "count": _check_count,
    "conjecture": _check_conjecture,
    "tree": _check_tree,
    "verify": _check_verify,
}


def check_round(outputs: dict[str, tuple[list[str], int, str]]) -> dict[str, list[str]]:
    """Check one round: ``outputs`` maps a command key to (argv, exit code,
    stdout).  Besides each payload's own checks, every ``count`` row of one
    size must agree across patterns and methods; a disagreement fails every
    command in that group.
    """
    errors: dict[str, list[str]] = {}
    rows_by_n: dict[int, dict[str, list[int]]] = {}
    for key, (argv, code, text) in outputs.items():
        errors[key] = []
        if code != 0:
            errors[key].append(f"exit code {code}")
            continue
        try:
            doc = json.loads(text)
            errors[key] += _CHECKERS[argv[0]](argv, doc)
            if (argv[0] == "count" and _arg(argv, "--method") != "formula"
                    and _arg(argv, "--pattern") in ("1234", "2143") and not errors[key]):
                n = int(_arg(argv, "--n"))
                rows_by_n.setdefault(n, {})[key] = _count_row(doc, n)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            errors[key].append(f"malformed payload: {exc!r}")
    for n, group in rows_by_n.items():
        if len({tuple(row) for row in group.values()}) > 1:
            for key in group:
                errors[key].append(f"n={n} rows disagree across commands: {group}")
    return errors
