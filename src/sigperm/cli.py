"""Command-line front end: counting, verification, series, tree dumps.

Subcommands
-----------
count       avoider counts for one size, by any counting method
verify      cross-check every counting route and identity, exit 1 on any gap
conjecture  compare statistic-refined counts of two same-length patterns
gf          print one path series, with a path-enumeration cross-check
tree        dump an explicit generating tree as JSON

Counts serialize as decimal strings so consumers with 64-bit integers cannot
overflow.  Exit codes: 0 all good, 1 a verification inequality was found,
2 a usage, output or resource error, 130 interrupted; :func:`main` turns
every failure after parsing into one stderr line and exit 2, and an
interrupt into one stderr line and exit 130.

Each command imports the route modules it runs, and ``verify`` its checks
(:mod:`sigperm.checks`), when it runs: ``--version`` and ``--help`` load
no other ``sigperm`` module, and ``count --method tree|gf|formula``
compiles neither the containment kernel (:mod:`sigperm.core`) nor the scan
(:mod:`sigperm.oracle`), since it reads its pattern from the leaf
:mod:`sigperm.pattern` and Egge's sum from the leaf
:mod:`sigperm.formulas`.  JSON payloads are written without the ``json``
package.  This module only parses and renders.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from functools import cache
from types import GeneratorType
from typing import Any, Callable, Sequence

from . import __version__

__all__ = ["main", "build_parser"]

BRUTE_GUARD = 6  # largest size a brute-force scan runs without --allow-long
WRITE_BATCH = 6400  # encoded parts per write: about 64 KiB of a tree dump


def _write_payload(doc: dict[str, Any], write: Callable[[str], Any]) -> None:
    """Write the canonical JSON text of ``doc`` through ``write``, in chunks.

    The text is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` byte
    for byte, keys must be strings, and any value json cannot encode raises
    ``TypeError``; a generator is written as an array, each member made as
    it is reached.  Parts go out about every ``WRITE_BATCH`` of them, at
    the end of an object or array, so a payload whose arrays are generators
    is written while it is made and never held whole.  Strings are quoted
    by ``_json``'s C function, the one ``json.encoder`` binds, so no payload
    loads the ``json`` package; an interpreter without ``_json`` quotes
    through ``json.encoder``.
    """
    from importlib import import_module
    from importlib.util import find_spec

    module = import_module("_json" if find_spec("_json") else "json.encoder")
    quote = module.encode_basestring_ascii

    parts: list[str] = []
    append, extend = parts.append, parts.extend

    def scalar(value: Any) -> str:
        if isinstance(value, str):
            return quote(value)
        if value is None or value is True or value is False:
            return "null" if value is None else "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            text = float.__repr__(value)
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    @cache
    def indent(newline: str) -> tuple[str, str]:
        inner = newline + "  "
        return inner, "," + inner

    key_text = cache(quote)  # every node repeats the same keys

    def put(value: Any, newline: str) -> None:
        # ``value`` at the indent ``newline`` opens
        if isinstance(value, dict):
            inner, comma = indent(newline)
            sep = inner
            append("{")
            for key, member in sorted(value.items()):
                extend((sep, key_text(key), ": "))
                sep = comma
                put(member, inner)
            extend((newline, "}") if sep is comma else ("}",))
        elif isinstance(value, (list, tuple, GeneratorType)):
            inner, comma = indent(newline)
            sep = inner
            append("[")
            for member in value:
                append(sep)
                sep = comma
                put(member, inner)
            extend((newline, "]") if sep is comma else ("]",))
        else:
            append(scalar(value))
            return
        if len(parts) >= WRITE_BATCH:
            write("".join(parts))
            parts.clear()

    put(doc, "\n")
    append("\n")
    write("".join(parts))


def dumps_payload(doc: dict[str, Any]) -> str:
    """The text :func:`_emit` writes for a JSON payload, as one string;
    parsing and re-encoding it is byte-identical."""
    chunks: list[str] = []
    _write_payload(doc, chunks.append)
    return "".join(chunks)


def _emit(
    args: argparse.Namespace,
    started: float,
    manifest_fields: dict[str, Any],
    body: dict[str, Any],
    columns: Sequence[str] = (),
    table: list[str] | None = None,
) -> None:
    """Stamp the run manifest onto ``body`` and write it in ``args.format``.

    ``columns`` names the cells of ``body["rows"]`` for table and csv;
    ``table`` gives the table lines directly.  With neither, the payload is
    JSON in every format.  The output is opened only once the payload's
    text, or for JSON its encoding, can start.
    """
    import shlex

    manifest = {
        "command": shlex.join(args.argv),
        "n_min": 0,
        "n_max": 0,
        "j": None,
        "degree_bound": None,
        "workers": 1,
        **manifest_fields,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    text = None  # a JSON payload is written as it is encoded
    if args.format != "json" and (columns or table):
        import json

        # table and csv print the manifest as a note; the JSON payload holds it
        note = "# manifest: " + json.dumps(manifest, sort_keys=True)
        if table is not None:
            text = "\n".join([*table, note]) + "\n"
        else:
            cells = [
                ["" if row[c] is None else str(row[c]) for c in columns]
                for row in body["rows"]
            ]
            if args.format == "csv":
                import csv
                import io

                out = io.StringIO()
                csv.writer(out, lineterminator="\n").writerows([columns, *cells])
                text = f"{note}\n{out.getvalue()}"
            else:
                widths = [
                    max([len(col)] + [len(row[i]) for row in cells])
                    for i, col in enumerate(columns)
                ]
                lines = [
                    "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                    for row in [list(columns), *cells]
                ]
                text = "\n".join([*lines, note]) + "\n"

    from contextlib import nullcontext

    target = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with target as stream:
        if text is None:
            _write_payload({"manifest": manifest, **body}, stream.write)
        else:
            stream.write(text)


def _guard_cost(
    args: argparse.Namespace, option: str, sizes: Sequence[int], scans: int
) -> None:
    """Refuse a brute-force count past ``BRUTE_GUARD`` unless ``--allow-long``;
    the estimate is one containment check per signed permutation of each
    size, for each of ``scans`` whole scans.

    ``conjecture`` walks the avoiders instead (``oracle.avoider_rows``): each
    of the at most ``2^(n-1) (n-1)!`` avoiders of size ``n - 1`` has ``2n``
    children, each checked through its new entry, so a walk makes at most
    as many pinned checks as one scan.  A pattern that is not its own
    reverse complement is also checked through the mirror entry, so it
    counts as two scans.
    """
    size = max(sizes)
    if size > BRUTE_GUARD and not args.allow_long:
        checks = scans * sum(2**n * math.factorial(n) for n in sizes)
        raise ValueError(
            f"{option} {size} exceeds the cost guard {BRUTE_GUARD}: "
            f"about {checks} containment checks; "
            "pass --allow-long to run anyway"
        )


def _resolve_workers(args: argparse.Namespace, blocks: int) -> int:
    """The largest pool a route of ``blocks`` blocks starts, sized as
    ``oracle._run_blocks`` sizes it: ``--threads``, checked, or without it
    every usable CPU, capped at the usable CPUs and at ``blocks``.  A route
    of fewer than two blocks starts no pool and runs with 1."""
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    if blocks < 2:
        return 1
    from . import oracle

    cpus = oracle.usable_cpus()
    return min(cpus if args.threads is None else args.threads, cpus, blocks)


def cmd_count(args: argparse.Namespace) -> int:
    from .pattern import Pattern

    pattern = Pattern.parse(args.pattern)
    method = args.method
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if method == "formula":
        if str(pattern) != "1234":
            raise ValueError("method 'formula' evaluates Egge's sum for 1234 only")
        if args.j is not None:
            raise ValueError(
                "method 'formula' gives the total only; "
                "the statistic-refined counts have no closed form here"
            )
    if args.j is not None and not 0 <= args.j <= args.n:
        raise ValueError(f"--j {args.j} outside 0..{args.n}")
    # only the exhaustive scan starts processes, with 2n blocks from size 2
    blocks = 2 * args.n if method == "brute" and args.n >= 2 else 0
    workers = _resolve_workers(args, blocks)
    if method == "brute":
        # a pooled scan is not cached, so a pooled row scans once per j
        pooled_row = workers > 1 and args.j is None
        _guard_cost(args, "--n", [args.n], args.n + 1 if pooled_row else 1)
    # load the one route this method runs
    if method == "gf":
        from . import gf
    elif method == "tree" and args.j is None:
        from . import labeltable
    elif method == "tree":
        from . import gentree
    elif method == "formula":
        from . import formulas
    else:
        from . import oracle
    started = time.perf_counter()
    if method == "formula":
        cells = [(None, formulas.egge_formula(args.n))]
    else:
        js = [args.j] if args.j is not None else range(args.n + 1)
        if method == "gf":
            row = gf.avoider_count_from_series(args.n, pattern)[args.n]
        elif method == "tree" and args.j is None:
            row = labeltable.tree_rows(args.n, pattern)[args.n]
        elif method == "tree":
            row = {args.j: gentree.level_counts(pattern, args.j, args.n - args.j)[-1]}
        else:
            row = {j: oracle.avoider_counts(args.n, pattern, workers)[j] for j in js}
        cells = [(j, row[j]) for j in js]
        if args.j is None:
            cells.append((None, sum(c for _, c in cells)))
    rows = [
        dict(n=args.n, j=j, pattern=str(pattern), method=method, count=str(c))
        for j, c in cells
    ]
    manifest = {
        "patterns": [str(pattern)],
        "n_min": args.n,
        "n_max": args.n,
        "j": args.j,
        "methods": [method],
        "degree_bound": args.n + 1 if method == "gf" else None,
        "workers": workers,
    }
    columns = ("n", "j", "pattern", "method", "count")
    _emit(args, started, manifest, {"rows": rows}, columns)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    # one whole scan per pattern
    _guard_cost(args, "--max-n", range(args.max_n + 1), 2)
    # the scans' blocks: 2n for each pattern and size 2 <= n <= max_n
    workers = _resolve_workers(args, 2 * (args.max_n**2 + args.max_n - 2))
    started = time.perf_counter()
    rows = checks.run_checks(args.max_n, workers)
    manifest = {
        "patterns": ["1234", "2143"],
        "n_max": args.max_n,
        "methods": ["brute", "tree", "gf", "formula"],
        "degree_bound": checks.SERIES_GRID_DEGREE,
        "workers": workers,
    }
    _emit(args, started, manifest, {"rows": rows}, ("name", "status", "detail"))
    return 0 if all(row["status"] == "pass" for row in rows) else 1


def cmd_conjecture(args: argparse.Namespace) -> int:
    from . import oracle
    from .pattern import Pattern

    p1 = Pattern.parse(args.p1)
    p2 = Pattern.parse(args.p2)
    if len(p1) != len(p2):
        raise ValueError("the two patterns must have equal length")
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    walks = sum(1 if p.reverse_complement() == p else 2 for p in (p1, p2))
    _guard_cost(args, "--max-n", range(args.max_n + 1), walks)
    # the walk's blocks are the avoiders of size max_n // 2, at most every
    # signed permutation of that size; the walk's rows count them
    half = args.max_n // 2
    workers = _resolve_workers(args, 2**half * math.factorial(half))
    started = time.perf_counter()
    rows1 = oracle.avoider_rows(args.max_n, p1, workers=workers)
    rows2 = oracle.avoider_rows(args.max_n, p2, workers=workers)
    workers = _resolve_workers(args, max(sum(rows1[half]), sum(rows2[half])))
    rows = [
        {
            "n": n,
            "j": j,
            "count1": str(row1[j]),
            "count2": str(row2[j]),
            "equal": row1[j] == row2[j],
        }
        for n, (row1, row2) in enumerate(zip(rows1, rows2))
        for j in range(n + 1)
    ]
    manifest = {
        "patterns": [str(p1), str(p2)],
        "n_max": args.max_n,
        "methods": ["brute"],
        "workers": workers,
    }
    columns = ("n", "j", "count1", "count2", "equal")
    _emit(args, started, manifest, {"rows": rows}, columns)
    return 0 if all(row["equal"] for row in rows) else 1


def _series_text(coeffs: tuple[int, ...]) -> str:
    """``c0 + c1*t + c2*t^2 + ...`` through the truncation degree."""
    powers = ["", "*t", *(f"*t^{d}" for d in range(2, len(coeffs)))]
    return " + ".join(f"{c}{power}" for c, power in zip(coeffs, powers))


def cmd_gf(args: argparse.Namespace) -> int:
    from . import gf
    from .pattern import Pattern

    pattern = Pattern.parse(args.pattern)
    tokens = args.gamma.split(",")
    if not all(re.fullmatch(r"\s*[+-]?\d+\s*", tok) for tok in tokens):
        raise ValueError(f"malformed signature {args.gamma!r}")
    gamma = tuple(map(int, tokens))
    if args.q < 1:  # layers count from 1; the library gives 0 below that
        raise ValueError("--q must be at least 1")

    started = time.perf_counter()
    series = gf.f_series(pattern, args.k, args.q, gamma, args.degree)
    text = _series_text(series)
    table = [text]
    cross_check: dict[str, Any] | None = None
    start = (gamma[0], gamma[0] + args.k, args.q)
    if args.degree <= 6 and start[1] <= 4 and args.q <= 3:
        max_points = min(8, args.degree + len(gamma))
        depth = max_points - len(gamma)
        if depth >= 0:
            profile = gf.path_profile(pattern, start, max_points)
            agree = all(
                series[d] == profile.get((gamma, d), 0)
                for d in range(depth + 1)
            )
            cross_check = {
                "start": list(start),
                "degrees_checked": depth,
                "agrees": agree,
            }
            table.append(
                f"# path cross-check through degree {depth}: "
                + ("ok" if agree else "MISMATCH")
            )
    manifest = {
        "patterns": [str(pattern)],
        "methods": ["gf"],
        "degree_bound": args.degree,
    }
    body = {
        "k": args.k,
        "q": args.q,
        "gamma": list(gamma),
        "coefficients": [str(c) for c in series],
        "series": text,
        "cross_check": cross_check,
    }
    _emit(args, started, manifest, body, table=table)
    return 1 if cross_check is not None and not cross_check["agrees"] else 0


def cmd_tree(args: argparse.Namespace) -> int:
    from . import gentree
    from .pattern import Pattern

    pattern = Pattern.parse(args.pattern)
    started = time.perf_counter()
    # each node's children grow when the writer reaches them, so the dump
    # holds one path of the tree, and the wall time stops before it grows
    tree = gentree.grow_tree(
        pattern,
        args.j,
        args.depth,
        lambda perm, label, kids: {"children": kids, "label": list(label), "perm": str(perm)},
    )
    manifest = {
        "patterns": [str(pattern)],
        "n_min": args.j,
        "n_max": args.j + args.depth,
        "j": args.j,
        "methods": ["tree"],
    }
    _emit(args, started, manifest, {"tree": tree})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigperm",
        description="Exact enumeration of pattern-avoiding signed permutations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(
        p: argparse.ArgumentParser, formats: Sequence[str] = ("table", "json", "csv")
    ) -> None:
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--output", help="write the payload to this file")

    def brute_force(p: argparse.ArgumentParser, option: str) -> None:
        p.add_argument(
            "--allow-long",
            action="store_true",
            help=f"run a brute-force {option} above {BRUTE_GUARD} "
            "despite the cost guard",
        )
        p.add_argument(
            "--threads",
            type=int,
            help="brute-force worker processes, at most the usable cores (default: all of them)",
        )

    p_count = sub.add_parser("count", help="avoider counts for one size")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--j", type=int, help="fix the statistic; omit for the full row")
    p_count.add_argument("--pattern", required=True)
    p_count.add_argument(
        "--method", choices=("brute", "tree", "gf", "formula"), default="brute"
    )
    brute_force(p_count, "--n")
    common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="cross-check all counting routes")
    p_verify.add_argument("--max-n", type=int, default=5)
    brute_force(p_verify, "--max-n")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_conj = sub.add_parser(
        "conjecture", help="compare refined counts of two patterns"
    )
    p_conj.add_argument("--p1", required=True)
    p_conj.add_argument("--p2", required=True)
    p_conj.add_argument("--max-n", type=int, default=5)
    brute_force(p_conj, "--max-n")
    common(p_conj)
    p_conj.set_defaults(func=cmd_conjecture)

    p_gf = sub.add_parser("gf", help="print one path series")
    p_gf.add_argument("--pattern", required=True)
    p_gf.add_argument("--k", type=int, required=True)
    p_gf.add_argument("--q", type=int, required=True)
    p_gf.add_argument("--gamma", required=True, help="comma-separated signature")
    p_gf.add_argument("--degree", type=int, default=8)
    common(p_gf, ("table", "json"))
    p_gf.set_defaults(func=cmd_gf)

    p_tree = sub.add_parser("tree", help="dump an explicit tree as JSON")
    p_tree.add_argument("--pattern", required=True)
    p_tree.add_argument("--j", type=int, required=True)
    p_tree.add_argument("--depth", type=int, required=True)
    common(p_tree, ("table", "json"))
    p_tree.set_defaults(func=cmd_tree)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; its exit code is 0 or 1.

    Argparse reports a malformed command line.  Any exception a command
    raises after that (bad input, an unwritable ``--output``, running out of
    memory) becomes one stderr line and exit 2, so exit 1 always means a
    found inequality.  An interrupt (Ctrl-C) becomes one stderr line and
    exit 130.  While the command runs, the interpreter's limit on the digits
    of an int converted to text is lifted, so exact counts of any size
    print; it is restored when the command returns.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = ["sigperm"] + argv
    # 4300 digits by default, from Python 3.10.7 and 3.11 on; 0 means no limit
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print(f"sigperm {args.subcommand}: error: interrupted", file=sys.stderr)
        sys.exit(130)
    except Exception as exc:
        # a ValueError is bad input; any other exception is named by type
        parts = [] if isinstance(exc, ValueError) else [type(exc).__name__]
        message = ": ".join(filter(None, [*parts, str(exc)]))
        line = f"sigperm {args.subcommand}: error: {message}"
        print(line.replace("\n", " "), file=sys.stderr)
        sys.exit(2)
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
