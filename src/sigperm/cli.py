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

This module is the dispatcher: it parses, stamps the run manifest, writes
JSON payloads, and holds the brute-force guards.  Each command's body is a
module of its own, ``sigperm.cmd_<command>``, which only that command
loads, and the table and csv text is :mod:`sigperm.render`, which only
those formats load.  The parser builds only the subparser ``argv`` names.
Each command imports the route modules it runs, and ``verify`` its checks
(:mod:`sigperm.checks`), when it runs: ``--version`` and ``--help`` load
no other ``sigperm`` module, and ``count --method tree|gf|formula``
compiles neither the containment kernel (:mod:`sigperm.core`) nor the scan
(:mod:`sigperm.oracle`), since it reads its pattern from the leaf
:mod:`sigperm.pattern`, Egge's sum from the leaf :mod:`sigperm.formulas`
and one ``--j`` cell from the leaf :mod:`sigperm.labeldp`.  JSON payloads
are written without the ``json`` package.
"""

from __future__ import annotations

import argparse
import math
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
        from .render import render

        text = render(args.format, manifest, body, columns, table)

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


# the subcommands, in the order the main help lists them
COMMANDS = ("count", "verify", "conjecture", "gf", "tree")


def _add_subparser(sub: argparse._SubParsersAction, command: str) -> None:
    """Add ``command``'s subparser, with its arguments, to ``sub``."""

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

    if command == "count":
        p = sub.add_parser("count", help="avoider counts for one size")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--j", type=int, help="fix the statistic; omit for the full row")
        p.add_argument("--pattern", required=True)
        p.add_argument("--method", choices=("brute", "tree", "gf", "formula"), default="brute")
        brute_force(p, "--n")
        common(p)
    elif command == "verify":
        p = sub.add_parser("verify", help="cross-check all counting routes")
        p.add_argument("--max-n", type=int, default=5)
        brute_force(p, "--max-n")
        common(p)
    elif command == "conjecture":
        p = sub.add_parser("conjecture", help="compare refined counts of two patterns")
        p.add_argument("--p1", required=True)
        p.add_argument("--p2", required=True)
        p.add_argument("--max-n", type=int, default=5)
        brute_force(p, "--max-n")
        common(p)
    elif command == "gf":
        p = sub.add_parser("gf", help="print one path series")
        p.add_argument("--pattern", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--gamma", required=True, help="comma-separated signature")
        p.add_argument("--degree", type=int, default=8)
        common(p, ("table", "json"))
    else:  # tree
        p = sub.add_parser("tree", help="dump an explicit tree as JSON")
        p.add_argument("--pattern", required=True)
        p.add_argument("--j", type=int, required=True)
        p.add_argument("--depth", type=int, required=True)
        common(p, ("table", "json"))


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The command-line parser for ``argv``.

    When ``argv`` starts with a command, only that command's subparser is
    built; otherwise (``--help``, ``--version``, no arguments, an unknown
    command) all of them are, so those texts list every command.  Either
    way the main usage line names every command.
    """
    parser = argparse.ArgumentParser(
        prog="sigperm",
        description="Exact enumeration of pattern-avoiding signed permutations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    named = argv[0] if argv and argv[0] in COMMANDS else None
    # argparse's default metavar lists the subparsers built; only an argv
    # naming a command builds fewer than all, and then no message names
    # the subcommand argument but the usage line
    metavar = "{" + ",".join(COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for command in [named] if named else COMMANDS:
        _add_subparser(sub, command)
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
    args = build_parser(argv).parse_args(argv)
    args.argv = ["sigperm"] + argv
    # 4300 digits by default, from Python 3.10.7 and 3.11 on; 0 means no limit
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        # each command's body is a module of its own, loaded only to run it;
        # it reads _emit and the guards from this module when it calls them
        command = __import__(f"{__package__}.cmd_{args.subcommand}", fromlist=["run"])
        return command.run(args, sys.modules[__name__])
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
