"""The table and csv text of a command's payload.

Only ``--format table`` and ``--format csv`` load this module, and with it
the ``json`` package, which writes the manifest note; a JSON payload is
written by ``cli._write_payload`` instead.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

__all__ = ["render"]


def render(
    fmt: str,
    manifest: dict[str, Any],
    body: dict[str, Any],
    columns: Sequence[str],
    table: list[str] | None,
) -> str:
    """The text of ``body`` in ``fmt`` (``table`` or ``csv``), the manifest
    printed as a note: the lines ``table`` when given, otherwise the cells
    ``columns`` of ``body["rows"]``, aligned in columns or as csv."""
    note = "# manifest: " + json.dumps(manifest, sort_keys=True)
    if table is not None:
        return "\n".join([*table, note]) + "\n"
    cells = [
        ["" if row[c] is None else str(row[c]) for c in columns]
        for row in body["rows"]
    ]
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([columns, *cells])
        return f"{note}\n{out.getvalue()}"
    widths = [
        max([len(col)] + [len(row[i]) for row in cells])
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in [list(columns), *cells]
    ]
    return "\n".join([*lines, note]) + "\n"
