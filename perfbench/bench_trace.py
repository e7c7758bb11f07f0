"""Span tracing of the sigperm layers, installed from outside the package.

``install`` replaces the module-level names at each layer boundary with
wrappers that record spans (id, name, start, end, parent) in memory.  The
hottest boundaries (the containment kernel, the succession rule and
``SeriesCache.series``) are leaves: their calls are folded into one
(calls, seconds) cell per parent span instead of one span each, which keeps
every self time exact without millions of span records.

Run as a script it traces one CLI command in this fresh interpreter and
writes the trace as JSON when the command ends::

    python3 perfbench/bench_trace.py --out trace.json --run-id 3 \\
        [--in-process-pool] -- count --n 5 --pattern 1234 --threads 2

``--in-process-pool`` swaps the oracle's process pool for an executor that
runs the same blocks in this process, so kernel calls that pool workers
would make become visible; the counts do not depend on how blocks are
split.  ``summarize`` turns traces into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

KERNEL = "core.kernel"
SCANS = ("oracle.avoider_counts", "oracle.type_d_avoiders")


class Tracer:
    """Spans and counts of one process, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.counts: Counter = Counter()
        self.words: set[int] = set()
        self._stack = [0]
        self._names = [""]
        self._next = 1

    def open(self, name: str) -> tuple[int, str, float, int]:
        sid, self._next = self._next, self._next + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        self._names.append(name)
        return sid, name, time.perf_counter(), parent

    def close(self, token: tuple[int, str, float, int]) -> None:
        end = time.perf_counter()
        sid, name, start, parent = token
        self._stack.pop()
        self._names.pop()
        self.spans.append((sid, name, start, end, parent))

    def span(self, name: str, fn, items: str | None = None):
        """Wrap ``fn`` in a span; ``items`` counts the length of its result."""

        def wrapper(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if items:
                self.counts[items] += len(result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot ``fn``: calls and seconds accumulate per parent span."""
        leaves, stack = self.leaves, self._stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            cell = leaves.get((stack[-1], name))
            if cell is None:
                cell = leaves[(stack[-1], name)] = [0, 0.0]
            cell[0] += 1
            cell[1] += elapsed
            return result

        return wrapper

    def kernel(self, binding: str, fn):
        """Leaf wrapper for the containment kernel as bound in one module.
        Words checked under an oracle span are also hashed, so distinct
        words can be told from rescans."""
        inner = self.leaf(f"{KERNEL}@{binding}", fn)
        names, words = self._names, self.words

        def wrapper(seq, pattern):
            if names[-1].startswith("oracle."):
                words.add(hash((pattern.values, tuple(seq))))
            return inner(seq, pattern)

        return wrapper

    def as_json(self, run_id: int) -> dict:
        return {
            "run": run_id,
            "spans": self.spans,
            "leaves": [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()],
            "counts": dict(self.counts),
            "distinct_words": len(self.words),
        }


class InProcessPool:
    """Executor stand-in that maps the blocks in the calling process."""

    def __init__(self, max_workers: int | None = None) -> None:
        pass

    def __enter__(self) -> "InProcessPool":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def install(tracer: Tracer, in_process_pool: bool = False):
    """Wrap every layer boundary; return the traced ``sigperm.cli.main``."""
    from sigperm import cli, core, gentree, gf, oracle

    for module, binding in ((core, "core"), (oracle, "oracle"), (gentree, "gentree")):
        module.find_occurrence_positions = tracer.kernel(
            binding, module.find_occurrence_positions
        )
    for name in ("avoider_counts", "type_d_avoiders"):
        setattr(oracle, name, tracer.span(f"oracle.{name}", getattr(oracle, name)))
    if in_process_pool:
        oracle.ProcessPoolExecutor = InProcessPool
    else:

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.counts["oracle.pools_started"] += 1
                self._token = tracer.open("oracle.pool")
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._token)

        oracle.ProcessPoolExecutor = TracedPool
    gentree.children = tracer.span("gentree.children", gentree.children, "gentree.kept")
    for name in ("stats", "active_sites", "build_tree", "level_counts"):
        setattr(gentree, name, tracer.span(f"gentree.{name}", getattr(gentree, name)))
    gentree.successors = tracer.leaf("gentree.successors", gentree.successors)
    gf.avoider_count_from_series = tracer.span(
        "gf.avoider_count_from_series", gf.avoider_count_from_series
    )
    gf.signatures = tracer.span("gf.signatures", gf.signatures, "gf.signatures")
    gf.SeriesCache.series = tracer.leaf("gf.series", gf.SeriesCache.series)
    cli._emit = tracer.span("cli._emit", cli._emit)
    cli.dumps_payload = tracer.span("cli.dumps_payload", cli.dumps_payload)
    return tracer.span("cli.main", cli.main)


class _Trace:
    """Span tree of one traced command, with self times."""

    def __init__(self, doc: dict) -> None:
        self.counts = doc["counts"]
        self.distinct_words = doc["distinct_words"]
        self.name = {sid: name for sid, name, _, _, _ in doc["spans"]}
        self.parent = {sid: parent for sid, _, _, _, parent in doc["spans"]}
        self.spans = doc["spans"]
        self.leaves = doc["leaves"]
        self.child_s: Counter = Counter()
        for _, _, start, end, parent in self.spans:
            self.child_s[parent] += end - start
        for parent, _, _, seconds in self.leaves:
            self.child_s[parent] += seconds

    def _under(self, sid: int, names) -> bool:
        sid = self.parent.get(sid, 0)
        while sid:
            if self.name[sid] in names:
                return True
            sid = self.parent[sid]
        return False

    def covered_s(self, *names: str) -> float:
        """Time inside spans named ``names``, not counting nested repeats."""
        return sum(end - start for sid, name, start, end, _ in self.spans
                   if name in names and not self._under(sid, names))

    def self_s(self, *names: str) -> float:
        return sum(end - start - self.child_s[sid]
                   for sid, name, start, end, _ in self.spans if name in names)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def leaf(self, prefix: str, parent_prefix: str = "") -> tuple[int, float]:
        calls, seconds = 0, 0.0
        for parent, name, c, s in self.leaves:
            if name.startswith(prefix) and self.name.get(parent, "").startswith(parent_prefix):
                calls, seconds = calls + c, seconds + s
        return calls, seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(work: list[dict], timing: list[dict]) -> dict[str, float]:
    """Per-layer metrics.  ``work`` holds the traces that saw every kernel
    call (in-process pool where the command pools); ``timing`` holds the
    traces of the commands exactly as run, for pool and CLI figures."""
    w = [_Trace(doc) for doc in work]
    t = [_Trace(doc) for doc in timing]
    kernel_calls = sum(x.leaf(KERNEL)[0] for x in w)
    kernel_s = sum(x.leaf(KERNEL)[1] for x in w)
    words = sum(x.leaf(KERNEL, "oracle.")[0] for x in w)
    gentree_kernel = sum(x.leaf(KERNEL, "gentree.")[0] for x in w)
    trials = sum(x.leaf(f"{KERNEL}@gentree", "gentree.")[0] for x in w)
    kept = sum(x.counts.get("gentree.kept", 0) for x in w)
    nodes = kept + sum(x.calls("gentree.build_tree") for x in w)
    return {
        "core.kernel_calls": kernel_calls,
        "core.kernel_s": kernel_s,
        "core.kernel_us_per_call": 1e6 * _ratio(kernel_s, kernel_calls),
        "oracle.scan_s": sum(x.covered_s(*SCANS) for x in w),
        "oracle.scan_self_s": sum(x.self_s(*SCANS) for x in w),
        "oracle.words_scanned": words,
        "oracle.scan_useful_ratio": _ratio(sum(x.distinct_words for x in w), words),
        "oracle.pools_started": sum(x.counts.get("oracle.pools_started", 0) for x in t),
        "oracle.pool_s": sum(x.covered_s("oracle.pool") for x in t),
        "gentree.children_calls": sum(x.calls("gentree.children") for x in w),
        "gentree.children_s": sum(x.covered_s("gentree.children") for x in w),
        "gentree.stats_calls": sum(x.calls("gentree.stats") for x in w),
        "gentree.stats_s": sum(x.covered_s("gentree.stats", "gentree.active_sites") for x in w),
        "gentree.kernel_calls_per_node": _ratio(gentree_kernel, nodes),
        "gentree.insert_accept_ratio": _ratio(kept, trials),
        "gentree.level_counts_s": sum(x.covered_s("gentree.level_counts") for x in w),
        "gentree.successor_calls": sum(x.leaf("gentree.successors")[0] for x in w),
        "gf.row_s": sum(x.covered_s("gf.avoider_count_from_series") for x in w),
        "gf.signatures_enumerated": sum(x.counts.get("gf.signatures", 0) for x in w),
        "gf.series_calls": sum(x.leaf("gf.series")[0] for x in w),
        "gf.series_s": sum(x.leaf("gf.series")[1] for x in w),
        "cli.emit_s": sum(x.covered_s("cli._emit", "cli.dumps_payload") for x in t),
        "cli.self_s": sum(x.self_s("cli.main") for x in t),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="write the trace JSON here")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--in-process-pool", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    traced_main = install(tracer, args.in_process_pool)
    try:
        return traced_main(argv)
    finally:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(tracer.as_json(args.run_id), handle)


if __name__ == "__main__":
    sys.exit(main())
