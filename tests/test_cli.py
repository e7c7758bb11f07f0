"""Command-line behaviour: formats, exit codes, manifests, determinism."""

import csv
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sigperm.checks
import sigperm.cli
import sigperm.core
import sigperm.formulas
import sigperm.gentree
import sigperm.gf
import sigperm.labeltable
import sigperm.oracle
from sigperm.cli import dumps_payload, main
from sigperm.gentree import TreeLabel
from sigperm.pattern import Pattern


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def masked(text, *keys):
    """A JSON payload with the manifest's fields ``keys`` set to 0."""
    for key in keys:
        text = re.sub(rf'"{key}": (".*"|[-0-9.e]+)', f'"{key}": 0', text)
    return text


class InlinePool:
    """A stand-in executor that records each pool's size and runs its
    blocks in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools started while the test runs, on a host with
    2 usable CPUs."""
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(sigperm.oracle, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 2)
    return InlinePool.sizes


JSON_COMMANDS = [
    ("count", "--n", "3", "--pattern", "2143"),
    ("verify", "--max-n", "3", "--threads", "1"),
    ("conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "3", "--threads", "1"),
    ("gf", "--pattern", "1234", "--k", "0", "--q", "1", "--gamma", "1,2", "--degree", "3"),
    ("tree", "--pattern", "2143", "--j", "1", "--depth", "2"),
]

# strings json must escape: quotes, backslashes, control characters,
# non-ASCII text and astral characters (written as surrogate pairs)
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001f600'
TEXT = st.text(st.characters() | st.sampled_from(ESCAPED), max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda members: st.lists(members, max_size=4)
    | st.lists(members, max_size=4).map(tuple)
    | st.dictionaries(TEXT, members, max_size=4),
    max_leaves=10,
)


class TestPayload:
    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(TEXT, VALUES, max_size=4))
    def test_matches_json_indented_sorted(self, doc):
        assert dumps_payload(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_as_json_writes_them(self, value):
        doc = {"x": [value]}
        assert dumps_payload(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_quoting_falls_back_to_json_encoder_without_json_accelerator(self, monkeypatch):
        import importlib.util

        find_spec = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util, "find_spec", lambda name: None if name == "_json" else find_spec(name)
        )
        doc = {ESCAPED: [ESCAPED, {"k": ESCAPED}]}
        assert dumps_payload(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", {1: "int key"}])
    def test_unencodable_value_raises_type_error(self, value):
        with pytest.raises(TypeError):
            dumps_payload({"rows": [{"cell": value}]})

    def test_generators_are_arrays_written_as_reached(self):
        # the writer reaches a generator's members only when it writes them,
        # and it writes a long payload in several chunks
        made = []

        def members(n):
            for i in range(n):
                made.append(i)
                yield {"i": i, "empty": (x for x in ())}

        chunks = []
        sigperm.cli._write_payload({"rows": members(3000)}, chunks.append)
        doc = {"rows": [{"i": i, "empty": []} for i in range(3000)]}
        assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert made == list(range(3000)) and len(chunks) > 1


class TestCount:
    def test_row_table(self, capsys):
        code, out = run(capsys, "count", "--n", "2", "--pattern", "1234")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "j", "pattern", "method", "count"]
        cells = [line.split() for line in lines[1:5]]
        assert [c[-1] for c in cells] == ["2", "4", "1", "7"]

    def test_row_json(self, capsys):
        code, doc = run_json(
            capsys, "count", "--n", "2", "--pattern", "1234", "--method", "brute"
        )
        assert code == 0
        counts = {row["j"]: row["count"] for row in doc["rows"]}
        assert counts == {0: "2", 1: "4", 2: "1", None: "7"}
        assert doc["manifest"]["patterns"] == ["1234"]
        assert all(isinstance(row["count"], str) for row in doc["rows"])

    def test_formula_total(self, capsys):
        code, doc = run_json(
            capsys, "count", "--n", "6", "--pattern", "1234", "--method", "formula"
        )
        assert code == 0
        assert doc["rows"] == [
            {"n": 6, "j": None, "pattern": "1234", "method": "formula", "count": "7281"}
        ]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_formula_total_past_the_digit_limit(self, capsys):
        # the count at n = 700 has 663 digits; main lifts the limit while it
        # runs and restores it after
        expected = str(sigperm.formulas.egge_formula(700))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out = run(
                capsys, "count", "--n", "700", "--pattern", "1234", "--method", "formula"
            )
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert out.splitlines()[1].split()[-1] == expected

    def test_gf_single_cell(self, capsys):
        code, doc = run_json(
            capsys,
            "count", "--n", "3", "--j", "3", "--pattern", "2143", "--method", "gf",
        )
        assert code == 0
        assert doc["rows"][0]["count"] == "1"

    @pytest.mark.parametrize(
        "n, pattern, brute",
        [
            pytest.param(4, "2143", (), id="4-2143"),
            # every word of B_7 through the compiled kernel, scanned once in
            # process, where a pooled count scans once per j
            *(
                pytest.param(7, p, ("--allow-long", "--threads", "1"), id=f"7-{p}",
                             marks=pytest.mark.slow)
                for p in ("2143", "1234")
            ),
        ],
    )
    def test_methods_agree(self, capsys, n, pattern, brute):
        rows = {}
        for method, extra in (("brute", brute), ("tree", ()), ("gf", ())):
            code, doc = run_json(
                capsys,
                "count", "--n", str(n), "--pattern", pattern, "--method", method, *extra,
            )
            assert code == 0
            rows[method] = [(r["j"], r["count"]) for r in doc["rows"]]
        assert rows["brute"] == rows["tree"] == rows["gf"]

    def test_json_round_trips_byte_identical(self, capsys):
        # every command's JSON, and json's own indented encoding of it
        for argv in JSON_COMMANDS:
            _, out = run(capsys, *argv, "--format", "json")
            doc = json.loads(out)
            assert dumps_payload(doc) == out, argv
            assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out, argv

    def test_csv(self, capsys):
        code, out = run(
            capsys, "count", "--n", "2", "--pattern", "1234", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: ")
        json.loads(lines[0].removeprefix("# manifest: "))
        assert lines[1] == "n,j,pattern,method,count"
        assert lines[2] == "2,0,1234,brute,2"
        assert lines[-1] == "2,,1234,brute,7"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "row.json"
        code, _ = run(
            capsys,
            "count", "--n", "2", "--pattern", "1234",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert "manifest" in doc and "rows" in doc

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "row.json"
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "2", "--pattern", "1234", "--output", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(target) in err

    def test_deterministic_across_workers(self, capsys, monkeypatch):
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 2)
        _, doc1 = run_json(
            capsys, "count", "--n", "5", "--pattern", "2143", "--threads", "1"
        )
        _, doc2 = run_json(
            capsys, "count", "--n", "5", "--pattern", "2143", "--threads", "2"
        )
        assert doc1["rows"] == doc2["rows"]
        assert doc1["manifest"]["workers"] == 1
        assert doc2["manifest"]["workers"] == 2

    def test_workers_reports_processes_started(self, capsys, monkeypatch):
        # only the exhaustive scan starts processes; the other methods run
        # in one whatever --threads asks for
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 2)
        for method, workers in [("tree", 1), ("gf", 1), ("brute", 2)]:
            _, doc = run_json(
                capsys, "count", "--n", "5", "--pattern", "2143",
                "--method", method, "--threads", "2",
            )
            assert doc["manifest"]["workers"] == workers

    def test_brute_guard_and_allow_long(self, capsys, monkeypatch):
        monkeypatch.setattr(sigperm.cli, "BRUTE_GUARD", 2)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "3", "--pattern", "1234", "--threads", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n 3 exceeds the cost guard 2: about 48 containment checks" in err
        code, doc = run_json(
            capsys, "count", "--n", "3", "--pattern", "1234", "--allow-long"
        )
        assert code == 0
        assert doc["rows"][-1]["count"] == "33"
        # the guard is on the exhaustive scan only
        code, _ = run_json(
            capsys, "count", "--n", "3", "--pattern", "1234", "--method", "tree"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "extra, checks",
        [(["--threads", "2"], 4 * 48), (["--threads", "2", "--j", "1"], 48), ([], 4 * 48)],
    )
    def test_brute_guard_counts_pooled_rescans(self, capsys, monkeypatch, extra, checks):
        # a pooled row scans the group once per j; one cell, or one thread,
        # scans it once
        monkeypatch.setattr(sigperm.cli, "BRUTE_GUARD", 2)
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 2)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "3", "--pattern", "1234", *extra])
        assert exc.value.code == 2
        assert f"about {checks} containment checks" in capsys.readouterr().err

    def test_threads_capped_at_usable_cpus(self, capsys, pool_sizes):
        # every pool is capped at the usable CPUs, and so is the manifest
        _, doc = run_json(capsys, "count", "--n", "4", "--pattern", "1234", "--threads", "8")
        assert doc["manifest"]["workers"] == 2
        assert pool_sizes and set(pool_sizes) == {2}
        assert [row["count"] for row in doc["rows"]] == ["23", "80", "63", "16", "1", "183"]

    # the scans split into blocks from size 2 on, the walk into the avoiders
    # of size max_n // 2, of which 12 has one
    @pytest.mark.parametrize(
        "argv, workers",
        [
            (["count", "--n", "1", "--pattern", "1234"], 1),
            (["count", "--n", "2", "--pattern", "1234"], 2),
            (["verify", "--max-n", "1"], 1),
            (["verify", "--max-n", "2"], 2),
            (["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "1"], 1),
            (["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "2"], 2),
            (["conjecture", "--p1", "132", "--p2", "213", "--max-n", "3"], 2),
            (["conjecture", "--p1", "12", "--p2", "12", "--max-n", "5"], 1),
        ],
    )
    def test_workers_is_the_largest_pool_started(self, capsys, pool_sizes, argv, workers):
        code, doc = run_json(capsys, *argv, "--threads", "2")
        assert code == 0
        assert doc["manifest"]["workers"] == workers == max(pool_sizes, default=1)

    # with 8 usable CPUs, a route of fewer blocks starts a smaller pool: 2n
    # blocks for a scan, 2 (n^2 + n - 2) for verify's scans, and the
    # avoiders of size max_n // 2 for each walk (both words of size 1, and
    # 7 of the 8 of size 2)
    @pytest.mark.parametrize(
        "argv, workers",
        [
            (["count", "--n", "2", "--pattern", "1234", "--threads", "8"], 4),
            (["count", "--n", "3", "--pattern", "1234"], 6),
            (["verify", "--max-n", "2", "--threads", "8"], 8),
            (["conjecture", "--p1", "123", "--p2", "132", "--max-n", "3", "--threads", "8"], 2),
            (["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "3"], 2),
            (["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "4", "--threads", "8"], 7),
        ],
    )
    def test_workers_is_capped_at_the_blocks(
        self, capsys, monkeypatch, pool_sizes, argv, workers
    ):
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 8)
        _, doc = run_json(capsys, *argv)  # 123 and 132 differ, so exit 1
        assert doc["manifest"]["workers"] == workers == max(pool_sizes)

    def test_default_workers_are_usable_cpus(self, capsys, monkeypatch):
        monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 1)
        _, doc = run_json(capsys, "count", "--n", "2", "--pattern", "1234")
        assert doc["manifest"]["workers"] == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "3", "--pattern", "321", "--method", "tree"),
            ("count", "--n", "3", "--pattern", "2143", "--method", "formula"),
            ("count", "--n", "3", "--j", "1", "--pattern", "1234", "--method", "formula"),
            ("count", "--n", "3", "--j", "4", "--pattern", "1234"),
            ("count", "--n", "-1", "--pattern", "1234"),
            ("count", "--n", "3", "--pattern", "1,1"),
            ("gf", "--pattern", "2143", "--k", "0", "--q", "1", "--gamma", "3,1"),
            ("gf", "--pattern", "123", "--k", "0", "--q", "1", "--gamma", "2"),
            ("tree", "--pattern", "2143", "--j", "9", "--depth", "1"),
            ("conjecture", "--p1", "123", "--p2", "1234"),
            ("conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "7"),
            ("count", "--n", "7", "--pattern", "1234"),
            ("count", "--n", "10", "--pattern", "2143", "--method", "brute"),
            ("verify", "--max-n", "7"),
            (
                "gf", "--pattern", "2143", "--k", "0", "--q", "1",
                "--gamma", ",".join(["2"] * 600), "--degree", "0",
            ),
            (
                "gf", "--pattern", "2143", "--k", "0", "--q", "1",
                "--gamma", "2", "--threads", "2",
            ),
            ("tree", "--pattern", "2143", "--j", "1", "--depth", "1", "--threads", "2"),
            (
                "gf", "--pattern", "2143", "--k", "0", "--q", "1",
                "--gamma", "2", "--format", "csv",
            ),
            ("gf", "--pattern", "2143", "--k", "0", "--q", "1", "--gamma", "3,x"),
            ("count", "--n", "2", "--pattern", "1234", "--threads", "0"),
            ("count", "--n", "2", "--pattern", "1234", "--threads", "-3"),
            ("gf", "--pattern", "1234", "--k", "0", "--q", "1", "--gamma", "1,,2"),
            ("gf", "--pattern", "1234", "--k", "0", "--q", "1", "--gamma", ",2"),
            ("count", "--n", "2", "--pattern", "1234", "--method", "tree", "--threads", "0"),
        ],
    )
    def test_exit_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "method, triangle, cap",
        [
            ("tree", "tree", sigperm.labeltable.MAX_TABLE_N),
            ("gf", "series", sigperm.gf.MAX_SERIES_N),
        ],
        ids=["tree", "gf"],
    )
    def test_tree_row_past_the_table_cap_is_one_line(self, capsys, method, triangle, cap):
        n = cap + 1
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", str(n), "--pattern", "2143", "--method", method])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"sigperm count: error: {triangle} triangle capped at size {n - 1}; "
            "`sigperm count --method tree --j J` (level_counts) gives one "
            "statistic's column past the cap"
        ]

    @pytest.mark.parametrize("method", ["gf", "tree", "formula"])
    def test_threads_checked_without_counting_cpus(self, capsys, monkeypatch, method):
        # a method that starts no process still checks --threads, but never
        # asks how many CPUs there are
        def refuse():
            raise AssertionError("resolved a worker count no process uses")

        monkeypatch.setattr(sigperm.oracle, "usable_cpus", refuse)
        argv = ["count", "--n", "2", "--pattern", "1234", "--method", method]
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["manifest"]["workers"] == 1
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sigperm count: error: --threads must be at least 1, got 0\n"

    def test_long_signature_refused_in_one_line(self, capsys):
        gamma = ",".join(["2"] * (sigperm.gf.MAX_SIGNATURE_LENGTH + 1))
        with pytest.raises(SystemExit) as exc:
            main(["gf", "--pattern", "2143", "--k", "0", "--q", "1", "--gamma", gamma])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more than the bound" in err

    def test_crash_inside_a_command_exits_two_in_one_line(self, capsys, monkeypatch):
        # exit 1 means an inequality was found, so a crash must not reach it
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(sigperm.gf, "f_series", exhausted)
        with pytest.raises(SystemExit) as exc:
            main(["gf", "--pattern", "2143", "--k", "0", "--q", "1", "--gamma", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["sigperm gf: error: MemoryError"]


# runs the CLI with argv[2:] and touches the file argv[1] once the command
# reaches the block runner, so an interrupt lands inside the walk
MARKED_CLI = """
import sys
from pathlib import Path

import sigperm.oracle as oracle
from sigperm.cli import main

run_blocks = oracle._run_blocks


def marked(*args):
    Path(sys.argv[1]).touch()
    return run_blocks(*args)


oracle._run_blocks = marked
sys.exit(main(sys.argv[2:]))
"""


class TestInterrupt:
    def test_interrupt_exits_130_in_one_line(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(sigperm.oracle, "avoider_rows", interrupted)
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "3"])
        assert exc.value.code == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["sigperm conjecture: error: interrupted"]

    def test_sigint_to_the_pooled_walk_exits_130_in_one_line(self, tmp_path):
        marker = tmp_path / "walking"
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "8", "--allow-long"]
        proc = subprocess.Popen(
            [sys.executable, "-c", MARKED_CLI, str(marker), *argv, "--threads", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.3)  # let the pool start its blocks
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130, err
        assert out == ""
        assert err.splitlines() == ["sigperm conjecture: error: interrupted"]


class TestVerify:
    def test_passes(self, capsys):
        code, doc = run_json(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert {c["status"] for c in doc["rows"]} == {"pass"}
        names = {c["name"] for c in doc["rows"]}
        assert names == {
            "cross-method[1234]",
            "cross-method[2143]",
            "refined-wilf",
            "egge-total",
            "type-d-slice",
            "series-grid",
        }

    def test_brute_guard_and_allow_long(self, capsys, monkeypatch):
        monkeypatch.setattr(sigperm.cli, "BRUTE_GUARD", 2)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-n 3 exceeds the cost guard 2: about 118 containment checks" in err
        code, doc = run_json(capsys, "verify", "--max-n", "3", "--allow-long")
        assert code == 0
        assert {c["status"] for c in doc["rows"]} == {"pass"}

    def test_injected_fault_is_caught_and_named(self, capsys, monkeypatch):
        # every table step counts one descendant too many below the label
        # (1, 1, 1), the root of statistic 0
        true_step = sigperm.labeltable._step

        def corrupted(prev, is_2143):
            table = true_step(prev, is_2143)
            table[0][0][0] += 1
            return table

        monkeypatch.setattr(sigperm.labeltable, "_step", corrupted)
        p2143 = sigperm.core.PATTERN_2143
        assert sigperm.labeltable.tree_rows(1, p2143) == ((1,), (2, 1))
        code, doc = run_json(capsys, "verify", "--max-n", "3")
        assert code == 1
        failed = [c["name"] for c in doc["rows"] if c["status"] == "fail"]
        assert "cross-method[1234]" in failed or "cross-method[2143]" in failed

    def test_type_d_is_read_off_the_rows(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("scanned the type-D subgroup directly")

        scans = []
        true_counts = sigperm.oracle.avoider_counts
        true_scan = sigperm.oracle.scan_rows

        def counted(n, pattern, workers=None):
            scans.append((n, str(pattern)))
            return true_counts(n, pattern, workers=workers)

        def counted_rows(max_n, patterns, workers=None):
            scans.extend((n, str(p)) for p in patterns for n in range(max_n + 1))
            return true_scan(max_n, patterns, workers)

        monkeypatch.setattr(sigperm.oracle, "type_d_avoiders", refuse)
        monkeypatch.setattr(sigperm.oracle, "avoider_counts", counted)
        monkeypatch.setattr(sigperm.oracle, "scan_rows", counted_rows)
        for threads in ("1", "2"):
            scans.clear()
            code, doc = run_json(capsys, "verify", "--max-n", "4", "--threads", threads)
            assert code == 0
            assert {c["status"] for c in doc["rows"]} == {"pass"}
            assert sorted(scans) == [(n, p) for n in range(5) for p in ("1234", "2143")]

    def test_crash_beside_the_pool_leaves_no_worker(self, capsys, monkeypatch):
        # the exact routes run while the pool scans; a crash there must
        # still exit 2 in one line, cancel the blocks no worker has started
        # and join every worker
        pools, futures = [], []

        class TrackedPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        def crash(*args):
            raise RuntimeError("series route failed")

        monkeypatch.setattr(sigperm.oracle, "ProcessPoolExecutor", TrackedPool)
        monkeypatch.setattr(sigperm.gf, "avoider_count_from_series", crash)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "6", "--threads", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "sigperm verify: error: RuntimeError: series route failed"
        ]
        assert len(pools) == 1
        assert any(future.cancelled() for future in futures)
        assert multiprocessing.active_children() == []

    def test_type_d_slice_names_each_route(self, capsys, monkeypatch):
        true_series = sigperm.gf.avoider_count_from_series

        def off_by_one(max_n, pattern):
            rows = true_series(max_n, pattern)
            if str(pattern) != "2143":
                return rows
            # row 2, j 0: n - j is even, so the entry lies in the type-D slice
            return rows[:2] + ((rows[2][0] + 1, *rows[2][1:]),) + rows[3:]

        monkeypatch.setattr(sigperm.gf, "avoider_count_from_series", off_by_one)
        code, doc = run_json(capsys, "verify", "--max-n", "3")
        assert code == 1
        (row,) = [c for c in doc["rows"] if c["name"] == "type-d-slice"]
        assert row["status"] == "fail"
        assert row["detail"] == (
            "n=2: slices={'brute[1234]': 3, 'brute[2143]': 3, 'tree[1234]': 3, "
            "'tree[2143]': 3, 'gf[1234]': 3, 'gf[2143]': 4}"
        )

    def test_series_grid_calls_each_point_once(self, monkeypatch):
        calls = []
        true_series = sigperm.gf.SeriesCache.series

        def recording(cache, pattern, k, q, gamma):
            calls.append((str(pattern), k, q, tuple(gamma)))
            return true_series(cache, pattern, k, q, gamma)

        monkeypatch.setattr(sigperm.gf.SeriesCache, "series", recording)
        assert sigperm.checks.run_checks(1, 1)[-1]["status"] == "pass"
        grid = {
            (pattern, k, q, gamma)
            for pattern in ("1234", "2143")
            for g1 in range(1, 6)
            for gamma in sigperm.gf.signatures(g1, 4)
            for k in range(6)
            for q in range(1, 6)
        }
        assert len(grid) == 2 * 240 * 6 * 5
        assert len(calls) == len(grid) and set(calls) == grid

    def test_planted_series_fault_is_named(self, capsys, monkeypatch):
        true_series = sigperm.gf.SeriesCache.series
        planted = ("1234", 5, 5, (5, 6, 7, 8))

        def perturbed(cache, pattern, k, q, gamma):
            series = true_series(cache, pattern, k, q, gamma)
            if (str(pattern), k, q, tuple(gamma)) == planted:
                return (*series[:-1], series[-1] + 1)
            return series

        monkeypatch.setattr(sigperm.gf.SeriesCache, "series", perturbed)
        code, doc = run_json(capsys, "verify", "--max-n", "1")
        assert code == 1
        failed = [row for row in doc["rows"] if row["status"] == "fail"]
        assert failed == [
            {"name": "series-grid", "status": "fail", "detail": "k=5 q=5 gamma=(5, 6, 7, 8)"}
        ]

    def test_series_grid_holds_one_tail_group(self):
        # one memo for the whole grid held all 16 776 entries, 7.8 MiB
        assert sigperm.checks.run_checks(2, 1)  # warm up: imports, caches and free lists
        tracemalloc.start()
        try:
            rows = sigperm.checks.run_checks(2, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert {row["status"] for row in rows} == {"pass"}
        assert peak < 2 * 1024 * 1024

    def test_failure_detail_survives_csv(self, capsys, monkeypatch):
        monkeypatch.setattr(sigperm.oracle, "egge_formula", lambda n: 0)
        code, out = run(capsys, "verify", "--max-n", "2", "--format", "csv")
        assert code == 1
        _, doc = run_json(capsys, "verify", "--max-n", "2")
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: ")
        records = list(csv.reader(lines[1:]))
        assert records[0] == ["name", "status", "detail"]
        assert all(len(record) == 3 for record in records)
        details = {r["name"]: r["detail"] for r in doc["rows"]}
        assert details["egge-total"] == "n=0: totals={'1234': 1, '2143': 1} formula=0"
        assert {name: detail for name, _, detail in records[1:]} == details


class TestConjecture:
    def test_equal_patterns_exit_zero(self, capsys):
        code, doc = run_json(
            capsys,
            "conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "3",
        )
        assert code == 0
        assert all(row["equal"] for row in doc["rows"])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_walk_per_pattern_and_no_scan(self, capsys, monkeypatch, threads):
        def no_scan(*args, **kwargs):
            raise AssertionError("conjecture scanned a whole group")

        calls = []
        walk = sigperm.oracle.avoider_rows

        def recording_walk(max_n, pattern, workers=None):
            calls.append((max_n, str(pattern), workers))
            return walk(max_n, pattern, workers)

        monkeypatch.setattr(sigperm.oracle, "avoider_counts", no_scan)
        monkeypatch.setattr(sigperm.oracle, "avoider_rows", recording_walk)
        code, doc = run_json(
            capsys,
            "conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "4",
            "--threads", threads,
        )
        assert code == 0
        assert all(row["equal"] for row in doc["rows"])
        assert len(doc["rows"]) == sum(n + 1 for n in range(5))
        workers = int(threads)
        assert calls == [(4, "12345", workers), (4, "21354", workers)]

    def test_theorem_pair_through_generic_path(self, capsys):
        code, doc = run_json(
            capsys, "conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "4"
        )
        assert code == 0
        assert all(row["equal"] for row in doc["rows"])

    def test_discrepancy_reported(self, capsys):
        # 1243 is not realized by any embedding, so its avoider counts sit
        # strictly above the 1234 ones from size 2 on
        code, doc = run_json(
            capsys, "conjecture", "--p1", "1234", "--p2", "1243", "--max-n", "2"
        )
        assert code == 1
        unequal = [row for row in doc["rows"] if not row["equal"]]
        assert unequal
        assert unequal[0]["n"] == 2 and unequal[0]["j"] == 2
        assert (unequal[0]["count1"], unequal[0]["count2"]) == ("1", "2")

    # sum of 2^n n! over n <= 7 is 695 483 pinned checks per walk; 1243 and
    # 2134 are not their own reverse complements, so each counts twice
    @pytest.mark.parametrize(
        "p1, p2, checks", [("1243", "2134", 2781932), ("12345", "21354", 1390966)]
    )
    def test_guard_reports_the_walks_bound(self, capsys, p1, p2, checks):
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--p1", p1, "--p2", p2, "--max-n", "7"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "sigperm conjecture: error: --max-n 7 exceeds the cost guard 6: "
            f"about {checks} containment checks; pass --allow-long to run anyway"
        ]

    def test_allow_long_overrides_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(sigperm.cli, "BRUTE_GUARD", 2)
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "3"])
        assert exc.value.code == 2
        code, doc = run_json(
            capsys,
            "conjecture", "--p1", "12345", "--p2", "21354",
            "--max-n", "3", "--allow-long",
        )
        assert code == 0
        assert all(row["equal"] for row in doc["rows"])


class TestGf:
    def test_geometric_series(self, capsys):
        code, out = run(
            capsys,
            "gf", "--pattern", "2143", "--k", "2", "--q", "1",
            "--gamma", "3", "--degree", "4",
        )
        assert code == 0
        assert out.splitlines()[0] == "1 + 2*t + 3*t^2 + 4*t^3 + 5*t^4"

    def test_cross_check_reported(self, capsys):
        code, doc = run_json(
            capsys,
            "gf", "--pattern", "1234", "--k", "0", "--q", "1",
            "--gamma", "1,2", "--degree", "3",
        )
        assert code == 0
        assert doc["coefficients"] == ["1", "0", "0", "0"]
        assert doc["cross_check"]["agrees"] is True

    def test_series_equal_across_patterns(self, capsys):
        _, doc1 = run_json(
            capsys,
            "gf", "--pattern", "1234", "--k", "1", "--q", "2",
            "--gamma", "2,3", "--degree", "6",
        )
        _, doc2 = run_json(
            capsys,
            "gf", "--pattern", "2143", "--k", "1", "--q", "2",
            "--gamma", "2,3", "--degree", "6",
        )
        assert doc1["coefficients"] == doc2["coefficients"]

    @pytest.mark.parametrize("pattern", ["1234", "2143"])
    @pytest.mark.parametrize("k, q", [(3000, 2), (0, 3000)])
    def test_long_chains_need_no_deep_stack(self, capsys, pattern, k, q):
        # F(k, q, (1, 2)) = q s^k + k t s^(k+1), by induction from the rules
        # F(0, q) = F(0, q-1) + 1 and F(k) = s F(k-1) + t s^(k+1)
        def s_power(e, d):  # [t^d] s^e
            return comb(d + e - 1, d) if e else int(d == 0)

        code, doc = run_json(
            capsys,
            "gf", "--pattern", pattern, "--k", str(k), "--q", str(q),
            "--gamma", "1,2", "--degree", "3",
        )
        assert code == 0
        expected = [
            q * s_power(k, d) + (k * s_power(k + 1, d - 1) if d else 0)
            for d in range(4)
        ]
        assert doc["coefficients"] == [str(c) for c in expected]


class TestTree:
    def test_dump_shape(self, capsys):
        code, doc = run_json(capsys, "tree", "--pattern", "2143", "--j", "1", "--depth", "1")
        assert code == 0
        tree = doc["tree"]
        assert tree["perm"] == "[-1]"
        assert tree["label"] == [2, 2, 2]
        assert len(tree["children"]) == 4
        for child in tree["children"]:
            assert child["children"] == []

    def test_labels_are_read_off_the_tree(self, capsys, monkeypatch):
        # the dump recomputes nothing per node
        def refuse(*args):
            raise AssertionError("recomputed a node")

        monkeypatch.setattr(sigperm.gentree, "stats", refuse)
        monkeypatch.setattr(sigperm.gentree, "children", refuse)
        code, doc = run_json(capsys, "tree", "--pattern", "2143", "--j", "2", "--depth", "2")
        assert code == 0
        assert doc["tree"]["label"] == [3, 3, 3]
        assert sorted(tuple(c["label"]) for c in doc["tree"]["children"]) == sorted(
            sigperm.gentree.successors(TreeLabel(3, 3, 3), sigperm.gentree.PATTERN_2143)
        )

    @pytest.mark.parametrize("depth", [0, 1, 4])
    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("pattern", ["2143", "1234"])
    def test_streamed_dump_is_json_and_file_equals_stdout(
        self, capsys, tmp_path, pattern, j, depth
    ):
        argv = ["tree", "--pattern", pattern, "--j", str(j), "--depth", str(depth)]
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        # each level of the dump has the label DP's level size
        level, sizes = [doc["tree"]], []
        while level:
            sizes.append(len(level))
            level = [child for node in level for child in node["children"]]
        assert sizes == sigperm.gentree.level_counts(Pattern.parse(pattern), j, depth)
        target = tmp_path / "tree.json"
        assert main([*argv, "--format", "json", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        # the manifest's wall time and command line differ by design
        assert masked(target.read_text(encoding="utf-8"), "wall_time_s", "command") == masked(
            out, "wall_time_s", "command"
        )

    def test_dump_holds_one_path_of_the_tree(self, tmp_path):
        # a 770 KiB dump; building it whole peaked near 2.8 MiB
        target = tmp_path / "tree.json"
        argv = ["tree", "--pattern", "2143", "--j", "2", "--depth", "4", "--output", str(target)]
        assert main(argv) == 0  # warm up: imports, caches and free lists
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert target.stat().st_size > 750_000
        assert peak < 512 * 1024

    @pytest.mark.parametrize(
        "refused, message",
        [
            (("--j", "3", "--depth", "6"), "explicit tree capped"),
            (("--j", "5", "--depth", "1"), "explicit tree capped"),
            (("--j", "1", "--depth", "-1"), "depth must be nonnegative"),
            (("--pattern", "321", "--j", "1", "--depth", "1"), "no generating tree for pattern 321"),
        ],
        ids=["node-cap", "statistic-cap", "negative-depth", "no-tree-pattern"],
    )
    def test_refusal_comes_before_the_first_byte(self, capsys, tmp_path, refused, message):
        argv = ["tree", "--pattern", "2143", *refused, "--format", "json"]
        target = tmp_path / "tree.json"
        for extra in ([], ["--output", str(target)]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *extra])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1 and message in captured.err
            assert not target.exists()

    def test_closed_pipe_exits_two_in_one_line(self):
        # the reader goes away while the dump is written: one error line and
        # exit 2, and nothing more from the interpreter at shutdown
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["tree", "--pattern", "2143", "--j", "2", "--depth", "4", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigperm.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        )
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.wait(timeout=60)
        finally:
            proc.kill()
        assert head == b'{\n  "manif'
        assert proc.returncode == 2, err
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("sigperm tree: error: BrokenPipeError: ")

    def test_negative_statistic_is_named(self, capsys):
        # the statistic is checked before the node cap runs the label DP
        with pytest.raises(SystemExit) as exc:
            main(["tree", "--pattern", "2143", "--j", "-1", "--depth", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["sigperm tree: error: statistic must be nonnegative"]


@pytest.mark.slow
@pytest.mark.parametrize(
    "argv",
    [
        # n = 6 is the size the benchmark times
        ("verify", "--max-n", "6"),
        # both runs walk the same blocks, in this process or in the pool
        ("conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "6"),
    ],
    ids=lambda argv: argv[0],
)
def test_same_payload_with_and_without_a_pool(capsys, monkeypatch, argv):
    # a real pool of two; the manifest's wall time, command line and worker
    # count differ by design
    monkeypatch.setattr(sigperm.oracle, "usable_cpus", lambda: 2)
    codes, workers, payloads = [], [], []
    for threads in (1, 2):
        code, out = run(capsys, *argv, "--format", "json", "--threads", str(threads))
        codes.append(code)
        workers.append(json.loads(out)["manifest"]["workers"])
        payloads.append(masked(out, "wall_time_s", "command", "workers"))
    assert payloads[0] == payloads[1]
    assert codes == [0, 0] and workers == [1, 2]


# runs one command in a child of a fresh, small interpreter and prints the
# child's exit code and peak RSS in kB: a child's ru_maxrss starts at its
# spawner's high-water RSS, which for this test process is far above the bounds
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "sigperm.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.slow
def test_peak_rss_of_fresh_runs():
    src = Path(__file__).resolve().parent.parent / "src"

    def peak_kb(*argv):
        result = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        code, peak = map(int, result.stdout.split())
        assert code == 0, result.stderr
        return peak

    # 102 230 nodes and 29.5 MB of JSON, written as the tree grows; built
    # whole before it was written, the dump peaked at 161 MB
    cap_dump = ("tree", "--pattern", "2143", "--j", "3", "--depth", "5", "--format", "json")
    assert peak_kb(*cap_dump) <= 64_000
    # against the interpreter's floor, a formula count, so the bound holds on
    # every Python; one memo for the whole series grid put verify 8.3 MB above
    verify = peak_kb("verify", "--max-n", "6", "--threads", "1")
    floor = peak_kb("count", "--method", "formula", "--n", "14", "--pattern", "1234")
    assert verify - floor < 4_000
