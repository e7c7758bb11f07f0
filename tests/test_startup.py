"""Start-up cost: importing the CLI loads only what a serial command runs,
and each command loads only the route modules it runs.

Each check runs in a fresh interpreter against the source tree, since the
test process itself has long since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

HEAVY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")

# counts the forks this interpreter makes
FORKS = """
import os
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
"""

# modules the interpreter loaded before sigperm (say from a site .pth file)
# are not sigperm's to avoid; the pooled scan runs on 2 usable CPUs on any
# host, so it forks two workers
SCRIPT = FORKS + f"""
import sys
before = set(sys.modules)
import sigperm.cli
print(sorted(m for m in {HEAVY!r} if m in sys.modules and m not in before))
import sigperm.oracle
from sigperm import Pattern, avoider_counts
sigperm.oracle.usable_cpus = lambda: 2
p = Pattern.parse("2143")
print(avoider_counts(4, p, workers=2) == avoider_counts(4, p))
print(len(forks), sorted(m for m in {HEAVY!r} if m in sys.modules and m not in before))
"""


def test_cli_import_skips_pool_and_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True", "2 []"]


CONJECTURE = FORKS + """
import contextlib, io, sys
before = set(sys.modules)
from sigperm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "4", "--threads", "1"])
print(code, "concurrent.futures" in set(sys.modules) - before, len(forks))
"""


def test_serial_conjecture_starts_no_pool_machinery():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", CONJECTURE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 False 0"]


# what each command loads, among the route modules, verify's checks, json,
# csv and the pool machinery: every command runs in its own fresh
# interpreter with bytecode writing off, so each module is compiled only if
# loaded
WATCHED = (
    "sigperm.pattern",
    "sigperm.core",
    "sigperm.gentree",
    "sigperm.labeltable",
    "sigperm.gf",
    "sigperm.formulas",
    "sigperm.oracle",
    "sigperm.checks",
    "json",
    "csv",
    "concurrent.futures",
    "multiprocessing",
)

RUN_ONE = f"""
import contextlib, io, sys
before = set(sys.modules)
from sigperm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = set(sys.modules) - before
print(code, sorted(m for m in {WATCHED!r} if m in loaded))
"""

PATTERN, CORE, GENTREE, TABLE, GF, FORMULAS, ORACLE = (
    f"sigperm.{m}"
    for m in ("pattern", "core", "gentree", "labeltable", "gf", "formulas", "oracle")
)
# the table and csv formats print the manifest as a note through json
JSON = "json"
HELP = [["--version"], ["--help"]] + [
    [command, "--help"] for command in ("count", "verify", "conjecture", "gf", "tree")
]
COMMANDS = [
    *((argv, []) for argv in HELP),
    (
        ["count", "--n", "6", "--pattern", "1234", "--method", "formula"],
        [PATTERN, FORMULAS, JSON],
    ),
    (
        ["count", "--n", "6", "--pattern", "1234", "--method", "formula", "--format", "csv"],
        [PATTERN, FORMULAS, JSON, "csv"],
    ),
    (["count", "--n", "6", "--pattern", "2143", "--method", "gf"], [PATTERN, GF, JSON]),
    # a full tree row reads the label table; one cell runs the forward DP
    (["count", "--n", "6", "--pattern", "2143", "--method", "tree"], [PATTERN, TABLE, JSON]),
    (
        ["count", "--n", "6", "--pattern", "2143", "--method", "tree", "--j", "3"],
        [PATTERN, CORE, GENTREE, JSON],
    ),
    (["tree", "--pattern", "2143", "--j", "1", "--depth", "2"], [PATTERN, CORE, GENTREE]),
    (["gf", "--pattern", "2143", "--k", "2", "--q", "1", "--gamma", "3"], [PATTERN, GF, JSON]),
    # the path cross-check walks gentree's succession rules
    (
        ["gf", "--pattern", "2143", "--k", "0", "--q", "3", "--gamma", "1,2", "--degree", "6"],
        [PATTERN, CORE, GENTREE, GF, JSON],
    ),
    (
        ["count", "--n", "4", "--pattern", "2143", "--threads", "1"],
        [PATTERN, CORE, FORMULAS, ORACLE, JSON],
    ),
    (
        ["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "4", "--threads", "1"],
        [PATTERN, CORE, FORMULAS, ORACLE, JSON],
    ),
    (
        ["verify", "--max-n", "3", "--threads", "1"],
        [PATTERN, CORE, TABLE, GF, FORMULAS, ORACLE, "sigperm.checks", JSON],
    ),
]


def _run_one(argv):
    """The exit code and the watched modules of one command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", RUN_ONE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, loaded = result.stdout.rstrip("\n").split(" ", 1)
    return int(code), ast.literal_eval(loaded)


@pytest.mark.parametrize("argv, loads", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_each_command_loads_only_what_it_runs(argv, loads):
    assert _run_one(argv) == (0, sorted(loads))


# the routes past brute force read the pattern and Egge's sum from leaf
# modules, so none of them compiles the containment kernel or the scan
FAST_COUNTS = [
    ["count", "--n", "6", "--pattern", "1234", "--method", method, "--format", fmt]
    for method in ("tree", "gf", "formula")
    for fmt in ("table", "csv", "json")
]


@pytest.mark.parametrize("argv", FAST_COUNTS, ids=" ".join)
def test_fast_counts_load_no_kernel_and_no_scan(argv):
    code, loaded = _run_one(argv)
    assert code == 0
    assert CORE not in loaded and ORACLE not in loaded
    assert (JSON in loaded) == (argv[-1] != "json")


# a JSON payload quotes its strings with _json's C function, not the json package
JSON_COMMANDS = [argv for argv, _ in COMMANDS if argv not in HELP and "--format" not in argv]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_payloads_load_no_json_package(argv):
    code, loaded = _run_one([*argv, "--format", "json"])
    assert code == 0
    assert JSON not in loaded


def test_importtime_lists_the_route_module():
    # the package's __getattr__ loads each route module through the import
    # statement, which -X importtime reports
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["count", "--method", "tree", "--n", "14", "--pattern", "2143"]
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sigperm.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    listed = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "sigperm.labeltable" in listed
