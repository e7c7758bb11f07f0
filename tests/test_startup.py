"""Start-up cost: importing the CLI loads only what a serial command runs,
and each command loads only the route modules it runs.

Each check runs in a fresh interpreter against the source tree, since the
test process itself has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

HEAVY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")

# modules the interpreter loaded before sigperm (say from a site .pth file)
# are not sigperm's to avoid
SCRIPT = f"""
import sys
before = set(sys.modules)
import sigperm.cli
print(sorted(m for m in {HEAVY!r} if m in sys.modules and m not in before))
from sigperm import Pattern, avoider_counts
p = Pattern.parse("2143")
print(avoider_counts(4, p, workers=2) == avoider_counts(4, p))
print("concurrent.futures" in sys.modules)
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
    assert result.stdout.splitlines() == ["[]", "True", "True"]


CONJECTURE = """
import contextlib, io, sys
before = set(sys.modules)
from sigperm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "4", "--threads", "1"])
print(code, "concurrent.futures" in set(sys.modules) - before)
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
    assert result.stdout.splitlines() == ["0 False"]


# what each command loads, among the route modules, verify's checks, csv and
# the pool machinery: every command runs in its own fresh interpreter with
# bytecode writing off, so each route module is compiled only if loaded
WATCHED = (
    "sigperm.core",
    "sigperm.gentree",
    "sigperm.labeltable",
    "sigperm.gf",
    "sigperm.oracle",
    "sigperm.checks",
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

CORE, GENTREE, TABLE, GF, ORACLE = (
    f"sigperm.{m}" for m in ("core", "gentree", "labeltable", "gf", "oracle")
)
HELP = [["--version"], ["--help"]] + [
    [command, "--help"] for command in ("count", "verify", "conjecture", "gf", "tree")
]
COMMANDS = [
    *((argv, []) for argv in HELP),
    (["count", "--n", "6", "--pattern", "1234", "--method", "formula"], [CORE, ORACLE]),
    (
        ["count", "--n", "6", "--pattern", "1234", "--method", "formula", "--format", "csv"],
        [CORE, ORACLE, "csv"],
    ),
    (["count", "--n", "6", "--pattern", "2143", "--method", "gf"], [CORE, GF]),
    # a full tree row reads the label table; one cell runs the forward DP
    (["count", "--n", "6", "--pattern", "2143", "--method", "tree"], [CORE, TABLE]),
    (["count", "--n", "6", "--pattern", "2143", "--method", "tree", "--j", "3"], [CORE, GENTREE]),
    (["tree", "--pattern", "2143", "--j", "1", "--depth", "2"], [CORE, GENTREE]),
    (["gf", "--pattern", "2143", "--k", "2", "--q", "1", "--gamma", "3"], [CORE, GF]),
    # the path cross-check walks gentree's succession rules
    (
        ["gf", "--pattern", "2143", "--k", "0", "--q", "3", "--gamma", "1,2", "--degree", "6"],
        [CORE, GENTREE, GF],
    ),
    (["count", "--n", "4", "--pattern", "2143", "--threads", "1"], [CORE, ORACLE]),
    (
        ["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "4", "--threads", "1"],
        [CORE, ORACLE],
    ),
    (
        ["verify", "--max-n", "3", "--threads", "1"],
        [CORE, TABLE, GF, ORACLE, "sigperm.checks"],
    ),
]


@pytest.mark.parametrize("argv, loads", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_each_command_loads_only_what_it_runs(argv, loads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", RUN_ONE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"0 {sorted(loads)}"]
