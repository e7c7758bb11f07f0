"""Start-up cost: importing the CLI loads only what a serial command runs.

Each check runs in a fresh interpreter against the source tree, since the
test process itself has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

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
