"""The dispatcher in ``sigperm.cli``: the parser builds only the subparser
its command line names, with every text unchanged, and each command module
writes its payload through ``cli._emit``, read from the module when called,
so a tracer that rebinds it sees every command."""

import argparse
import importlib

import pytest

import sigperm.cli
from sigperm.cli import COMMANDS, build_parser, main

USAGE = "usage: sigperm [-h] [--version] {count,verify,conjecture,gf,tree} ..."

MAIN_HELP = f"""{USAGE}

Exact enumeration of pattern-avoiding signed permutations.

positional arguments:
  {{count,verify,conjecture,gf,tree}}
    count               avoider counts for one size
    verify              cross-check all counting routes
    conjecture          compare refined counts of two patterns
    gf                  print one path series
    tree                dump an explicit tree as JSON

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    # argparse wraps help to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def exits(capsys, call, *args):
    """The exit code, stdout and stderr of ``call(*args)``, which exits."""
    with pytest.raises(SystemExit) as exc:
        call(*args)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_matches_the_full_parser(capsys, command):
    argv = [command, "--help"]
    lazy = exits(capsys, build_parser(argv).parse_args, argv)
    full = exits(capsys, build_parser().parse_args, argv)
    assert lazy == full
    assert lazy[0] == 0 and lazy[1].startswith(f"usage: sigperm {command} [-h]")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], (0, MAIN_HELP, "")),
        (["--version"], (0, "0.1.0\n", "")),
        (
            [],
            (2, "", f"{USAGE}\nsigperm: error: the following arguments are required: subcommand\n"),
        ),
    ],
    ids=["help", "version", "none"],
)
def test_main_texts(capsys, argv, expected):
    assert exits(capsys, main, argv) == expected


def test_unknown_command(capsys):
    code, out, err = exits(capsys, main, ["cnt"])
    usage, message = err.splitlines()
    assert (code, out, usage) == (2, "", USAGE)
    assert message.startswith("sigperm: error: argument subcommand: invalid choice: ")
    assert all(command in message for command in COMMANDS)


def test_top_level_error_after_a_command_names_every_command(capsys):
    # argparse reports an argument no subparser takes with the main usage
    argv = ["count", "--n", "3", "--pattern", "1234", "extra"]
    lazy = exits(capsys, main, argv)
    assert lazy == exits(capsys, build_parser().parse_args, argv)
    assert lazy == (2, "", f"{USAGE}\nsigperm: error: unrecognized arguments: extra\n")


def built_subparsers(monkeypatch):
    """The names of the subparsers added while the test runs."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    return names


def test_a_count_builds_one_subparser(capsys, monkeypatch):
    names = built_subparsers(monkeypatch)
    assert main(["count", "--n", "4", "--pattern", "1234", "--method", "formula"]) == 0
    assert names == ["count"]
    assert "1234" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["cnt"]], ids=repr)
def test_no_command_builds_every_subparser(capsys, monkeypatch, argv):
    names = built_subparsers(monkeypatch)
    exits(capsys, main, argv)
    assert names == list(COMMANDS)


RUNS = [
    (["count", "--n", "4", "--pattern", "2143", "--method", "tree"], "rows"),
    (["verify", "--max-n", "3", "--threads", "1"], "rows"),
    (["conjecture", "--p1", "1234", "--p2", "2143", "--max-n", "3", "--threads", "1"], "rows"),
    (["gf", "--pattern", "2143", "--k", "2", "--q", "1", "--gamma", "3"], "coefficients"),
    (["tree", "--pattern", "2143", "--j", "1", "--depth", "2"], "tree"),
]


def test_a_rebound_emit_sees_every_command(capsys, monkeypatch):
    # loaded before the rebinding, so a command that bound _emit when it was
    # loaded would write past the recorder
    for command in COMMANDS:
        importlib.import_module(f"sigperm.cmd_{command}")
    seen = []
    emit = sigperm.cli._emit

    def recorder(args, started, manifest, body, *rest, **kwargs):
        seen.append((args.subcommand, sorted(body)))
        emit(args, started, manifest, body, *rest, **kwargs)

    monkeypatch.setattr(sigperm.cli, "_emit", recorder)
    for argv, _ in RUNS:
        assert main(argv) == 0
        assert capsys.readouterr().out
    assert [command for command, _ in seen] == [argv[0] for argv, _ in RUNS]
    assert all(key in keys for (_, keys), (_, key) in zip(seen, RUNS))
