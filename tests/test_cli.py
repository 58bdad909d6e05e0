"""The command line's parsing, against the argparse parser in cli_reference.

Help text, usage errors and their exit codes must be what the reference
prints, on the running interpreter's own argparse ("optional arguments:" on
3.10, "options:" from 3.11).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import cli_reference
from hkcert import cli

# each refused for one reason, none ever reaching a command
BAD_ARGV = [
    [],
    ["check", "cert.json"],
    ["construct", "-o", "cert.json"],
    ["construct", "-i", "instance.json"],
    ["construct", "-i", "instance.json", "-o", "cert.json", "--budget-x", "1"],
    ["construct", "-i", "instance.json", "-o", "cert.json", "--budget-u", "1e6"],
    ["construct", "--budget", "5", "-i", "instance.json", "-o", "cert.json"],
    ["construct", "-i", "instance.json", "-o"],
    ["verify"],
    ["verify", "--jobs", "2"],
    ["verify", "--threads", "2", "cert.json"],
    ["verify", "--jobs", "two", "cert.json"],
    ["verify", "--jobs", "9" * 5000, "cert.json"],
    ["verify", "a.json", "--jobs", "2", "b.json"],
    ["random", "--n", "2", "--pic-rank", "2", "--c0", "3", "-o", "out"],
    ["random", "--n", "2", "--pic-rank", "2", "--c0", "3", "--seed", "7"],
    ["random", "--n", "x", "--pic-rank", "2", "--c0", "3", "--seed", "7", "-o", "out"],
    ["random", "--c", "3", "--n", "2", "--pic-rank", "2", "--seed", "7", "-o", "out"],
]


def _ended(main, argv):
    """stdout, stderr and exit status of main(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as ended:
            main(argv)
    return out.getvalue(), err.getvalue(), ended.value.code


def test_help_is_the_reference_help():
    assert cli.build_parser().format_help() == cli_reference.build_parser().format_help()
    for argv in (["-h"], ["--help"], ["construct", "-h"], ["verify", "--help"], ["random", "-h"]):
        printed = _ended(cli.main, argv)
        assert printed == _ended(cli_reference.main, argv), argv
        assert printed[0].startswith("usage: hkcert") and printed[1:] == ("", 0)


@pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda argv: " ".join(argv)[:60] or "no-command")
def test_usage_errors_are_the_reference_errors(argv):
    refused = _ended(cli.main, argv)
    assert refused == _ended(cli_reference.main, argv)
    assert refused[0] == "" and refused[1].startswith("usage: hkcert") and refused[2] == 2


def _reference_parse(argv):
    """(function name, keywords) the reference parser gives argv, or None
    where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(cli_reference.build_parser().parse_args(argv))
        except SystemExit:
            return None
    del args["command"]
    return args.pop("run").__name__, args


def _exact_parse(argv):
    parsed = cli._parse_exact(argv)
    return None if parsed is None else (cli.COMMANDS[parsed[0]][0].__name__, parsed[1])


FLAGS = sorted({flag for *_, options in cli.COMMANDS.values() for option in options for flag in option[0]})
# abbreviations (ambiguous or not), joined values, help, the end of options,
# numbers argparse reads and the exact parser does not, and awkward paths
ODD = ["--bound", "--budget", "--budget-is", "--inp", "--out", "--job", "--pic", "--d", "--se", "--c",
       "--jobs=2", "-iX", "-h", "--help", "--", "-", "-1", "+5", "5_0", "٣", "9" * 5000]
VALUES = {int: ["0", "2", "16", "007"], str: ["a.json", "", "b c.json", "x=y", "verify", "construct"]}


@st.composite
def command_lines(draw):
    """A command and a shuffle of its flags, each with a value (mostly of
    its type), and of a run of paths; then a few tokens of any kind above
    replaced or inserted."""
    command = draw(st.sampled_from([*cli.COMMANDS, "check"]))
    _, _, _, options = cli.COMMANDS[command if command in cli.COMMANDS else "verify"]
    pieces = []
    for flags, _, kind, default, _, _ in options:
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2] if default is None else [0, 1]))):
            value = draw(st.sampled_from(VALUES[kind] * 4 + ["-1", "+5", "٣", "-", "-iX", "--", "-h", "-a b"]))
            pieces.append([draw(st.sampled_from(flags)), value])
    pieces.append(draw(st.lists(st.sampled_from(VALUES[str]), max_size=3)))
    order = draw(st.permutations(range(len(pieces))))
    argv = [command, *(token for k in order for token in pieces[k])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(ODD + VALUES[int] + VALUES[str] + FLAGS + list(cli.COMMANDS)))
        if draw(st.booleans()) and at < len(argv):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(command_lines())
def test_exact_parse_is_what_argparse_reads(argv):
    parsed = _exact_parse(argv)
    if parsed is not None:
        assert parsed == _reference_parse(argv)


def _random_argv(*flags):
    argv = ["random", "--n", "2", "--pic-rank", "2", "--c0", "3", "--seed", "7"]
    return argv + [token for flag in flags for token in (flag, "5")] + ["-o", "dir/"]


ACCEPTED = [
    ["construct", "-i", "instance.json", "-o", "cert.json"],
    ["construct", "--output", "cert.json", "--input", "instance.json"],
    *(["construct", "-i", "in.json", "-o", "out.json", flag, "15"]
      for flag in ("--budget-u", "--budget-t", "--budget-isometry", "--bound-coeff")),
    ["construct", "-i", "e2.json", "-o", "e2.cert.json", "--bound-coeff", "15",
     "--budget-u", "999999", "--budget-t", "999998", "--budget-isometry", "9999"],
    ["verify", "cert.json"],
    ["verify", "cert.json", "more.json", "--jobs", "2"],
    ["verify", "--jobs", "2", "cert.json", "more.json"],
    ["verify", *(f"c{i:03d}.json" for i in range(36))],
    _random_argv(),
    _random_argv("--count"),
    _random_argv("--d-max", "--count"),
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=lambda argv: " ".join(argv)[:60])
def test_exact_parse_takes_the_documented_command_lines(argv):
    parsed = _exact_parse(argv)
    assert parsed is not None and parsed == _reference_parse(argv)
