"""`cli.run` reads plain argv without argparse, and argparse is its oracle.

`cli._fast_args` either gives up (None), and argparse parses as before, or
returns exactly the Namespace that `build_parser().parse_args(argv)` gives:
the same attributes, values and order.  The property draws argv from the real
subcommand and option names, good values and junk.  The benchmark's census and
fano sweeps, one full option set per subcommand and a few repeated options
must take the fast path, so a gain cannot quietly fall back to argparse.
"""

import contextlib
import importlib
import io
from pathlib import Path

from hypothesis import given, settings, strategies as st

from parabolics.cli import _SUBCOMMANDS, _fast_args, build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"

build_parser()  # fills the option table

#: a value of each option that passes its type and choices
GOOD = {
    "--type": ["A2", "B2", "g2", "XX"],
    "--prime": ["2", "3", "4", " 5", "+7"],
    "--levi": ["", "1", "1,2", "2,1", " 1"],
    "--max-height": ["0", "1", "3", "12"],
    "--input": ["scheme.json", "a=b", "census"],
    "--alpha": ["1", "2"],
}
FORMATS = {name: options["--format"].choices for name, (_, _, options) in _SUBCOMMANDS.items()}
OPTIONS = sorted({flag for _, _, options in _SUBCOMMANDS.values() for flag in options})
JUNK = [
    "-h", "--help", "--version", "--", "-1", "-", "", "x", "1.5", "-x",
    "--lev", "--ty", "--norm", "--max", "--type=B2", "--levi=1", "--prime=2",
    "--format=csv", "bogus", "dot", "json", "1,x", "1,,2", "census", "fano",
]
COMMANDS = sorted(_SUBCOMMANDS)


def oracle(argv):
    """vars() of argparse's Namespace, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return list(vars(build_parser().parse_args(argv)).items())
        except SystemExit:
            return None


def fast(argv):
    args = _fast_args(argv)
    return None if args is None else list(vars(args).items())


def good_value(flag, command):
    if flag == "--format":
        return st.sampled_from(FORMATS[command])
    return st.sampled_from(GOOD.get(flag, ["1"]))


@st.composite
def plain_argvs(draw):
    """A subcommand, every required option and some others, each once, good values."""
    command = draw(st.sampled_from(COMMANDS))
    options = _SUBCOMMANDS[command][2]
    flags = [f for f, a in options.items() if a.required or draw(st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if options[flag].nargs != 0:
            argv.append(draw(good_value(flag, command)))
    return argv


@st.composite
def argvs(draw):
    """A plain argv with up to three edits: junk, an option or a subcommand
    inserted or swapped in, a token deleted, or two tokens repeated."""
    argv = draw(plain_argvs())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(JUNK + OPTIONS + COMMANDS))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        if edit == "insert":
            argv.insert(i, token)
        elif edit == "replace" and i < len(argv):
            argv[i] = token
        elif edit == "delete" and i < len(argv):
            del argv[i]
        elif edit == "repeat" and i > 0:
            argv += argv[i:i + 2]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argvs())
def test_the_fast_path_gives_up_or_agrees_with_argparse(argv):
    got = fast(argv)
    assert got is None or got == oracle(argv), argv


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(plain_argvs())
def test_plain_argv_takes_the_fast_path(argv):
    expected = oracle(argv)
    assert expected is not None
    assert fast(argv) == expected


def test_the_benchmark_sweeps_and_full_option_sets_take_the_fast_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    lines = [list(q.payload) for w in ("census-sweep", "fano-geometry")
             for q in workloads.cli_queries(w)]
    assert len(lines) == 648
    for command, (_, _, options) in _SUBCOMMANDS.items():
        argv = [command]
        for flag, action in options.items():
            argv += [flag] if action.nargs == 0 else [flag, next(iter(
                FORMATS[command] if flag == "--format" else GOOD[flag]))]
        lines.append(argv)
    lines += [  # a repeated option keeps its last value, as in argparse
        ["census", "--type", "B2", "--prime", "2", "--type", "B3"],
        ["census", "--type", "B3", "--prime", "2", "--levi", "1", "--levi", "", "--levi", "2,3",
         "--normalized", "--normalized"],
        ["dual", "--type", "B2", "--input", "x", "--input", "y", "--prime", "2", "--prime", "3"],
    ]
    for argv in lines:
        expected = oracle(argv)
        assert expected is not None, argv
        assert fast(argv) == expected, argv


def test_argv_none_reads_sys_argv(monkeypatch):
    from parabolics import cli

    seen = []
    monkeypatch.setattr(cli, "_fast_args", lambda argv: seen.append(argv))
    monkeypatch.setattr("sys.argv", ["parabolics", "info", "--type", "A1"])
    out = io.StringIO()
    assert cli.run(None, out) == 0
    assert seen == [["info", "--type", "A1"]]
    assert out.getvalue().startswith("root system A1")
