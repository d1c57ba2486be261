"""The CLI's help and usage-error output is pinned byte for byte.

Each `--help` case records the exit code (0), an empty stderr and the sha256
of the help text on stdout; each usage-error case records the exit code (2),
an empty stdout and the exact stderr.  argparse wraps its text to the
terminal width, which it reads from COLUMNS, so every case runs with
COLUMNS=80.  The expected bytes are those of Python 3.11's argparse.

Run as a script, ``PYTHONPATH=src python tests/test_cli_usage.py`` prints
every case's exit code, stdout digest and stderr through the same runner,
and never rewrites this file.
"""

import contextlib
import hashlib
import io
import os

import pytest

from parabolics.cli import run

HELP = {
    "": "2d33590049c8e83e556a9e4c980cdcad2af0331723417b53eb4a8d1d6b91b59d",
    "info": "21e4db5f31aea60a772c14e1ef4cfac156e444efe828b8b0518004b411667b31",
    "constants": "f6c26afbb0a155dfc1c6c6baa4c727ac353480cb8812f96587973da5b282f0e3",
    "blocks": "2704d9ddeb0d074977ce1242c446aa302c6fec1376f3e69bbbc2c0067e2f3f2a",
    "validate": "93a9a58218eadaedecc87866971131b007899ecab78f8d9ae65e19885631c783",
    "reconstruct": "a01525e4959bc64aeccfa8ea00b029f910aec23bc83e810b41196281ef0aed1d",
    "census": "4df4d3088ca388e3ec3b144e724345488f629750faf1eb6b134421fc255007c4",
    "fano": "0afedbaabecfbc4bee68a8d07520e68f1ec7687b6006b22981f5c4f4a91cf082",
    "fibrations": "acf2f7dd191a470acd87c4c7893db2e6e2440a445eeed54b84a4b659399fe9cf",
    "d4": "ae033340d3138116aaf82e20b3977e40a966300aaa5e2dd3c9be0dab3273b5ca",
    "dual": "f3f346d4c80b11a1b90b80bba1f46acdf57b8708e98631f89e55494f47e5b6cd",
}

TOP_USAGE = """\
usage: parabolics [-h] [--version]
                  {info,constants,blocks,validate,reconstruct,census,fano,fibrations,d4,dual}
                  ...
"""

CENSUS_USAGE = """\
usage: parabolics census [-h] --type TYPE --prime PRIME [--levi LEVI]
                         [--max-height MAX_HEIGHT]
                         [--format {json,csv,text,dot}] [--normalized]
"""

#: one usage error per subcommand, two of the top-level parser, `dual`'s
#: transport flags without --input, and `--levi` values with an empty token
USAGE_ERRORS = {
    "no-command": ([], TOP_USAGE + "parabolics: error: the following arguments are "
                   "required: command\n"),
    "unknown-command": (["nope"], TOP_USAGE + "parabolics: error: argument command: "
                        "invalid choice: 'nope' (choose from 'info', 'constants', 'blocks', "
                        "'validate', 'reconstruct', 'census', 'fano', 'fibrations', 'd4', "
                        "'dual')\n"),
    "info": (["info"], """\
usage: parabolics info [-h] --type TYPE [--format {text,json}]
parabolics info: error: the following arguments are required: --type
"""),
    "constants": (["constants", "--type", "A2", "--format", "json"], """\
usage: parabolics constants [-h] --type TYPE [--format {csv}]
parabolics constants: error: argument --format: invalid choice: 'json' (choose from 'csv')
"""),
    "blocks": (["blocks", "--type", "B2", "--prime", "2", "--alpha", "x"], """\
usage: parabolics blocks [-h] --type TYPE --prime PRIME
                         [--max-height MAX_HEIGHT] [--format {text,json}]
                         [--alpha ALPHA]
parabolics blocks: error: argument --alpha: invalid int value: 'x'
"""),
    "validate": (["validate", "--type", "B2", "--prime", "2"], """\
usage: parabolics validate [-h] --type TYPE --prime PRIME --input INPUT
                           [--format {json}]
parabolics validate: error: the following arguments are required: --input
"""),
    "reconstruct": (["reconstruct", "--type", "B2", "--input", "-"], """\
usage: parabolics reconstruct [-h] --type TYPE --prime PRIME --input INPUT
                              [--format {json}]
parabolics reconstruct: error: the following arguments are required: --prime
"""),
    "census": (["census", "--type", "A2", "--prime", "2", "--levi", "x"], CENSUS_USAGE
               + "parabolics census: error: argument --levi: expected comma-separated "
               "simple indices, got 'x'\n"),
    "census-levi-inner-empty": (["census", "--type", "A2", "--prime", "2", "--levi", "1,,2"],
                                CENSUS_USAGE + "parabolics census: error: argument --levi: "
                                "expected comma-separated simple indices, got '1,,2'\n"),
    "census-levi-comma": (["census", "--type", "A2", "--prime", "2", "--levi", ","],
                          CENSUS_USAGE + "parabolics census: error: argument --levi: "
                          "expected comma-separated simple indices, got ','\n"),
    "census-levi-trailing-comma": (["census", "--type", "A2", "--prime", "2", "--levi", "1,"],
                                   CENSUS_USAGE + "parabolics census: error: argument --levi: "
                                   "expected comma-separated simple indices, got '1,'\n"),
    "fano": (["fano", "--type", "B2", "--prime", "2", "--max-height", "1.5"], """\
usage: parabolics fano [-h] --type TYPE --prime PRIME [--levi LEVI]
                       [--max-height MAX_HEIGHT] [--format {csv,json,text}]
                       [--normalized]
parabolics fano: error: argument --max-height: invalid int value: '1.5'
"""),
    # an unknown option after a subcommand is reported by the top-level parser
    "fibrations": (["fibrations", "--type", "B2", "--prime", "2", "--input", "-", "--extra"],
                   TOP_USAGE + "parabolics: error: unrecognized arguments: --extra\n"),
    "d4": (["d4", "--type", "F4", "--format", "csv"], """\
usage: parabolics d4 [-h] --type TYPE [--format {json,text}]
parabolics d4: error: argument --format: invalid choice: 'csv' (choose from 'json', 'text')
"""),
    "dual": (["dual", "--type", "B2", "--prime"], """\
usage: parabolics dual [-h] --type TYPE [--format {json,csv}] [--prime PRIME]
                       [--input INPUT] [--pushforward]
parabolics dual: error: argument --prime: expected one argument
"""),
    "dual-without-input": (["dual", "--type", "B2", "--pushforward"], """\
usage: parabolics dual [-h] --type TYPE [--format {json,csv}] [--prime PRIME]
                       [--input INPUT] [--pushforward]
parabolics dual: error: argument --pushforward: not allowed without --input
"""),
    "dual-prime-without-input": (["dual", "--type", "B2", "--prime", "2"], """\
usage: parabolics dual [-h] --type TYPE [--format {json,csv}] [--prime PRIME]
                       [--input INPUT] [--pushforward]
parabolics dual: error: argument --prime: not allowed without --input
"""),
}


def run_captured(argv):
    """(exit code, stdout, stderr) of `run(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_is_pinned(command):
    code, out, err = run_captured([command, "--help"] if command else ["--help"])
    assert (code, err, sha256(out)) == (0, "", HELP[command])


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_pinned(case):
    argv, stderr = USAGE_ERRORS[case]
    assert run_captured(argv) == (2, "", stderr)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for command in sorted(HELP):
        code, out, err = run_captured([command, "--help"] if command else ["--help"])
        print(f"--help {command or '(top)'}: exit {code}, stdout {sha256(out)}, stderr {err!r}")
    for case in sorted(USAGE_ERRORS):
        code, out, err = run_captured(USAGE_ERRORS[case][0])
        print(f"{case}: exit {code}, stdout {out!r}, stderr:\n{err}")
