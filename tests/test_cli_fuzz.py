"""Fuzzed command lines: every argv gets an exit code, never a traceback.

Derandomized hypothesis draws over every subcommand, with types of rank at
most 3 (and junk labels), `--max-height` at most 3, junk option values, and
scheme JSON where a command reads one: well formed, malformed, not UTF-8 or
not JSON, from a file or from stdin.  Each argv must end in `run` returning
0 or 1, or in argparse's `SystemExit` with code 0 or 2; nothing else may
escape, and a second run must print the same bytes.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from parabolics import CensusQuery, enumerate_parabolics, root_system
from parabolics.cli import _SUBCOMMANDS, build_parser, run

build_parser()  # fills the option table

LABELS = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
#: values each option takes; `--type` and `--prime` name the scheme's own
GOOD = {
    "--levi": ["", "1", "2", "3", "1,2", "2,3"],
    "--max-height": ["0", "1", "2", "3"],
    "--alpha": ["1", "2", "3"],
    "--input": ["SCHEME", "-"],
}
#: values an option refuses, or that fail or disagree with the scheme later
BAD = {
    "--type": ["b2", "A3", "C2", "A0", "Z2", "G3", ""],
    "--prime": ["2", "3", "5", "4", "1", "0", "x"],
    "--levi": ["1,1", "4", "0", "x"],
    "--max-height": ["x"],
    "--alpha": ["0", "4"],
    "--input": ["missing.json", ""],
}
HEIGHTS, BAD_HEIGHTS = [0, 1, 2, 3], [-1, 1.5, True, "1", None]
#: true one time in six (hypothesis draws small integers far more often)
rarely = st.sampled_from([False] * 5 + [True])


@st.composite
def scheme_bytes(draw, label, p):
    """Scheme JSON of a rank <= 3 type: a census scheme or random heights,
    then now and then broken: a key dropped, a bad height or root, or not an
    object, not JSON, not UTF-8."""
    rs = root_system(label)
    levi = draw(st.sets(st.integers(1, rs.rank), max_size=rs.rank - 1))
    if draw(st.booleans()):
        schemes = enumerate_parabolics(CensusQuery(rs.rtype, p, levi, 2))
        data = draw(st.sampled_from(schemes)).to_json_dict()
    else:
        data = {"type": label, "prime": p, "levi": sorted(levi), "phi": {
            json.dumps(list(g.coeffs)).replace(" ", ""): draw(st.sampled_from(HEIGHTS))
            for g in rs.positive_roots if not g.support() <= levi
        }}
    phi = data["phi"]
    edit = "none" if not draw(rarely) else draw(st.sampled_from(
        ["drop", "height", "key", "levi", "untyped", "list", "text", "bytes"]))
    if edit == "drop":
        data.pop(draw(st.sampled_from(sorted(data))))
    elif edit == "height" and phi:
        phi[draw(st.sampled_from(sorted(phi)))] = draw(st.sampled_from(BAD_HEIGHTS))
    elif edit == "key":
        phi[draw(st.sampled_from(["[9,9]", "[1]", "x", "[1,0,0,0]"]))] = 0
    elif edit == "levi":
        data["levi"] = draw(st.sampled_from([[0], [1, 1], [rs.rank + 1], "1", [1.0]]))
    elif edit == "untyped":
        del data["type"], data["prime"]
    elif edit in ("list", "text", "bytes"):
        return {"list": b"[1, 2, 3]", "text": b'{"levi": [', "bytes": b'{"levi": [\xff]}'}[edit]
    return json.dumps(data).encode()


@st.composite
def command_lines(draw, command):
    """(argv, scheme bytes); `SCHEME` in argv stands for the scheme's path."""
    label, p = draw(st.sampled_from(LABELS)), draw(st.sampled_from([2, 3]))
    argv = [command]
    for flag, action in _SUBCOMMANDS[command][2].items():
        if action.nargs == 0:
            argv += [flag] if draw(st.booleans()) else []
        elif action.required and draw(rarely) and draw(rarely):
            continue  # a required option left out
        elif flag in BAD and (action.required or draw(st.booleans())):
            good = {"--type": [label], "--prime": [str(p)]}.get(flag) or GOOD[flag]
            argv += [flag, draw(st.sampled_from(BAD[flag] if draw(rarely) else good))]
        elif flag == "--format" and draw(st.booleans()):
            argv += [flag, "dot" if draw(rarely) else draw(st.sampled_from(action.choices))]
    return argv, draw(scheme_bytes(label, p))


@pytest.fixture(scope="module")
def scheme_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scheme.json"


def outcome(argv, stdin):
    """(exit code, stdout, stderr) of `run(argv)`; any other escape fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin))):
        try:
            code = run(argv)
            assert code in (0, 1), argv
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_every_command_line_ends_in_an_exit_code_and_repeats(scheme_path, command, data):
    argv, scheme = data.draw(command_lines(command))
    scheme_path.write_bytes(scheme)
    argv = [str(scheme_path) if a == "SCHEME" else a for a in argv]
    first = outcome(argv, scheme)
    assert outcome(argv, scheme) == first, argv
