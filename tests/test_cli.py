import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import parabolics
from parabolics.cli import build_parser, run


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def test_info_b2_lists_four_roots():
    code, out = invoke("info", "--type", "B2")
    assert code == 0
    assert "4 positive roots" in out
    assert out.count("\n  [") == 4


def test_info_json_round_trips():
    code, out = invoke("info", "--type", "G2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert len(data["positive_roots"]) == 6


def test_constants_csv():
    code, out = invoke("constants", "--type", "A2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,delta,magnitude"
    assert all(line.endswith(",1") for line in lines[1:])


def test_blocks_listing():
    code, out = invoke("blocks", "--type", "G2", "--prime", "2",
                       "--alpha", "1", "--max-height", "1")
    assert code == 0
    assert "ExoticH(0)@a1" in out and "ExoticL(0)@a1" in out


def test_validate_accepts_and_rejects(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "levi": [], "phi": {"[1,0]": 1, "[0,1]": 0, "[1,1]": 0}
    }))
    code, out = invoke("validate", "--type", "A2", "--prime", "2",
                       "--input", str(good))
    assert code == 0
    assert json.loads(out)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "levi": [], "phi": {"[1,0]": 1, "[0,1]": 1, "[1,1]": 2}
    }))
    code, out = invoke("validate", "--type", "A2", "--prime", "2",
                       "--input", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["diff"] == {"[1,1]": [2, 1]}
    assert "InvalidScheme" in capsys.readouterr().err


def test_reconstruct_round_trip(tmp_path):
    f = tmp_path / "scheme.json"
    f.write_text(json.dumps({
        "type": "G2", "prime": 2, "levi": [],
        "phi": {"[1,0]": 0, "[0,1]": 2, "[1,1]": 0, "[2,1]": 0,
                "[3,1]": 0, "[3,2]": 0},
    }))
    code, out = invoke("reconstruct", "--type", "G2", "--prime", "2",
                       "--input", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["fixpoint"] is True
    assert data["reconstructed"] == data["input"]


def test_census_jsonl_and_csv_deterministic():
    code1, out1 = invoke("census", "--type", "B2", "--prime", "2",
                         "--levi", "", "--max-height", "2")
    code2, out2 = invoke("census", "--type", "B2", "--prime", "2",
                         "--levi", "", "--max-height", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.splitlines():
        data = json.loads(line)
        assert data["type"] == "B2"
    code3, out3 = invoke("census", "--type", "B2", "--prime", "2",
                         "--max-height", "2", "--format", "csv")
    assert code3 == 0
    assert out3.splitlines()[0] == "type,prime,levi,phi"


def test_census_dot():
    code, out = invoke("census", "--type", "G2", "--prime", "2",
                       "--levi", "2", "--max-height", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph hasse {")


def test_fano_csv_matches_closed_forms():
    code, out = invoke("fano", "--type", "G2", "--prime", "2", "--levi", "",
                       "--max-height", "3", "--format", "csv", "--normalized")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type,p,levi,phi-hash,fano,certificate-root,pairing-value"
    fano_flags = [line.split(",")[4] for line in lines[1:]]
    assert fano_flags.count("true") == 2
    assert len(lines) == 1 + 13


def test_fibrations_json(tmp_path):
    f = tmp_path / "scheme.json"
    f.write_text(json.dumps({
        "type": "G2", "prime": 2, "levi": [],
        "phi": {"[1,0]": 0, "[0,1]": 2, "[1,1]": 0, "[2,1]": 0,
                "[3,1]": 0, "[3,2]": 0},
    }))
    code, out = invoke("fibrations", "--type", "G2", "--prime", "2",
                       "--input", str(f))
    assert code == 0
    data = json.loads(out)
    assert [s["base_type"] for s in data["steps"]] == ["G2", "A1"]
    assert data["steps"][0]["stripped"] == [{"kind": "frobenius", "m": 2}]


def test_fibrations_exotic_error(tmp_path, capsys):
    f = tmp_path / "exotic.json"
    f.write_text(json.dumps({
        "type": "G2", "prime": 2, "levi": [],
        "phi": {"[1,0]": 1, "[0,1]": 1, "[1,1]": 1, "[2,1]": 0,
                "[3,1]": 0, "[3,2]": 0},
    }))
    code, _ = invoke("fibrations", "--type", "G2", "--prime", "2",
                     "--input", str(f))
    assert code == 1
    assert "NoSmoothContraction" in capsys.readouterr().err


def test_d4_json():
    code, out = invoke("d4", "--type", "F4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 24
    assert data["subsystem_type"] == "D4"
    assert data["basis"][0] == [0, 1, 2, 2]


def test_dual_bijection_and_transport(tmp_path):
    code, out = invoke("dual", "--type", "C2")
    assert code == 0
    data = json.loads(out)
    assert data["dual_type"] == "B2"
    assert data["bijection"]["[1,1]"] == [1, 2]

    f = tmp_path / "borel.json"
    f.write_text(json.dumps({
        "type": "B2", "prime": 2, "levi": [],
        "phi": {"[1,0]": 0, "[0,1]": 0, "[1,1]": 0, "[1,2]": 0},
    }))
    code, out = invoke("dual", "--type", "B2", "--prime", "2",
                       "--input", str(f))
    assert code == 0
    assert json.loads(out)["type"] == "C2"


def test_domain_error_exit_code(capsys):
    code, _ = invoke("info", "--type", "Z3")
    assert code == 1
    assert "InvalidRootSystem" in capsys.readouterr().err


def run_process(*argv, stdin=""):
    """The CLI in a fresh interpreter, so an escaping exception would show
    as a traceback on stderr.  A bytes `stdin` is sent unchanged."""
    src = str(Path(parabolics.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from parabolics.cli import main; main()", *argv],
        input=stdin if isinstance(stdin, bytes) else stdin.encode(),
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    return subprocess.CompletedProcess(
        proc.args, proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    )


def test_input_not_an_object_is_a_domain_error():
    proc = run_process("validate", "--type", "A2", "--prime", "2", "--input", "-",
                       stdin="[1, 2, 3]")
    assert proc.returncode == 1
    assert proc.stderr.startswith("InvalidScheme:")
    assert "Traceback" not in proc.stderr


VALIDATE = ["validate", "--type", "B2", "--prime", "2", "--input"]


@pytest.mark.parametrize("argv,data,error", [
    (["info", "--type", "B²"], b"", "InvalidRootSystem"),  # a digit int() refuses
    (["info", "--type", "A60"], b"", "InvalidRootSystem"),  # above the rank limit
    (VALIDATE + ["FILE"], b'{"levi": [\xff]}', "InvalidScheme"),
    (VALIDATE + ["-"], b'{"levi": [\xff]}', "InvalidScheme"),
    (VALIDATE + ["FILE"], b"[" * 200000 + b"]" * 200000, "InvalidScheme"),
    (VALIDATE + ["-"], b'{"a":' * 200000 + b"1" + b"}" * 200000, "InvalidScheme"),
], ids=["superscript-rank", "rank-over-limit", "non-utf8-file", "non-utf8-stdin", "deep-file",
        "deep-stdin"])
def test_hostile_input_is_a_named_domain_error(argv, data, error, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    proc = run_process(*[str(path) if a == "FILE" else a for a in argv], stdin=data)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(error + ":")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["validate", "--prime", "2"], ["reconstruct", "--prime", "2"], ["fibrations", "--prime", "2"],
    ["dual"],
])
def test_an_integer_past_the_conversion_limit_is_refused(command, tmp_path):
    f = tmp_path / "scheme.json"
    limit = sys.get_int_max_str_digits()
    four = '{"type":"B2","prime":2,"levi":[],"phi":{"[1,0]":%s,"[0,1]":%s,"[1,1]":%s,"[1,2]":%s}}'
    refusal = f"InvalidScheme: scheme JSON holds an integer of {limit} digits or more\n"
    # past the limit, and at it: dual's pull-back adds 1, which takes limit nines past it
    for text in ('{"type":"B2","prime":2,"levi":[],"phi":{"[1,0]":%s}}' % ("9" * (limit + 700)),
                 four % (("9" * limit,) * 4)):
        f.write_text(text)
        proc = run_process(*command, "--type", "B2", "--input", str(f))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", refusal)
    # one digit fewer loads, and every command prints its result
    f.write_text(four % (("9" * (limit - 1),) * 4))
    proc = run_process(*command, "--type", "B2", "--input", str(f))
    assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout
    # malformed JSON still prints the decoder's own message
    f.write_text('{"type":"B2","prime":2,"levi":[],"phi":{"[1,0]":1')
    proc = run_process(*command, "--type", "B2", "--input", str(f))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "JSONDecodeError: Expecting ',' delimiter: line 1 column 50 (char 49)\n"


@pytest.mark.parametrize("flags,error", [
    (["validate", "--type", "B3", "--prime", "3"], "--type B3"),
    (["validate", "--type", "B3", "--prime", "2"], "--type B3"),
    (["reconstruct", "--type", "B2", "--prime", "3"], "--prime 3"),
    (["fibrations", "--type", "C2", "--prime", "2"], "--type C2"),
    (["dual", "--type", "C2"], "--type C2"),
], ids=["validate-type-and-prime", "validate-type", "reconstruct-prime",
        "fibrations-type", "dual-type"])
def test_input_that_contradicts_the_flags_is_a_domain_error(flags, error, tmp_path, capsys):
    f = tmp_path / "b2.json"
    f.write_text(json.dumps({
        "type": "B2", "prime": 2, "levi": [],
        "phi": {"[1,0]": 0, "[0,1]": 0, "[1,1]": 0, "[1,2]": 0},
    }))
    code, out = invoke(*flags, "--input", str(f))
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("InvalidScheme: " + error)
    for label in ("B2", "b2"):  # flags that agree with the file read it as before
        code, out = invoke("validate", "--type", label, "--prime", "2", "--input", str(f))
        assert code == 0 and json.loads(out)["valid"] is True


def test_malformed_levi_is_a_usage_error():
    proc = run_process("census", "--type", "A2", "--prime", "2", "--levi", "x")
    assert proc.returncode == 2
    assert "--levi" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["census", "--type", "B2", "--max-height", "1", "--format", "csv"],
    ["fano", "--type", "B2", "--max-height", "1"],
    ["blocks", "--type", "B2", "--max-height", "1"],
])
def test_non_prime_characteristic_is_a_domain_error(command, capsys):
    proc = run_process(*command, "--prime", "4")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("InvalidScheme:")
    assert "Traceback" not in proc.stderr
    for p in ("1", "0", "-2"):
        code, out = invoke(*command, "--prime", p)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("InvalidScheme:")


@pytest.mark.parametrize("option", [["--alpha", "0"], ["--max-height", "-1"]])
def test_blocks_out_of_range_input_is_a_domain_error(option):
    proc = run_process("blocks", "--type", "B2", "--prime", "2", *option)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("InvalidScheme:")
    assert "Traceback" not in proc.stderr


def test_blocks_anchor_outside_the_rank_names_the_anchor():
    proc = run_process("blocks", "--type", "B2", "--prime", "2", "--alpha", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "InvalidScheme: anchor a3 outside 1..2\n"


@pytest.mark.parametrize("command,tuples", [
    (["census", "--type", "A2", "--prime", "2", "--max-height", "100000000"],
     100000001 ** 2),
    (["census", "--type", "A1", "--prime", "2", "--max-height", "3000000", "--format", "csv"],
     3000001),
    (["fano", "--type", "A1", "--prime", "2", "--max-height", "100000000"], 100000001),
], ids=["census-a2", "census-a1-csv", "fano-a1"])
def test_an_oversized_census_is_refused_before_it_starts(command, tuples, capsys):
    start = time.perf_counter()
    code, out = invoke(*command)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"SearchSpaceTooLarge: {tuples} block tuples exceed the limit 1000000\n"
    )


def test_an_oversized_block_catalog_is_refused_before_it_starts(capsys):
    start = time.perf_counter()
    code, out = invoke("blocks", "--type", "A2", "--prime", "2", "--max-height", "100000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "SearchSpaceTooLarge: 100000001 catalog blocks exceed the limit 1000000\n"
    )


def test_blocks_bounds_the_command_not_each_catalog(monkeypatch, capsys):
    # A2 at p=2, M=2: two catalogs of 3 blocks; each is under a limit of 5, both are not
    monkeypatch.setattr(parabolics.census, "CENSUS_GUARD", 5)
    assert invoke("blocks", "--type", "A2", "--prime", "2", "--alpha", "2",
                  "--max-height", "2")[0] == 0
    capsys.readouterr()
    code, out = invoke("blocks", "--type", "A2", "--prime", "2", "--max-height", "2")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "SearchSpaceTooLarge: 6 catalog blocks exceed the limit 5\n"


def test_an_oversized_hasse_diagram_is_refused_with_empty_stdout(monkeypatch, capsys):
    # B2 at p=2, M=2 on the Borel has 15 schemes: 2*15*2 bytes of bitsets
    monkeypatch.setattr(parabolics.census, "HASSE_GUARD", 59)
    code, out = invoke("census", "--type", "B2", "--prime", "2", "--max-height", "2",
                       "--format", "dot")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "SearchSpaceTooLarge: 60 bytes of Hasse bitsets for 15 schemes exceed the limit 59\n"
    )


def test_importing_the_cli_does_not_load_hashlib():
    src = str(Path(parabolics.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, parabolics.cli; print('hashlib' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("phi,error", [
    ('{"[1,0]":1,"[1, 0]":0,"[0,1]":0,"[1,1]":0}', "phi gives a1 two heights"),
    ('{"[1,0]":1,"[1,0]":0,"[0,1]":0,"[1,1]":0}', "scheme JSON repeats the key '[1,0]'"),
], ids=["two-spellings", "repeated-key"])
def test_a_scheme_file_that_gives_a_root_two_heights_is_refused(phi, error, tmp_path, capsys):
    f = tmp_path / "scheme.json"
    f.write_text('{"type":"A2","prime":2,"levi":[],"phi":%s}' % phi)
    code, out = invoke("validate", "--type", "A2", "--prime", "2", "--input", str(f))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"InvalidScheme: {error}\n"


def test_a_repeated_levi_index_is_a_domain_error(tmp_path, capsys):
    census = ["census", "--type", "B2", "--prime", "2", "--levi"]
    assert invoke(*census, "1,1") == (1, "")
    assert capsys.readouterr().err == "InvalidScheme: Levi subset [1, 1] repeats a simple index\n"
    f = tmp_path / "scheme.json"
    f.write_text('{"type":"B2","prime":2,"levi":[1,1],"phi":{"[0,1]":0,"[1,1]":0,"[1,2]":0}}')
    for command in ("validate", "reconstruct", "fibrations"):
        code, out = invoke(command, "--type", "B2", "--prime", "2", "--input", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == \
            "InvalidScheme: Levi subset [1, 1] repeats a simple index\n"


def test_dual_with_an_empty_input_path_reads_the_path(capsys):
    assert invoke("dual", "--type", "B2", "--input", "") == (1, "")
    assert capsys.readouterr().err.startswith("FileNotFoundError: ")


def test_format_the_subcommand_does_not_write_is_a_usage_error():
    proc = run_process("info", "--type", "B2", "--format", "dot")
    assert proc.returncode == 2
    assert "--format" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_shared_parser_keeps_no_state_between_runs(capsys):
    census = ["census", "--type", "B2", "--prime", "2", "--max-height", "1"]
    with pytest.raises(SystemExit) as exc:
        run(census + ["--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert invoke(*census, "--levi", "1")[0] == 0
    code, out = invoke(*census)
    assert code == 0
    assert out == invoke(*census, "--levi", "")[1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "block tables v" in capsys.readouterr().out
