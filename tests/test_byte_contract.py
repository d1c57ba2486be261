"""CLI output is a byte contract: these digests must not move.

Each case runs one subcommand through ``cli.run`` and compares the sha256 of
its stdout with a digest recorded before the scheme representation was
rewritten.  A refactor that changes any byte of the output fails here.
"""

import hashlib
import io
import json

import pytest

from parabolics.cli import run

#: a B3, p=2 height function that is not a reconstruction fixpoint, so
#: `validate` prints a diff and `reconstruct` prints two different schemes
SCHEME = {
    "type": "B3", "prime": 2, "levi": [2],
    "phi": {"[1,0,0]": 2, "[0,0,1]": 1, "[1,1,0]": 1, "[0,1,1]": 3,
            "[1,1,1]": 0, "[0,1,2]": 2, "[1,1,2]": 1, "[1,2,2]": 1},
}

CASES = {
    "census-json": (["census", "--type", "B3", "--prime", "2", "--max-height", "2",
                     "--format", "json"], 0,
                    "a6a0301608ffb70722ae5ed9156afe6c448a5c93a1459dbab20a5c6eebd02f7f"),
    "census-csv": (["census", "--type", "B3", "--prime", "2", "--max-height", "2",
                    "--format", "csv"], 0,
                   "90bf18d1a775fd122d09f630cec5ab3850e783db26d44c24e924ef9017b8fc20"),
    "census-text": (["census", "--type", "B3", "--prime", "2", "--max-height", "2",
                     "--format", "text"], 0,
                    "be892ef01a0cbd199e47da63cc870b62b1993ee6a73e5b6f99dcd69a3001666c"),
    "census-dot": (["census", "--type", "B3", "--prime", "2", "--max-height", "2",
                    "--format", "dot"], 0,
                   "74ecad8a1dad9cddd73a6d2720098a1e0fc99781344db1fbc79a7e0b1d0ca9f8"),
    "fano-csv": (["fano", "--type", "G2", "--prime", "2", "--max-height", "3",
                  "--format", "csv"], 0,
                 "c1513ee2f13d0ecb609d5cd423af80cd743b53125f269e2ea07ba54d418c7955"),
    "fano-json": (["fano", "--type", "G2", "--prime", "2", "--max-height", "3",
                   "--format", "json"], 0,
                  "dacfe43f1bc694f37a17689972a9b1cb05a66e7eec2380e286443059ca7b9d45"),
    "fano-text": (["fano", "--type", "G2", "--prime", "2", "--max-height", "3",
                   "--format", "text"], 0,
                  "17375841660a69c39f1cb690cd82a2fe0bdd5cec2d15c566203a16d8b0c307f8"),
    "census-text-f4-levi": (["census", "--type", "F4", "--prime", "2", "--levi", "1,2",
                             "--max-height", "2", "--format", "text"], 0,
                            "7364fb2d9221e8a62ac416f9dec1a5d2609ae256ae97a1c06cd1fce3e9a6143f"),
    "census-dot-c3-levi": (["census", "--type", "C3", "--prime", "2", "--levi", "2",
                            "--max-height", "3", "--format", "dot"], 0,
                           "8824ec50b6bc85eb9396a4b738d1813922ec5ed7646601a5887fe35eeba02a2c"),
    "fano-text-b3": (["fano", "--type", "B3", "--prime", "2", "--max-height", "3",
                      "--format", "text"], 0,
                     "6a4a561415289c80874f635de78a74fe288df40ac5a33ea2fa67674a7e4b8b29"),
    "blocks": (["blocks", "--type", "F4", "--prime", "2", "--max-height", "2"], 0,
               "1cd8408ea1149e6cf17930d6e53b50bcfccb6f09a82c08f9a8eecb9b28945098"),
    "validate": (["validate", "--type", "B3", "--prime", "2", "--input", "SCHEME"], 1,
                 "a63e0a0a63826c0168474b0062ab4273d4b665c878cf12d6f1ac822eabdaffcf"),
    "reconstruct": (["reconstruct", "--type", "B3", "--prime", "2", "--input", "SCHEME"], 0,
                    "1107d89c862a07bce704f2cac3b901d9db907a4f4580ee16ba0038e754392860"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path):
    argv, code, digest = CASES[name]
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(SCHEME))
    buf = io.StringIO()
    assert run([str(path) if a == "SCHEME" else a for a in argv], out=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
