"""CLI output is a byte contract: these digests must not move.

Each case runs one subcommand through ``cli.run`` and compares the sha256 of
its stdout with a digest recorded before the code it covers was last
refactored.  A refactor that changes any byte of the output fails here.

Run as a script, ``PYTHONPATH=src python tests/test_byte_contract.py`` prints
``name digest`` for every case through the same runner, and never rewrites
this file.  To pin a new case, add it to CASES with any digest, run the
script with ``PYTHONPATH`` pointing at the ``src`` of a checkout of the
commit before the refactor, and paste the printed digest in.
"""

import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from parabolics.cli import run

#: a B3, p=2 height function that is not a reconstruction fixpoint, so
#: `validate` prints a diff and `reconstruct` prints two different schemes
SCHEME = {
    "type": "B3", "prime": 2, "levi": [2],
    "phi": {"[1,0,0]": 2, "[0,0,1]": 1, "[1,1,0]": 1, "[0,1,1]": 3,
            "[1,1,1]": 0, "[0,1,2]": 2, "[1,1,2]": 1, "[1,2,2]": 1},
}

#: SCHEME with height 2 on the short root a1+a2+a3, so every short root off
#: the Levi has height >= 1 and `dual --pushforward` applies
SHORT_THICK = dict(SCHEME, phi=dict(SCHEME["phi"], **{"[1,1,1]": 2}))

#: a B3, p=2 census scheme whose fibration sequence strips two kernels and
#: has a two-factor fiber
FIBERED = {
    "type": "B3", "prime": 2, "levi": [],
    "phi": {"[0,0,1]": 2, "[0,1,0]": 0, "[0,1,1]": 0, "[0,1,2]": 0, "[1,0,0]": 2,
            "[1,1,0]": 0, "[1,1,1]": 0, "[1,1,2]": 0, "[1,2,2]": 0},
}

#: a D4, p=3 scheme whose first contraction removes the branch node 2,
#: leaving a fiber of three A1 factors
D4_BRANCH = {
    "type": "D4", "prime": 3, "levi": [],
    "phi": {"[0,0,0,1]": 0, "[0,0,1,0]": 1, "[0,1,0,0]": 0, "[1,0,0,0]": 1, "[0,1,0,1]": 0,
            "[0,1,1,0]": 0, "[1,1,0,0]": 0, "[0,1,1,1]": 0, "[1,1,0,1]": 0, "[1,1,1,0]": 0,
            "[1,1,1,1]": 0, "[1,2,1,1]": 0},
}

INPUTS = {"SCHEME": SCHEME, "SHORT_THICK": SHORT_THICK, "FIBERED": FIBERED,
          "D4_BRANCH": D4_BRANCH}

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
    "census-csv-b5": (["census", "--type", "B5", "--prime", "2", "--max-height", "3",
                       "--format", "csv"], 0,
                      "05012f35543598385fe01b3ca774e5448875c234b5f3bb0130970571e697bc65"),
    "census-json-c4-normalized": (["census", "--type", "C4", "--prime", "2", "--max-height",
                                   "4", "--format", "json", "--normalized"], 0,
                                  "14a2bc87c182d7d8a01d93d36944dfa820c45578ca8db5ed22791cf2be838614"),
    # M = 130 needs two-byte height lanes in the census kernel
    "census-csv-a2-wide": (["census", "--type", "A2", "--prime", "3", "--max-height", "130",
                            "--format", "csv"], 0,
                           "1c119ab73f011c0eb98fb5d781456a258279a5004a261a79bdb436801c7f385e"),
    "census-csv-g2-wide-normalized": (["census", "--type", "G2", "--prime", "2", "--max-height",
                                       "130", "--format", "csv", "--normalized"], 0,
                                      "aee0ed68225f0e28a1b896b642199d1e0fb044207c739641f081aa4103d4816b"),
    "blocks": (["blocks", "--type", "F4", "--prime", "2", "--max-height", "2"], 0,
               "1cd8408ea1149e6cf17930d6e53b50bcfccb6f09a82c08f9a8eecb9b28945098"),
    "validate": (["validate", "--type", "B3", "--prime", "2", "--input", "SCHEME"], 1,
                 "a63e0a0a63826c0168474b0062ab4273d4b665c878cf12d6f1ac822eabdaffcf"),
    "reconstruct": (["reconstruct", "--type", "B3", "--prime", "2", "--input", "SCHEME"], 0,
                    "1107d89c862a07bce704f2cac3b901d9db907a4f4580ee16ba0038e754392860"),
    "info-text-b3": (["info", "--type", "B3"], 0,
                     "38aec0f8bec6f0751735f8152c2e3918e757edbdb75aa72a6b4407f2d11fb651"),
    "info-json-b3": (["info", "--type", "B3", "--format", "json"], 0,
                     "83759984cd5adbf97506d6bfc3b59fcde2859f37c9b5cb0c6d9675bd8a020c4f"),
    "info-text-g2": (["info", "--type", "G2"], 0,
                     "1ae2c695c719fede8f310a5c666d8e453ead38bf147cf80fe63c65e419e03db9"),
    "info-json-g2": (["info", "--type", "G2", "--format", "json"], 0,
                     "1ed0f6275194cf38daafb5916dbae413f37c307baca2d4c1f80b4704d5d29544"),
    "d4-json": (["d4", "--type", "F4"], 0,
                "9c1e1a37103fec0d164eb20d84bf0d21b6f78ff3d33f86171bd6159889aac8f0"),
    "d4-text": (["d4", "--type", "F4", "--format", "text"], 0,
                "2cb3a223b8a9d49055a4dd9aae7f9780dc881225a567c3c2ba18cd2caf2fc062"),
    "dual-json-b3": (["dual", "--type", "B3"], 0,
                     "18941f65977ee48161b7329087392655a66c190be55eee2f7201b48f8075760b"),
    "dual-csv-b3": (["dual", "--type", "B3", "--format", "csv"], 0,
                    "cb20ebf5bc661410168f04aaaa2c0eb547d39e3ad49b810cb4529d1625cf8242"),
    "dual-pullback": (["dual", "--type", "B3", "--input", "SCHEME"], 0,
                      "061a53ebcb16d04aeb783af98af2595e0dc4e65735ef676b33ac547e2e7c9c12"),
    "dual-pushforward": (["dual", "--type", "B3", "--input", "SHORT_THICK", "--pushforward"], 0,
                         "521a359b0b062ea6dff3e951c3951108be6eabc07c7583fe8f7a085fd31523de"),
    "constants-g2": (["constants", "--type", "G2"], 0,
                     "c9cb3a88947c8de493bae69eabe4262657ff165a55442c0c4d57f1196f717192"),
    "fibrations": (["fibrations", "--type", "B3", "--prime", "2", "--input", "FIBERED"], 0,
                   "b0981044f0724f9803b89c0bc6783449fd89422b93f18cd1e2d12202912fb210"),
    "fibrations-d4-branch": (["fibrations", "--type", "D4", "--prime", "3", "--input",
                              "D4_BRANCH"], 0,
                             "be23696d75375c73778284ae62dd8f792c93837aed58ce1ff8715bc7c0a2009a"),
    # 24 certificates, each incidence root running through the Levi node 2
    "fano-json-d4-levi-normalized": (["fano", "--type", "D4", "--prime", "3", "--levi", "2",
                                      "--max-height", "3", "--format", "json",
                                      "--normalized"], 0,
                                     "307740bf399caf946dd121f7509216ab1b6c6c3b352ce37735bef3aa8c86ad4f"),
    "fano-csv-f4-levi-normalized": (["fano", "--type", "F4", "--prime", "3", "--levi", "2",
                                     "--max-height", "3", "--format", "csv",
                                     "--normalized"], 0,
                                    "f0550bc52b78c4c8aabfd03648fe625cd59deec381bc47a3c59ba707b778b0d5"),
    # pairing values carry p**6 weights
    "fano-json-c3-normalized": (["fano", "--type", "C3", "--prime", "3", "--max-height", "6",
                                 "--format", "json", "--normalized"], 0,
                                "ca31f8c6d3be43c4de0ff5ca2d1fd24e9f13f9204f567ade7cecd01867c17b9a"),
    # sort_keys over 8-coefficient keys
    "census-json-e8-levi": (["census", "--type", "E8", "--prime", "3", "--levi",
                             "1,2,3,4,5,6,7", "--max-height", "4", "--format", "json"], 0,
                            "2e62ce4b9da50bd5a2d2a7ebc8a5e923950fe7dd587fbf6ccbcbe5d7a215c45e"),
    # one phi-hash per row
    "fano-csv-b3-levi-normalized": (["fano", "--type", "B3", "--prime", "2", "--levi", "2",
                                     "--max-height", "6", "--format", "csv", "--normalized"], 0,
                                    "40a6db0fd2dba62dc1851265d952de1aa60fd3e604f83dc73a24393b9133322d"),
}


def output_digest(name, tmp_path):
    """Exit code and stdout sha256 of one case; its inputs are written under tmp_path."""
    argv = CASES[name][0]
    paths = {}
    for key, data in INPUTS.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    buf = io.StringIO()
    code = run([str(paths.get(a, a)) for a in argv], out=buf)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path):
    _, code, digest = CASES[name]
    assert output_digest(name, tmp_path) == (code, digest)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            print(name, output_digest(name, pathlib.Path(tmp))[1])
