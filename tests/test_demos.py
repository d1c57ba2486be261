"""The demos' narrative output is pinned: these digests must not move.

Each demo runs in a fresh interpreter and the sha256 of its stdout is
compared with a digest recorded before the root-system tables were cached.
The demos walk the normalisation, duality and fibration paths end to end.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parabolics

SRC = Path(parabolics.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"

DIGESTS = {
    "01_root_systems.py":
        "f316a0f96552352ddbc67cfdc11fabf09e842acd8c8969ecc8f62976708aa29a",
    "02_blocks_and_reconstruction.py":
        "a8eed6b934db56a5d031a5d23fe6f2ef0f540a6103fcb209cc6ec9984bed49f0",
    "03_fano_census.py":
        "5af3ec489c7aa660bd754bfd2f5bbe0325dae8dd493a57c8abb79f2e7c60597b",
    "04_contractions_and_fibrations.py":
        "ff810a0f83f91c49a820069cdc980df0c8f0c6dc2f7c78a0ce32e18b5205d3a4",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_digest(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
