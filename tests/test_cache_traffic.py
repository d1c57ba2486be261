"""Every functools cache in the package is hit by some benchmark workload.

`tools/cache_traffic.py` runs one untraced pass of each workload under
bench/ in a fresh interpreter and exits 1 when a cache has no hit on any of
them, so a cache that nothing reuses fails here.  It only reads bench/.
"""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cache_traffic.py"


def test_every_cache_is_hit_by_some_workload():
    proc = subprocess.run([sys.executable, str(TOOL), "--seed", "11"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
