"""Deep sweep: the census equals the brute-force oracle on a grid beyond Tier-1.

    python3 tools/deep_sweep.py

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its `src/`.  A cell is one (type, prime, Levi
subset, mode) query: B4, C4 and D4 at height bound 1, B3 and C3 at 3 and G2
at 6, for the primes 2 and 3, every Levi subset (the Borel and the whole
group included) and both modes (all schemes, normalized only).  Each cell
checks `enumerate_parabolics(q) == brute_force_enumerate(q)`, and a cell
that differs is named on stderr.  The script prints the cells, the oracle's
candidates and the seconds, and exits 1 on a mismatch.  The 272 cells take
about 10 s on a 2-vCPU host.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parabolics import CensusQuery, RootSystemType, brute_force_enumerate, enumerate_parabolics
from parabolics.phi import _levi_split

#: (type, height bound) of each system swept
GRID = (("B4", 1), ("C4", 1), ("D4", 1), ("B3", 3), ("C3", 3), ("G2", 6))
PRIMES = (2, 3)


def main() -> int:
    cells = candidates = mismatches = 0
    start = time.perf_counter()
    for label, M in GRID:
        rtype = RootSystemType.parse(label)
        nodes = range(1, rtype.rank + 1)
        for p in PRIMES:
            for k in range(rtype.rank + 1):
                for levi in combinations(nodes, k):
                    for normalized in (False, True):
                        q = CensusQuery(rtype, p, frozenset(levi), M, normalized)
                        cells += 1
                        candidates += (M + 1) ** len(_levi_split(q.system, q.levi)[1])
                        if enumerate_parabolics(q) != brute_force_enumerate(q):
                            mismatches += 1
                            print(f"mismatch: {label} p={p} levi={list(levi)} M={M} "
                                  f"normalized={normalized}", file=sys.stderr)
    seconds = time.perf_counter() - start
    print(f"{cells} cells, {candidates} candidates, {seconds:.1f} s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
