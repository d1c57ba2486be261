"""Deep sweep: the census equals the brute-force oracle, and carries the
generated blocks, on a grid beyond Tier-1.

    python3 tools/deep_sweep.py

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its `src/`.  A cell is one (type, prime, Levi
subset, mode) query: B4, C4 and D4 at height bound 1, B3 and C3 at 3 and G2
at 6, for the primes 2 and 3, every Levi subset (the Borel and the whole
group included) and both modes (all schemes, normalized only).  Each cell
checks that the census (`_census(q)`, whose schemes `enumerate_parabolics`
returns) equals `brute_force_enumerate(q)`, and that every row's carried
chain codes, decoded at the nodes off the Levi, are the row's
`_generated_blocks`; a cell that differs is named on stderr.  The script
prints the cells, the oracle's candidates, the rows whose codes it checked
and the seconds, and exits 1 on a mismatch.  The 272 cells take
about 10 s on a 2-vCPU host.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parabolics import CensusQuery, RootSystemType, brute_force_enumerate
from parabolics.census import _census
from parabolics.phi import _block_of, _generated_blocks, _levi_split

#: (type, height bound) of each system swept
GRID = (("B4", 1), ("C4", 1), ("D4", 1), ("B3", 3), ("C3", 3), ("G2", 6))
PRIMES = (2, 3)


def main() -> int:
    cells = candidates = rows = mismatches = 0
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
                        _, domain, windows = _levi_split(q.system, q.levi)
                        candidates += (M + 1) ** len(domain)
                        schemes, carried = _census(q)
                        off = [a for a, _ in windows]  # the nodes off the Levi
                        rows += len(schemes)
                        carried_ok = all(
                            tuple(map(_block_of, off, codes))
                            == tuple(_generated_blocks(P).values())
                            for P, codes in zip(schemes, carried))
                        if not carried_ok or schemes != brute_force_enumerate(q):
                            mismatches += 1
                            print(f"mismatch: {label} p={p} levi={list(levi)} M={M} "
                                  f"normalized={normalized}", file=sys.stderr)
    seconds = time.perf_counter() - start
    print(f"{cells} cells, {candidates} candidates, {rows} rows' codes, {seconds:.1f} s, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
