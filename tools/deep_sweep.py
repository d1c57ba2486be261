"""Deep sweep: the census equals the brute-force oracle, carries the
generated blocks, is fixed by reconstruction, orders its rows by chain code,
formats its rows from the packed lanes as from its schemes, and certifies
its Fano rows, on a grid beyond Tier-1.

    python3 tools/deep_sweep.py

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its `src/`.  A cell is one (type, prime, Levi
subset, mode) query: B4, C4 and D4 at height bound 1, B3 and C3 at 3 and G2
at 6, for the primes 2 and 3, every Levi subset (the Borel and the whole
group included) and both modes (all schemes, normalized only).  Each cell
checks that the census (`_census(q)`, whose keys `_decode` turns into the
schemes `enumerate_parabolics` returns) equals `brute_force_enumerate(q)`,
that the CLI's json, csv and text lines, formatted from the packed lanes
(`_census_lines`), equal the public writers over those schemes
(`schemes_to_jsonl`, `schemes_to_csv`, `to_text`), that every row's carried
chain codes are the row's `_generated_blocks`, and that every row P is valid
and its own reconstruction (`is_valid(P)`, `reconstruct(P) == P`), so the
single-scheme cover and the meet run on every row.  On each cell of at most
PAIR_LIMIT schemes (every cell here: the largest has 146) it also checks the
Hasse up-sets, built from the carried codes (`_containment_bitsets`), against
`contains` on every ordered pair of distinct schemes, and the edges of
`hasse_diagram` against the covers of that pairwise relation, computed from
the `contains` answers alone.  On each normalized cell it also runs
`fano_census` and checks every row's Fano flag against `is_fano` and its
certificate against `not_fano_certificate`, recomputed from the scheme alone;
it expects None where the Picard rank is below 2 or that raises
`ExoticBlocksPresent`.  On each cell whose diagram has an edge of
multiplicity p (`edge_hypothesis`: B and C at p = 2, G2 at p = 3) it also
checks that every row survives the very special isogeny's round trip,
`vsi_pushforward(vsi_pullback(P)) == P`.

Past the oracle's guard, five Borel censuses of 538-3321 schemes (LARGE)
check the code order alone: the up-sets against `contains` on SAMPLE
ordered pairs of distinct schemes per cell, drawn with the fixed seed SEED.
A cell that differs is named on stderr.  The script prints the cells, the
oracle's candidates, the rows whose codes, reconstruction and three
lane-formatted lines it checked, the pairs whose order it checked, the Hasse
edges it checked, the Fano rows it checked, the rows whose isogeny round trip
it checked, the large cells and their sampled pairs, and the seconds, and
exits 1 on a mismatch.  The whole sweep takes 8-17 s on a 2-vCPU host.
"""

from __future__ import annotations

import random
import sys
import time
from itertools import combinations
from pathlib import Path
from typing import Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parabolics import (
    CensusQuery,
    RootSystemType,
    brute_force_enumerate,
    contains,
    edge_hypothesis,
    fano_census,
    hasse_diagram,
    is_fano,
    is_valid,
    not_fano_certificate,
    reconstruct,
    schemes_to_csv,
    schemes_to_jsonl,
    vsi_pullback,
    vsi_pushforward,
)
from parabolics.census import _census, _census_lines, _decode
from parabolics.errors import ExoticBlocksPresent
from parabolics.geometry import picard_rank
from parabolics.phi import _containment_bitsets, _generated_blocks, _levi_split

#: (type, height bound) of each system swept
GRID = (("B4", 1), ("C4", 1), ("D4", 1), ("B3", 3), ("C3", 3), ("G2", 6))
PRIMES = (2, 3)
#: the most schemes of a cell whose ordered pairs are all checked against `contains`
PAIR_LIMIT = 400
#: (type, prime, height bound) of the Borel censuses past BRUTE_FORCE_GUARD whose code
#: order is checked on a sample: 1825, 538, 1024, 718 and 3321 schemes
LARGE = (("B4", 2, 4), ("C5", 2, 2), ("D5", 2, 3), ("F4", 2, 3), ("G2", 2, 40))
#: ordered pairs sampled per large cell, and the seed they are drawn with
SAMPLE, SEED = 20000, 29


def order_mismatches(schemes, codes, pairs) -> int:
    """The ordered pairs (i, j) of distinct schemes on which the code-order
    up-sets and `contains(schemes[j], schemes[i])` disagree."""
    up = _containment_bitsets(codes)
    return sum((up[i] >> j & 1) != contains(schemes[j], schemes[i]) for i, j in pairs)


def pairwise_mismatches(q, schemes, codes) -> Tuple[int, int]:
    """(edges, mismatches) over every ordered pair of distinct schemes: the pairs on
    which the code-order up-sets and `contains` disagree, plus 1 if the edges of
    `hasse_diagram(q)` are not the covers of the `contains` relation."""
    n, up = len(schemes), _containment_bitsets(codes)
    above = [sum(1 << j for j, P in enumerate(schemes) if j != i and contains(P, Q))
             for i, Q in enumerate(schemes)]
    below = [sum(1 << i for i in range(n) if above[i] >> j & 1) for j in range(n)]
    covers = tuple((i, j) for i in range(n) for j in range(n)
                   if above[i] >> j & 1 and not above[i] & below[j])
    edges = hasse_diagram(q).edges
    bad = sum(bin(u ^ a).count("1") for u, a in zip(up, above))
    return len(edges), bad + (edges != covers)


def lane_mismatches(q, schemes) -> int:
    """The forms (json, csv, text) whose lane-formatted lines differ from the public
    writers' output over the decoded schemes."""
    written = {"json": schemes_to_jsonl(schemes), "csv": schemes_to_csv(schemes),
               "text": "".join(P.to_text() + "\n" for P in schemes)}
    return sum("".join(_census_lines(q, form)[1]) != text for form, text in written.items())


def expected_certificate(P):
    """not_fano_certificate(P) for a normalized P, None where it does not apply."""
    if picard_rank(P) < 2:
        return None
    try:
        return not_fano_certificate(P)
    except ExoticBlocksPresent:
        return None


def fano_mismatches(q) -> Tuple[int, int]:
    """(rows, rows whose Fano flag or certificate differs from the recomputed one)."""
    rows = fano_census(q)
    bad = sum(r.fano != is_fano(r.scheme) or r.certificate != expected_certificate(r.scheme)
              for r in rows)
    return len(rows), bad


def main() -> int:
    cells = candidates = rows = pairs = edges = fano_rows = trips = mismatches = 0
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
                        domain = _levi_split(q.system, q.levi)[1]
                        candidates += (M + 1) ** len(domain)
                        keys, carried, k = _census(q)
                        schemes = _decode(q, keys, k)
                        rows += len(schemes)
                        lanes_bad = lane_mismatches(q, schemes)
                        carried_ok = all(codes == tuple(_generated_blocks(P).values())
                                         and is_valid(P) and reconstruct(P) == P
                                         for P, codes in zip(schemes, carried))
                        order_bad = 0
                        if len(schemes) <= PAIR_LIMIT:
                            checked, order_bad = pairwise_mismatches(q, schemes, carried)
                            pairs += len(schemes) * (len(schemes) - 1)
                            edges += checked
                        fano_bad = 0
                        if normalized:
                            checked, fano_bad = fano_mismatches(q)
                            fano_rows += checked
                        trip_ok = True
                        if edge_hypothesis(q.system, p):
                            trip_ok = all(vsi_pushforward(vsi_pullback(P)) == P for P in schemes)
                            trips += len(schemes)
                        if (not carried_ok or lanes_bad or order_bad or fano_bad or not trip_ok
                                or schemes != brute_force_enumerate(q)):
                            mismatches += 1
                            print(f"mismatch: {label} p={p} levi={list(levi)} M={M} "
                                  f"normalized={normalized}", file=sys.stderr)
    rng, sampled = random.Random(SEED), 0
    for label, p, M in LARGE:
        q = CensusQuery(RootSystemType.parse(label), p, frozenset(), M)
        keys, carried, k = _census(q)
        schemes = _decode(q, keys, k)
        sample = [rng.sample(range(len(schemes)), 2) for _ in range(SAMPLE)]
        sampled += len(sample)
        if order_mismatches(schemes, carried, sample):
            mismatches += 1
            print(f"order mismatch: {label} p={p} M={M}", file=sys.stderr)
    seconds = time.perf_counter() - start
    print(f"{cells} cells, {candidates} candidates, {rows} rows' codes, reconstructions "
          f"and json, csv and text lines, {pairs} ordered pairs, {edges} Hasse edges, "
          f"{fano_rows} Fano rows, {trips} isogeny round trips, {len(LARGE)} large cells' "
          f"{sampled} sampled pairs, {seconds:.1f} s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
