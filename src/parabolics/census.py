"""Exhaustive desk-scale enumeration, oracles, and Fano censuses.

Enumeration folds packed catalogs node by node over the non-Levi nodes,
keeping each distinct meet with its generated blocks; the brute-force oracle
instead tries every height function up to the bound and keeps the
reconstruction fixpoints.  Where the guard admits, the two must agree exactly.
The library decodes the fold's packed keys (`_decode`); the CLI formats them.

The oracle is independent of the fold: it never calls the packed kernel or
the block catalogs, only is_valid's cover test (`_window_cover` over the window
vectors of the node's chain table `_chain`) and `is_normalized`.  The cover test
at a node reads only the candidate's heights on its window, so each call tables
it per node, from window heights to the roots hit; a candidate then costs a
dict lookup per node and an OR (about 1-3 us, against 4-7 us through
`is_valid`), and only the survivors become schemes.  Their heights are well
formed by construction (INFINITE on the Levi roots, a value in 0..M
elsewhere), so they skip the public constructor's checks; the query's prime,
bound and Levi are checked once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvalidRootSystem, InvalidScheme, SearchSpaceTooLarge
from .geometry import NotFanoCertificate, _certificate, _columns, _is_fano, _least_gap, _weights
from .phi import (
    INFINITE,
    Height,
    ParabolicScheme,
    RankOneBlock,
    _catalog,
    _catalog_size,
    _census_meets,
    _chain,
    _check_prime,
    _containment_bitsets,
    _lane_masks,
    _lane_rows,
    _levi_split,
    _row_format,
    _window_cover,
    block_phi,  # unused here; the benchmark's tracer test reads census.block_phi
    is_normalized,
)
from .rootsys import RootSystem, RootSystemType, _check_int, build_root_system, check_levi

#: the most candidates the oracle may enumerate, about 10-30 s at 1-3 us each
BRUTE_FORCE_GUARD = 10 ** 7
#: the most block tuples a census, or catalog blocks a command, may project (B6 p=2 M=4: 531441)
CENSUS_GUARD = 10 ** 6
#: the most bytes a Hasse diagram may project for its containment bitsets, twice the
#: n*ceil(n/8) of its one list for n schemes: it admits n <= 32768 (B6, p=2, M=4 has 63125)
HASSE_GUARD = 2 ** 28


@dataclass(frozen=True)
class CensusQuery:
    rtype: RootSystemType
    p: int
    levi: FrozenSet[int]
    max_height: int
    normalized_only: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.rtype, RootSystemType):
            raise InvalidRootSystem(f"census type {self.rtype!r} is not a RootSystemType")
        _check_prime(self.p)
        if _check_int(self.max_height) < 0:
            raise InvalidScheme("max_height must be >= 0")
        object.__setattr__(self, "levi", check_levi(self.system, self.levi))
        if type(self.normalized_only) is not bool:
            raise InvalidScheme(f"normalized_only must be a bool, not {self.normalized_only!r}")

    @property
    def system(self) -> RootSystem:
        return build_root_system(self.rtype)


def _check_catalogs(rs: RootSystem, p: int, alphas: Iterable[int], max_height: int) -> None:
    """Check the catalogs' bound and prime, then refuse catalogs at alphas over
    the census guard in all, at the first that crosses it, naming the count."""
    if _check_int(max_height) < 0:
        raise InvalidScheme("max_height must be >= 0")
    _check_prime(p)
    size = 0
    for a in alphas:
        size += _catalog_size(rs, p, a, max_height)
        if size > CENSUS_GUARD:
            raise SearchSpaceTooLarge(f"{size} catalog blocks exceed the limit {CENSUS_GUARD}")


def rank_one_catalog(rs: RootSystem, p: int, alpha: int, max_height: int) -> List[RankOneBlock]:
    """All catalog blocks at alpha whose top height stays within the bound, in
    catalog order: Standard(0..M), then every other kind admitted at alpha at
    0..M-1.  Refuses, before building a block, a catalog over the census guard."""
    _check_catalogs(rs, p, (alpha,), max_height)
    return _catalog(rs, p, alpha, max_height)


def enumerate_parabolics(q: CensusQuery) -> Tuple[ParabolicScheme, ...]:
    """All distinct intersections of catalog-block tuples over the non-Levi
    nodes, heights bounded by the query, sorted by the heights off the Levi.

    The packed kernel folds one node at a time and dedups the partial meets,
    so the work tracks the distinct prefixes rather than the whole
    block-tuple product; intersection is associative, commutative and idempotent.
    Refuses, before packing a catalog, when that product exceeds the guard.
    """
    keys, _, k = _census(q)
    return _decode(q, keys, k)


def _census(q: CensusQuery) -> Tuple[List[int], Tuple[Tuple[int, ...], ...], int]:
    """The query's _census_meets: its packed keys, sorted, their generated blocks' codes
    aligned (in _levi_split's order) and the lane width; refused over the census guard."""
    rs, M = q.system, q.max_height
    tuples = math.prod(_catalog_size(rs, q.p, a, M) for a, _ in _levi_split(rs, q.levi)[2])
    if tuples > CENSUS_GUARD:
        raise SearchSpaceTooLarge(f"{tuples} block tuples exceed the limit {CENSUS_GUARD}")
    return _census_meets(rs, q.p, q.levi, M, q.normalized_only)


def _decode(q: CensusQuery, keys: Iterable[int], k: int) -> Tuple[ParabolicScheme, ...]:
    """The schemes of the query's packed keys: lane.get(v, v) decodes a _lane_rows lane."""
    rs, p, levi = q.system, q.p, q.levi
    lane = {_lane_masks(rs, k)[2]: INFINITE}
    return tuple(ParabolicScheme._of(rs, p, levi, (*map(lane.get, c, c),))
                 for c in _lane_rows(rs, keys, k))


class _CoverMasks(dict):
    """One node's cover test, tabled for one oracle call: the node's window heights (a
    scalar for a one-root window) to the int mask of the domain roots its cover hits, 0
    where none covers (the node's own root, in no other window, then stays unhit).  A miss
    runs _window_cover on the chain table's window vectors plus its anchor a, listed per
    height 0..M once per call, so a miss subtracts nothing; it reads no code or index."""

    def __init__(self, rs: RootSystem, p: int, alpha: int, bits: Sequence[int], M: int):
        self.bits, vectors = bits, _chain(rs, p, alpha)[0]
        self.chains = [[tuple([v + a for v in h]) for h in vectors] for a in range(M + 1)]

    def __missing__(self, key) -> int:
        hw = key if type(key) is tuple else (key,)
        hits = _window_cover(self.chains[hw[0]], hw)[1]
        return self.setdefault(key, sum(itertools.compress(self.bits, hits)))


def brute_force_enumerate(q: CensusQuery) -> Tuple[ParabolicScheme, ...]:
    """Independent oracle: every height function up to the bound that is a
    reconstruction fixpoint, tested as a cover.  Refuses when the candidate
    count exceeds the guard."""
    rs, levi = q.system, q.levi
    _, domain, windows = _levi_split(rs, levi)
    if (q.max_height + 1) ** len(domain) > BRUTE_FORCE_GUARD:
        raise SearchSpaceTooLarge(
            f"(M+1)^{len(domain)} exceeds {BRUTE_FORCE_GUARD} candidates"
        )
    # a window lies in the domain, so a candidate's heights on it are read off
    # its values; the cover test at a node reads only those (is_valid's rule)
    at = {i: j for j, i in enumerate(domain)}
    nodes = [(_CoverMasks(rs, q.p, alpha, [1 << at[i] for i in window], q.max_height),
              itemgetter(*map(at.get, window))) for alpha, window in windows]
    full = (1 << len(domain)) - 1
    heights: List[Height] = [INFINITE] * len(rs.positive_roots)
    out: List[ParabolicScheme] = []
    # the domain is in root order, so product yields the candidates in census
    # order (by the heights off the Levi) and the result needs no sort
    for values in itertools.product(range(q.max_height + 1), repeat=len(domain)):
        mask = 0
        for masks, get in nodes:
            mask |= masks[get(values)]
        if mask == full:
            for i, v in zip(domain, values):
                heights[i] = v
            P = ParabolicScheme._of(rs, q.p, levi, tuple(heights))
            if not q.normalized_only or is_normalized(P):
                out.append(P)
    return tuple(out)


# ---------------------------------------------------------------------------
# Fano census


class FanoRow(NamedTuple):
    scheme: ParabolicScheme
    fano: bool
    certificate: Optional[NotFanoCertificate]


def fano_census(q: CensusQuery) -> Tuple[FanoRow, ...]:
    """Fano status for every enumerated scheme; the incidence certificate is
    attached where its machinery applies (normalized, quasi-standard, Picard
    rank at least two).  Rows come from the census with their chain codes; the
    columns of the nodes off the Levi and g* (0 below Picard rank two: no row is
    certified) are fixed per query.  The certificate runs first: a certified row
    is not Fano (its pairing value is negative), so it skips the Fano test."""
    rs, nodes = q.system, [a for a, _ in _levi_split(q.system, q.levi)[2]]
    g, cols = _least_gap(rs, q.p) if len(nodes) >= 2 else 0, [_columns(rs)[0][a - 1] for a in nodes]
    keys, carried, k = _census(q)
    rows: List[FanoRow] = []
    for P, codes in zip(_decode(q, keys, k), carried):
        w = _weights(P)
        gated = g and (q.normalized_only or is_normalized(P))
        cert = _certificate(P, zip(codes, nodes), w, g) if gated else None
        rows.append(FanoRow(P, cert is None and _is_fano(cols, w), cert))
    return tuple(rows)


def fano_summary(rows: Sequence[FanoRow]) -> Dict[str, int]:
    """Counts plus the maximal height over the Fano subset."""
    fano = [r for r in rows if r.fano]
    return {
        "schemes": len(rows),
        "fano": len(fano),
        "max_fano_height": max((r.scheme.max_height for r in fano), default=0),
        "certificates": sum(1 for r in rows if r.certificate is not None),
    }


# ---------------------------------------------------------------------------
# Hasse diagram of the containment order


class HasseDiagram(NamedTuple):
    schemes: Tuple[ParabolicScheme, ...]
    edges: Tuple[Tuple[int, int], ...]  # (lower index, upper index), covering


def hasse_diagram(q: CensusQuery) -> HasseDiagram:
    """Covering pairs (i, j) of the containment order, in increasing order, over the census's
    chain codes; bitsets past the guard are refused unbuilt.  Each j the scan reaches covers i:
    _census's keys ascend, first root most significant, so a scheme sorts below each that
    strictly contains it, and the scan takes the lowest bit, then clears that j's up-set; a
    scheme strictly between i and j was reached first or cleared in such an up-set, with j."""
    keys, codes, k = _census(q)
    n = len(keys)
    size = 2 * n * -(-n // 8)  # twice the n bitsets of n bits each that are built
    if size > HASSE_GUARD:
        raise SearchSpaceTooLarge(
            f"{size} bytes of Hasse bitsets for {n} schemes exceed the limit {HASSE_GUARD}"
        )
    schemes = _decode(q, keys, k)
    up = _containment_bitsets(codes)
    edges = []
    for i, above in enumerate(up):
        while above:
            j = (above & -above).bit_length() - 1
            edges.append((i, j))
            above &= ~(up[j] | 1 << j)  # nothing above j covers i
    return HasseDiagram(schemes, tuple(edges))


# ---------------------------------------------------------------------------
# Writers (CSV / JSON-lines / DOT)


def _hash(line: str) -> str:
    """The first 12 hex digits of the SHA-256 of a canonical JSON line: the phi-hash."""
    import hashlib  # only here, so importing the package does not load it
    return hashlib.sha256(line.encode()).hexdigest()[:12]


def phi_hash(P: ParabolicScheme) -> str:
    return _hash(P.canonical_json())


def schemes_to_jsonl(schemes: Iterable[ParabolicScheme]) -> str:
    return "".join(P.canonical_json() + "\n" for P in schemes)


_CSV_HEADER = "type,prime,levi,phi"


def schemes_to_csv(schemes: Iterable[ParabolicScheme]) -> str:
    rows = [_CSV_HEADER]
    for P in schemes:
        head, tail, get = _row_format(P.rs, P.levi, "csv")
        rows.append((head + str(P.p) + tail) % get(P.heights))
    return "\n".join(rows) + "\n"


def _census_lines(q: CensusQuery, form: str) -> Tuple[int, Iterable[str]]:
    """(n, lines): the query's n schemes as the lines of schemes_to_jsonl, schemes_to_csv or
    to_text, formatted lazily from _lane_rows by the same row format: no scheme is built."""
    keys, _, k = _census(q)
    head, tail, get = _row_format(q.system, q.levi, form)
    rows = map((head + str(q.p) + tail + "\n").__mod__, map(get, _lane_rows(q.system, keys, k)))
    return len(keys), itertools.chain([_CSV_HEADER + "\n"] if form == "csv" else [], rows)


def fano_to_csv(rows: Iterable[FanoRow]) -> str:
    """One line per row: the CSV columns before phi, then the phi-hash; the row formats are
    read once per run on one (system, Levi, prime)."""
    lines = ["type,p,levi,phi-hash,fano,certificate-root,pairing-value"]
    for (rs, levi, p), run in itertools.groupby(rows, lambda r: (r[0].rs, r[0].levi, r[0].p)):
        head, tail, _ = _row_format(rs, levi, "csv")
        columns = (head + str(p) + tail).rpartition(",")[0]  # phi is the last column
        head, tail, get = _row_format(rs, levi, "json")
        template = head + str(p) + tail
        for P, fano, cert in run:
            digest = _hash(template % get(P.heights))
            lines.append(f"{columns},{digest},{'true' if fano else 'false'},"
                         f"{cert.beta_l if cert else ''},{cert.pairing_value if cert else ''}")
    return "\n".join(lines) + "\n"


def hasse_to_dot(diagram: HasseDiagram) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += (f'  n{i} [label="{P.to_compact()}"];' for i, P in enumerate(diagram.schemes))
    lines += (f"  n{lo} -> n{hi};" for lo, hi in diagram.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
