"""Exhaustive desk-scale enumeration, oracles, and Fano censuses.

Enumeration folds packed block vectors node by node over the non-Levi nodes,
keeping the distinct meets; the brute-force oracle instead tries every height
function up to the bound and keeps the reconstruction fixpoints.  Where the
guard admits, the two must agree exactly.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import ExoticBlocksPresent, InvalidScheme, SearchSpaceTooLarge
from .geometry import NotFanoCertificate, is_fano, not_fano_certificate, picard_rank
from .phi import (
    BlockKind,
    ParabolicScheme,
    RankOneBlock,
    _block_kinds,
    _census_meets,
    _check_prime,
    _containment_bitsets,
    block_phi,  # unused here; the benchmark's tracer test reads census.block_phi
    full_group_scheme,
    is_normalized,
    is_valid,
    reduced_scheme,
)
from .rootsys import RootSystem, RootSystemType, build_root_system, check_levi

BRUTE_FORCE_GUARD = 10 ** 8


@dataclass(frozen=True)
class CensusQuery:
    rtype: RootSystemType
    p: int
    levi: FrozenSet[int]
    max_height: int
    normalized_only: bool = False

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.max_height < 0:
            raise InvalidScheme("max_height must be >= 0")

    @property
    def system(self) -> RootSystem:
        return build_root_system(self.rtype)


def rank_one_catalog(rs: RootSystem, p: int, alpha: int, max_height: int) -> List[RankOneBlock]:
    """All catalog blocks at alpha whose heights stay within the bound:
    Standard(0..M), and every other kind admitted at alpha at 0..M-1 (those
    reach height m+1)."""
    check_levi(rs, [alpha])
    if max_height < 0:
        raise InvalidScheme("max_height must be >= 0")
    return [
        RankOneBlock(alpha, kind, m)
        for kind in _block_kinds(rs, p, alpha)
        for m in range(max_height + 1 if kind is BlockKind.STANDARD else max_height)
    ]


def enumerate_parabolics(q: CensusQuery) -> Tuple[ParabolicScheme, ...]:
    """All distinct intersections of catalog-block tuples over the non-Levi
    nodes, heights bounded by the query, sorted by the heights off the Levi.

    The packed kernel folds one node at a time and dedups the partial meets,
    so the work tracks the distinct prefixes rather than the whole
    block-tuple product; intersection is associative, commutative and idempotent.
    """
    rs = q.system
    levi = check_levi(rs, q.levi)
    nodes = sorted(set(range(1, rs.rank + 1)) - levi)
    catalogs = [rank_one_catalog(rs, q.p, a, q.max_height) for a in nodes]
    return _census_meets(rs, q.p, levi, catalogs, q.max_height, q.normalized_only)


def brute_force_enumerate(q: CensusQuery) -> Tuple[ParabolicScheme, ...]:
    """Independent oracle: every height function up to the bound that is a
    reconstruction fixpoint.  Refuses when the candidate count exceeds the
    guard."""
    rs = q.system
    levi = check_levi(rs, q.levi)
    if not set(range(1, rs.rank + 1)) - levi:
        return (full_group_scheme(rs, q.p),)
    domain = reduced_scheme(rs, q.p, levi).domain
    if (q.max_height + 2) ** len(domain) > BRUTE_FORCE_GUARD:
        raise SearchSpaceTooLarge(
            f"(M+2)^{len(domain)} exceeds {BRUTE_FORCE_GUARD} candidates"
        )
    out: List[ParabolicScheme] = []
    for values in itertools.product(range(q.max_height + 1), repeat=len(domain)):
        P = ParabolicScheme(rs, q.p, levi, dict(zip(domain, values)))
        if not is_valid(P):
            continue
        if q.normalized_only and not is_normalized(P):
            continue
        out.append(P)
    return tuple(sorted(out, key=lambda P: [v for _, v in P.phi_items()]))  # one Levi


# ---------------------------------------------------------------------------
# Fano census


@dataclass(frozen=True)
class FanoRow:
    scheme: ParabolicScheme
    fano: bool
    certificate: Optional[NotFanoCertificate]


def fano_census(q: CensusQuery) -> Tuple[FanoRow, ...]:
    """Fano status for every enumerated scheme; the incidence certificate is
    attached where its machinery applies (normalized, quasi-standard, Picard
    rank at least two)."""
    rows: List[FanoRow] = []
    for P in enumerate_parabolics(q):
        cert: Optional[NotFanoCertificate] = None
        if picard_rank(P) >= 2 and is_normalized(P):
            try:
                cert = not_fano_certificate(P)
            except ExoticBlocksPresent:
                cert = None
        rows.append(FanoRow(P, is_fano(P), cert))
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


@dataclass(frozen=True)
class HasseDiagram:
    schemes: Tuple[ParabolicScheme, ...]
    edges: Tuple[Tuple[int, int], ...]  # (lower index, upper index), covering


def hasse_diagram(q: CensusQuery) -> HasseDiagram:
    """Covering pairs (i, j) of the containment order, in increasing order:
    scheme j contains scheme i (strictly, as the schemes are distinct) and
    no scheme lies between, i.e. up[i] & down[j] is empty."""
    schemes = enumerate_parabolics(q)
    up, down = _containment_bitsets(schemes)
    edges = []
    for i, above in enumerate(up):
        while above:
            j = (above & -above).bit_length() - 1
            if not up[i] & down[j]:
                edges.append((i, j))
            above &= ~(up[j] | 1 << j)  # nothing above j covers i
    return HasseDiagram(schemes, tuple(edges))


# ---------------------------------------------------------------------------
# Writers (CSV / JSON-lines / DOT)


def phi_hash(P: ParabolicScheme) -> str:
    return hashlib.sha256(P.canonical_json().encode()).hexdigest()[:12]


def schemes_to_jsonl(schemes: Iterable[ParabolicScheme]) -> str:
    return "".join(P.canonical_json() + "\n" for P in schemes)


def schemes_to_csv(schemes: Iterable[ParabolicScheme]) -> str:
    lines = ["type,prime,levi,phi"]
    for P in schemes:
        levi = " ".join(str(i) for i in sorted(P.levi))
        lines.append(f"{P.rs.rtype},{P.p},{levi},{P.to_compact()}")
    return "\n".join(lines) + "\n"


def fano_to_csv(rows: Iterable[FanoRow]) -> str:
    lines = ["type,p,levi,phi-hash,fano,certificate-root,pairing-value"]
    for r in rows:
        P = r.scheme
        levi = " ".join(str(i) for i in sorted(P.levi))
        cert_root = str(r.certificate.beta_l) if r.certificate else ""
        cert_val = str(r.certificate.pairing_value) if r.certificate else ""
        lines.append(
            f"{P.rs.rtype},{P.p},{levi},{phi_hash(P)},"
            f"{str(r.fano).lower()},{cert_root},{cert_val}"
        )
    return "\n".join(lines) + "\n"


def hasse_to_dot(diagram: HasseDiagram) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, P in enumerate(diagram.schemes):
        lines.append(f'  n{i} [label="{P.to_compact()}"];')
    for lo, hi in diagram.edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
