"""The parabolic-scheme calculus.

A parabolic subgroup scheme containing the fixed Borel is encoded by its Levi
subset I and the height function phi on the positive roots off the Levi.  A
ParabolicScheme stores phi as one immutable vector, `heights`, indexed like
`rs.positive_roots` (root gamma sits at position `rs.index[gamma]`) and
holding the sentinel INFINITE exactly on the Levi roots.  Containment of
schemes is pointwise comparison of the vectors, intersection is pointwise
minimum; other modules go through this module's operations and never read
the layout themselves.  The private census kernel repacks block vectors for
one call into ints of k-byte lanes: first root most significant, each lane's
top bit a zero guard bit, INFINITE all its other bits, k set by the height bound.

Every scheme is an intersection of rank-one blocks, one anchored at each
simple root off the Levi.  The block catalog at a simple root alpha:

* Standard(m): height m on every alpha-supported root (Frobenius-fattened
  maximal reduced parabolic);
* VerySpecial(m): m+1 on short, m on long alpha-supported roots; exists only
  when the diagram has an edge of multiplicity p;
* ExoticH(m), ExoticL(m): the two G2, p=2 families at the short simple root,

      ExoticH(m): 2a1+a2 -> m+1, other a1-supported roots -> m
      ExoticL(m): a1, a1+a2 -> m+1, 2a1+a2, 3a1+a2, 3a1+2a2 -> m

`_block_kinds` is the one statement of which kinds exist at which node; the
block check, the census catalog and the anchored candidate chains are
derived from it and from the block height vectors.

Reconstruction recovers the minimal anchored block at each node and
re-intersects; a height function is valid exactly when this is the identity.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    EdgeHypothesisNotSatisfied,
    InvalidScheme,
    KernelNotContained,
    MismatchedSchemes,
    ParabolicsError,
)
from .rootsys import (
    Root,
    RootSystem,
    RootSystemType,
    build_root_system,
    check_levi,
    levi_positive_roots,
    very_special_dual,
)


class _InfiniteHeight:
    """Sentinel for the height on Levi roots; absorbing for min."""

    _instance: Optional["_InfiniteHeight"] = None

    def __new__(cls) -> "_InfiniteHeight":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteHeight()

Height = Union[int, _InfiniteHeight]


def height_min(a: Height, b: Height) -> Height:
    if a is INFINITE:
        return b
    if b is INFINITE:
        return a
    return a if a <= b else b


def height_ge(a: Height, b: Height) -> bool:
    if a is INFINITE:
        return True
    if b is INFINITE:
        return False
    return a >= b


#: characteristics must lie below this bound, where the Miller-Rabin test
#: with the bases below is exact
PRIME_LIMIT = 2 ** 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: object) -> None:
    """Reject a characteristic that is not a prime int below PRIME_LIMIT;
    shared by schemes, blocks and census queries."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidScheme(f"characteristic {p!r} is not prime")
    if p >= PRIME_LIMIT:
        raise InvalidScheme(f"characteristic {p} is not below the limit 2**64")
    if not _is_prime(p):
        raise InvalidScheme(f"characteristic {p!r} is not prime")


@lru_cache(maxsize=None)
def _off_levi(rs: RootSystem, levi: FrozenSet[int]) -> Tuple[Root, ...]:
    inside = levi_positive_roots(rs, levi)
    return tuple(g for g in rs.positive_roots if g not in inside)


def edge_hypothesis(rs: RootSystem, p: int) -> bool:
    """The Dynkin diagram has an edge of multiplicity p (B/C/F4 at p=2,
    G2 at p=3)."""
    return not rs.is_simply_laced and rs.max_edge_multiplicity == p


class ParabolicScheme:
    """(root system, prime, Levi subset, heights off the Levi).

    `heights` is one immutable tuple indexed like `rs.positive_roots` (the
    position of a root is `rs.index[root]`), holding INFINITE exactly on the
    Levi roots.
    """

    __slots__ = ("rs", "p", "levi", "heights")

    def __init__(
        self,
        rs: RootSystem,
        p: int,
        levi: Iterable[int],
        phi: Mapping[Root, int],
    ):
        _check_prime(p)
        self.rs = rs
        self.p = p
        self.levi = check_levi(rs, levi)
        domain = _off_levi(rs, self.levi)
        heights: List[Height] = [INFINITE] * len(rs.positive_roots)
        for g in domain:
            if g not in phi:
                raise InvalidScheme(f"phi missing value at {g}")
            v = phi[g]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidScheme(f"phi({g}) = {v!r} is not a non-negative integer")
            heights[rs.index[g]] = v
        if len(phi) != len(domain):
            extra = set(phi) - set(domain)
            raise InvalidScheme(f"phi defined off its domain at {sorted(extra, key=str)}")
        self.heights: Tuple[Height, ...] = tuple(heights)

    @classmethod
    def _of(
        cls, rs: RootSystem, p: int, levi: FrozenSet[int], heights: Tuple[Height, ...]
    ) -> "ParabolicScheme":
        """Trusted constructor for vectors well formed by construction."""
        P = object.__new__(cls)
        P.rs, P.p, P.levi, P.heights = rs, p, levi, heights
        return P

    @property
    def domain(self) -> Tuple[Root, ...]:
        return tuple(g for g, _ in self.phi_items())

    def height(self, gamma: Root) -> Height:
        """Height of the scheme on a positive root; INFINITE on Levi roots."""
        i = self.rs.index.get(gamma)
        if i is None:
            raise InvalidScheme(f"{gamma} is not a positive root of {self.rs.rtype}")
        return self.heights[i]

    def finite_height(self, gamma: Root) -> int:
        v = self.height(gamma)
        if v is INFINITE:
            raise InvalidScheme(f"{gamma} is a Levi root of {sorted(self.levi)}")
        return v

    def phi_items(self) -> Tuple[Tuple[Root, int], ...]:
        return tuple(
            (g, v) for g, v in zip(self.rs.positive_roots, self.heights) if v is not INFINITE
        )

    @property
    def max_height(self) -> int:
        return max((v for v in self.heights if v is not INFINITE), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParabolicScheme) and (
            (self.rs, self.p, self.heights) == (other.rs, other.p, other.heights)
        )

    def __hash__(self) -> int:
        return hash((self.rs, self.p, self.heights))

    def __repr__(self) -> str:
        inner = ", ".join(f"{g}:{v}" for g, v in self.phi_items())
        return (
            f"ParabolicScheme({self.rs.rtype}, p={self.p}, "
            f"levi={sorted(self.levi)}, phi={{{inner}}})"
        )

    # -- serialisation -------------------------------------------------------

    def to_json_dict(self) -> Dict:
        return {
            "type": str(self.rs.rtype),
            "prime": self.p,
            "levi": sorted(self.levi),
            "phi": {
                k: v for k, v in zip(_json_keys(self.rs), self.heights) if v is not INFINITE
            },
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        """A header line, then a `  phi(<root>) = <height>` line per root off the Levi."""
        head = f"type {self.rs.rtype}  prime {self.p}  levi {sorted(self.levi) or '[]'}"
        return head + "".join(
            k + str(v) for k, v in zip(_text_prefixes(self.rs), self.heights) if v is not INFINITE
        )

    def to_compact(self) -> str:
        """The heights off the Levi in root order, joined by ';' (the CSV and DOT field)."""
        finite = tuple([v for v in self.heights if v is not INFINITE])
        return ("%d;" * len(finite))[:-1] % finite

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ParabolicScheme":
        """Parse without coercion: prime, Levi indices, root coefficients and
        heights must all be JSON integers."""
        try:
            rtype = RootSystemType.parse(data["type"])
            levi = [_json_int(i) for i in data["levi"]]
            phi = {
                Root.from_coeffs(_json_int(c) for c in json.loads(k)): v
                for k, v in data["phi"].items()
            }
            p = data["prime"]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidScheme(f"malformed scheme data: {exc}") from exc
        return cls(build_root_system(rtype), p, levi, phi)


@lru_cache(maxsize=None)
def _json_keys(rs: RootSystem) -> Tuple[str, ...]:
    """JSON key of each positive root ("[1,0,2]"), indexed like the heights."""
    return tuple(json.dumps(list(g.coeffs), separators=(",", ":")) for g in rs.positive_roots)


@lru_cache(maxsize=None)
def _text_prefixes(rs: RootSystem) -> Tuple[str, ...]:
    """Text row prefix ("\\n  phi(a1+a2) = ") of each positive root, indexed like heights."""
    return tuple(f"\n  phi({g}) = " for g in rs.positive_roots)


def _json_int(v: object) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidScheme(f"{v!r} is not an integer")
    return v


def reduced_scheme(rs: RootSystem, p: int, levi: Iterable[int] = ()) -> ParabolicScheme:
    """The reduced parabolic P_I (phi identically zero off the Levi)."""
    I = check_levi(rs, levi)
    return ParabolicScheme(rs, p, I, {g: 0 for g in _off_levi(rs, I)})


def full_group_scheme(rs: RootSystem, p: int) -> ParabolicScheme:
    """The degenerate scheme P = G (Levi is everything, empty phi domain)."""
    return ParabolicScheme(rs, p, frozenset(range(1, rs.rank + 1)), {})


# ---------------------------------------------------------------------------
# Rank-one blocks


class BlockKind(enum.Enum):
    """Block kinds in catalog order; the value is the display name."""

    STANDARD = "Standard"
    VERY_SPECIAL = "VerySpecial"
    EXOTIC_H = "ExoticH"
    EXOTIC_L = "ExoticL"


@dataclass(frozen=True)
class RankOneBlock:
    """A catalog block anchored at a simple root."""

    alpha: int
    kind: BlockKind
    m: int

    def __str__(self) -> str:
        return f"{self.kind.value}({self.m})@a{self.alpha}"


def standard_block(alpha: int, m: int) -> RankOneBlock:
    return RankOneBlock(alpha, BlockKind.STANDARD, m)


def very_special_block(alpha: int, m: int) -> RankOneBlock:
    return RankOneBlock(alpha, BlockKind.VERY_SPECIAL, m)


def exotic_h_block(m: int) -> RankOneBlock:
    return RankOneBlock(1, BlockKind.EXOTIC_H, m)


def exotic_l_block(m: int) -> RankOneBlock:
    return RankOneBlock(1, BlockKind.EXOTIC_L, m)


_G2 = RootSystemType.parse("G2")

# the a1-supported positive roots of G2 where the exotic blocks reach m+1
_G2_A1 = Root.of(1, 0)
_G2_A1A2 = Root.of(1, 1)
_G2_2A1A2 = Root.of(2, 1)


@lru_cache(maxsize=None)
def _block_kinds(rs: RootSystem, p: int, alpha: int) -> Tuple[BlockKind, ...]:
    """The block kinds admitted at the simple root alpha, in catalog order:
    Standard everywhere, VerySpecial under an edge of multiplicity p, and
    the two exotic kinds in G2, characteristic 2, at the short simple root.
    Raises InvalidScheme for an alpha outside 1..rank."""
    if not 1 <= alpha <= rs.rank:
        raise InvalidScheme(f"anchor a{alpha} outside 1..{rs.rank}")
    kinds = [BlockKind.STANDARD]
    if edge_hypothesis(rs, p):
        kinds.append(BlockKind.VERY_SPECIAL)
    if rs.rtype == _G2 and p == 2 and alpha == 1:
        kinds += [BlockKind.EXOTIC_H, BlockKind.EXOTIC_L]
    return tuple(kinds)


def _check_block(rs: RootSystem, p: int, block: RankOneBlock) -> None:
    _check_prime(p)
    if block.m < 0:
        raise InvalidScheme(f"negative block height {block.m}")
    if block.kind in _block_kinds(rs, p, block.alpha):
        return
    if block.kind is BlockKind.VERY_SPECIAL:
        raise EdgeHypothesisNotSatisfied(
            f"VerySpecial block needs an edge of multiplicity {p} in {rs.rtype}"
        )
    raise InvalidScheme(
        "exotic blocks exist only in G2, characteristic 2, at the short simple root"
    )


@lru_cache(maxsize=None)
def _block_vector(
    rs: RootSystem, block: RankOneBlock
) -> Tuple[FrozenSet[int], Tuple[Height, ...]]:
    """Levi and height vector of a block; they do not depend on p."""
    a, m = block.alpha - 1, block.m
    heights: List[Height] = []
    for g, short in zip(rs.positive_roots, rs.short):
        if not g.coeffs[a]:
            heights.append(INFINITE)
        elif block.kind is BlockKind.STANDARD:
            heights.append(m)
        elif block.kind is BlockKind.VERY_SPECIAL:
            heights.append(m + 1 if short else m)
        elif block.kind is BlockKind.EXOTIC_H:
            heights.append(m + 1 if g == _G2_2A1A2 else m)
        else:
            heights.append(m + 1 if g in (_G2_A1, _G2_A1A2) else m)
    return frozenset(range(1, rs.rank + 1)) - {block.alpha}, tuple(heights)


def block_phi(rs: RootSystem, p: int, block: RankOneBlock) -> ParabolicScheme:
    """Height function of one catalog block (Levi is everything but the anchor)."""
    _check_block(rs, p, block)
    return ParabolicScheme._of(rs, p, *_block_vector(rs, block))


def block_anchor_height(rs: RootSystem, block: RankOneBlock) -> int:
    """Height of the block on its own anchor root."""
    return _block_vector(rs, block)[1][rs.index[rs.simple_roots[block.alpha - 1]]]


# ---------------------------------------------------------------------------
# Lattice operations


def _check_compatible(P: ParabolicScheme, Q: ParabolicScheme) -> None:
    if P.rs != Q.rs or P.p != Q.p:
        raise MismatchedSchemes(
            f"({P.rs.rtype}, p={P.p}) vs ({Q.rs.rtype}, p={Q.p})"
        )


def intersect(P: ParabolicScheme, Q: ParabolicScheme) -> ParabolicScheme:
    """Pointwise minimum of heights; the scheme-theoretic intersection."""
    _check_compatible(P, Q)
    return ParabolicScheme._of(
        P.rs, P.p, P.levi & Q.levi, tuple(map(height_min, P.heights, Q.heights))
    )


def intersect_all(rs: RootSystem, p: int, schemes: Iterable[ParabolicScheme]) -> ParabolicScheme:
    return reduce(intersect, schemes, full_group_scheme(rs, p))


def contains(P: ParabolicScheme, Q: ParabolicScheme) -> bool:
    """Whether P contains Q: heights of P dominate pointwise (Levi roots at
    infinity)."""
    _check_compatible(P, Q)
    return P.levi >= Q.levi and all(map(height_ge, P.heights, Q.heights))


def _containment_bitsets(schemes: Sequence[ParabolicScheme]) -> Tuple[List[int], List[int]]:
    """Strict containment among distinct schemes as int bitsets: bit j of
    up[i], and bit i of down[j], say that schemes[j] contains schemes[i].

    Per root the schemes are grouped by height into bitsets, and up[i]
    (down[i]) keeps those at least (at most) as high as schemes[i]: O(n * N)
    big-int ANDs.  A Levi simple root has height INFINITE, so dominance at
    the simple roots gives Levi containment with no separate test."""
    for Q in schemes[1:]:
        _check_compatible(schemes[0], Q)
    up = down = [(1 << len(schemes)) - 1] * len(schemes)
    for column in zip(*(P.heights for P in schemes)):
        at: Dict[Height, int] = {}
        for j, v in enumerate(column):
            at[v] = at.get(v, 0) | 1 << j
        ge = {v: reduce(or_, (s for w, s in at.items() if height_ge(w, v))) for v in at}
        le = {v: reduce(or_, (s for w, s in at.items() if height_ge(v, w))) for v in at}
        up = list(map(and_, up, map(ge.__getitem__, column)))
        down = list(map(and_, down, map(le.__getitem__, column)))
    return [u ^ 1 << i for i, u in enumerate(up)], [d ^ 1 << i for i, d in enumerate(down)]


@lru_cache(maxsize=None)
def _lane_masks(rs: RootSystem, k: int) -> Tuple[int, int]:
    """Guard bits of every k-byte lane, and of the short-root lanes."""
    lane = b"\x80".ljust(k, b"\0")
    short = b"".join(lane if s else bytes(k) for s in rs.short)
    return int.from_bytes(lane * len(rs.short), "big"), int.from_bytes(short, "big")


@lru_cache(maxsize=None)
def _packed_block(rs: RootSystem, p: int, block: RankOneBlock, k: int) -> int:
    _check_block(rs, p, block)
    inf = (1 << 8 * k - 1) - 1
    lanes = ((inf if v is INFINITE else v).to_bytes(k, "big") for v in _block_vector(rs, block)[1])
    return int.from_bytes(b"".join(lanes), "big")


def _census_meets(
    rs: RootSystem, p: int, levi: FrozenSet[int], catalogs: Sequence[Sequence[RankOneBlock]],
    max_height: int, normalized_only: bool,
) -> Tuple[ParabolicScheme, ...]:
    """Distinct meets of one block from each catalog, sorted by heights.  The
    catalogs cover the nodes off `levi` with blocks no higher than max_height."""
    k = ((max_height + 1).bit_length() + 8) // 8
    H, short = _lane_masks(rs, k)
    g, low = 8 * k - 1, H >> 8 * k - 1
    found, inf = {H - low}, (1 << g) - 1  # the full group; the INFINITE lane
    for packed in ([_packed_block(rs, p, b, k) for b in blocks] for blocks in catalogs):
        # lane-wise min: the guard bit of (a | H) - b survives where a >= b
        found = {a ^ (a ^ b) & (((a | H) - b & H) >> g) * inf for a in found for b in packed}
    if normalized_only and catalogs:  # no catalogs: the full group, normalized
        # a zero lane; a short one under the edge (the top short root is never Levi)
        sel = short if edge_hypothesis(rs, p) else H
        found = {x for x in found if (x | H) - low & sel != sel}
    n, codes = len(rs.short) * k, {inf: INFINITE}  # codes.get(v, v) decodes a lane
    rows = (x.to_bytes(n, "big") for x in sorted(found))
    if k > 1:
        rows = ([int.from_bytes(b[i:i + k], "big") for i in range(0, n, k)] for b in rows)
    return tuple(ParabolicScheme._of(rs, p, levi, tuple(map(codes.get, c, c))) for c in rows)


# ---------------------------------------------------------------------------
# Generated blocks and reconstruction


@lru_cache(maxsize=None)
def anchored_candidates(
    rs: RootSystem, p: int, alpha: int, anchor: int
) -> Tuple[RankOneBlock, ...]:
    """Catalog blocks at alpha whose height on alpha equals `anchor`, in
    increasing containment order.  They form a chain because Standard(m) is
    contained in X(m), and X(m) in Standard(m+1), for every other kind X."""
    blocks = (
        RankOneBlock(alpha, k, anchor - block_anchor_height(rs, RankOneBlock(alpha, k, 0)))
        for k in _block_kinds(rs, p, alpha)
    )
    return tuple(sorted(
        (b for b in blocks if b.m >= 0),
        key=lambda b: (b.m, b.kind is not BlockKind.STANDARD),
    ))


def generated_block(P: ParabolicScheme, alpha: int) -> RankOneBlock:
    """The block of the smallest subgroup containing P and the maximal reduced
    parabolic at alpha.

    The anchor height is pinned to phi(alpha); among blocks with that anchor
    (always a chain, so the minimum is unambiguous) the smallest one
    containing P is returned.  For an invalid height function no anchored
    block may contain P; the largest anchored candidate is then returned,
    and re-intersection will expose the mismatch.
    """
    if alpha in P.levi or not 1 <= alpha <= P.rs.rank:
        raise InvalidScheme(f"a{alpha} is not outside the Levi {sorted(P.levi)}")
    anchor = P.finite_height(P.rs.simple_roots[alpha - 1])
    cands = anchored_candidates(P.rs, P.p, alpha, anchor)
    for b in cands:
        if all(map(height_ge, _block_vector(P.rs, b)[1], P.heights)):
            return b
    return cands[-1]


def reconstruct(P: ParabolicScheme) -> ParabolicScheme:
    """Intersection of the generated blocks over the simple roots off the
    Levi; equals P exactly when P is a genuine parabolic scheme."""
    vectors = [
        _block_vector(P.rs, generated_block(P, a))[1]
        for a in range(1, P.rs.rank + 1)
        if a not in P.levi
    ]
    if not vectors:
        return P
    heights = reduce(lambda h, v: tuple(map(height_min, h, v)), vectors)
    return ParabolicScheme._of(P.rs, P.p, P.levi, heights)


def is_valid(P: ParabolicScheme) -> bool:
    """Validity as the reconstruction fixpoint."""
    try:
        return reconstruct(P) == P
    except ParabolicsError:
        return False


# ---------------------------------------------------------------------------
# Commutator inequality check


@lru_cache(maxsize=None)
def _enne_triples(rs: RootSystem) -> Tuple[Tuple[int, int, int], ...]:
    """Index triples (gamma, delta, gamma+delta) of the pairs enne_check
    tests, sorted by the coefficients of gamma, then of delta."""
    pos, index = rs.positive_roots, rs.index
    triples = []
    for a in range(len(pos)):
        for b in range(a + 1, len(pos)):
            gamma, delta = pos[a], pos[b]
            c = index.get(gamma + delta)
            if c is None or rs.is_root(gamma - delta):
                continue
            triples.append((a, b, c))
    triples.sort(key=lambda t: (pos[t[0]].coeffs, pos[t[1]].coeffs))
    return tuple(triples)


def enne_check(P: ParabolicScheme) -> List[Tuple[Root, Root, Root]]:
    """Violations of phi(gamma+delta) >= min(phi(gamma), phi(delta)) over
    pairs of positive roots with gamma+delta a positive root and gamma-delta
    not a root.

    Necessary for genuine schemes, strictly weaker than is_valid.  When
    gamma - delta is not a root the down-chain is empty, so the structure
    constant is +-1 and nonzero in every characteristic; the pairs do not
    depend on p.  The condition is symmetric in the pair, so each violating
    pair is reported once, components in lexicographic order.
    """
    pos, h = P.rs.positive_roots, P.heights
    return [
        (pos[a], pos[b], pos[c])
        for a, b, c in _enne_triples(P.rs)
        if not height_ge(h[c], height_min(h[a], h[b]))
    ]


# ---------------------------------------------------------------------------
# Isogeny transport


class KernelKind(enum.Enum):
    FROBENIUS = "frobenius"
    VERY_SPECIAL_KERNEL = "very_special_kernel"


@dataclass(frozen=True)
class KernelRecord:
    """A kernel stripped during normalisation: the m-th Frobenius kernel, or
    the kernel of (very special isogeny) composed with the m-th Frobenius."""

    kind: KernelKind
    m: int

    def __str__(self) -> str:
        if self.kind is KernelKind.FROBENIUS:
            return f"Frobenius({self.m})"
        return f"VerySpecialKernel({self.m})"


def frobenius_pullback(P: ParabolicScheme, m: int) -> ParabolicScheme:
    """Pull back along the m-th iterated Frobenius: add m to every height."""
    if m < 0:
        raise InvalidScheme("Frobenius pull-back needs m >= 0")
    return _shift(P, m)


def _shift(P: ParabolicScheme, m: int) -> ParabolicScheme:
    """Add m to every finite height; callers keep the result non-negative
    (m >= 0, or m at most the minimum height)."""
    return ParabolicScheme._of(
        P.rs, P.p, P.levi, tuple(v if v is INFINITE else v + m for v in P.heights)
    )


def _require_edge(P: ParabolicScheme) -> None:
    if not edge_hypothesis(P.rs, P.p):
        raise EdgeHypothesisNotSatisfied(
            f"{P.rs.rtype} has no edge of multiplicity {P.p}"
        )


def vsi_pullback(P: ParabolicScheme) -> ParabolicScheme:
    """Pull back along the very special isogeny (dual system -> this system).

    The result lives on the dual system; heights transport as
    psi(image of gamma) = phi(gamma) + 1 for gamma long, phi(gamma) for
    gamma short.
    """
    _require_edge(P)
    dual, bij = very_special_dual(P.rs)
    levi = frozenset(bij.simple_map[i - 1] for i in P.levi)
    phi: Dict[Root, int] = {
        bij.forward(g): v if short else v + 1
        for g, short, v in zip(P.rs.positive_roots, P.rs.short, P.heights)
        if v is not INFINITE
    }
    return ParabolicScheme(dual, P.p, levi, phi)


def vsi_pushforward(P: ParabolicScheme) -> ParabolicScheme:
    """Image along the very special isogeny; inverse of vsi_pullback.

    Defined only when the minimal noncentral height-one kernel is contained,
    i.e. every short root off the Levi has height >= 1.
    """
    _require_edge(P)
    items = [
        (g, short, v)
        for g, short, v in zip(P.rs.positive_roots, P.rs.short, P.heights)
        if v is not INFINITE
    ]
    for g, short, v in items:
        if short and v < 1:
            raise KernelNotContained(f"height 0 at short root {g}")
    dual, bij = very_special_dual(P.rs)
    levi = frozenset(bij.simple_map[i - 1] for i in P.levi)
    phi = {bij.forward(g): v - 1 if short else v for g, short, v in items}
    return ParabolicScheme(dual, P.p, levi, phi)


# ---------------------------------------------------------------------------
# Normalisation


@dataclass(frozen=True)
class NormalizationResult:
    scheme: ParabolicScheme
    stripped: Tuple[KernelRecord, ...]


def _largest_kernel(P: ParabolicScheme) -> Optional[KernelRecord]:
    values = [v for v in P.heights if v is not INFINITE]
    if not values:
        return None
    m = min(values)
    if edge_hypothesis(P.rs, P.p):
        shorts = [v for short, v in zip(P.rs.short, P.heights) if short and v is not INFINITE]
        if shorts and min(shorts) >= m + 1:
            return KernelRecord(KernelKind.VERY_SPECIAL_KERNEL, m)
    if m >= 1:
        return KernelRecord(KernelKind.FROBENIUS, m)
    return None


def is_normalized(P: ParabolicScheme) -> bool:
    """No isogeny kernel with no central factor is contained in P."""
    return _largest_kernel(P) is None


def normalize(P: ParabolicScheme) -> NormalizationResult:
    """Strip the largest contained kernel repeatedly.

    Stripping a Frobenius kernel subtracts its height; stripping a very
    special kernel additionally pushes forward to the dual system.  The
    records list the kernels in stripping order (largest first).
    """
    stripped: List[KernelRecord] = []
    cur = P
    while True:
        k = _largest_kernel(cur)
        if k is None:
            return NormalizationResult(cur, tuple(stripped))
        if k.kind is KernelKind.FROBENIUS:
            cur = _shift(cur, -k.m)
        else:
            cur = vsi_pushforward(_shift(cur, -k.m))
        stripped.append(k)
