"""The parabolic-scheme calculus.

A parabolic subgroup scheme containing the fixed Borel is encoded by its Levi
subset I and the height function phi on the positive roots off the Levi.  A
ParabolicScheme stores phi as one immutable vector, `heights`, indexed like
`rs.positive_roots` (root gamma sits at position `rs.index[gamma]`) and
holding the sentinel INFINITE exactly on the Levi roots.  Containment of
schemes is pointwise comparison of the vectors, intersection is pointwise
minimum.  The layout is public, as the README documents it: other modules
read `heights` and build height vectors directly.  The private census kernel
packs blocks into ints of k-byte lanes, k set by the height bound: first root
most significant, each lane's top bit a zero guard bit, INFINITE all its
other bits (`_lane_masks`).

Every scheme is an intersection of rank-one blocks, one anchored at each
simple root off the Levi.  The block catalog at a simple root alpha:

* Standard(m): height m on every alpha-supported root (Frobenius-fattened
  maximal reduced parabolic);
* VerySpecial(m): m+1 on short, m on long alpha-supported roots; exists only
  when the diagram has an edge of multiplicity p;
* ExoticH(m), ExoticL(m): the two G2, p=2 families at the short simple root,

      ExoticH(m): 2a1+a2 -> m+1, other a1-supported roots -> m
      ExoticL(m): a1, a1+a2 -> m+1, 2a1+a2, 3a1+a2, 3a1+2a2 -> m

The node's chain table (`_chain`) is the one statement of which kinds exist at
which node, in chain order, as two aligned tuples: window vectors and codes.  A
block's `top` is its largest height: m for Standard(m), m+1 for every other
kind X(m); the catalog at bound M (`_catalog`) holds the blocks with top at most
M.  The chain key m + top orders blocks along their kernel chain Standard(0) <
X(0) < Standard(1) < X(1) < ....  Inside the package a block at a node is one
small int, its chain code (`_chain_code`), which sorts in chain order and gives
m, top and the exotic bit by shifts; a `RankOneBlock` is built (`_block_of`)
only where one is shown.  No block cache is keyed by a height: X(m) is X(0)
plus m on the node's window and INFINITE elsewhere, formed where it is used
from X(0), cached per kind as its window heights by `_block_vector` (the one
check that a node is an int in 1..rank) and packed per lane width by
`_packed_kinds`.  Per Levi subset, `_levi_split` caches the roots off it, their
positions, and each node's window in the one node order every caller reads;
per output form, `_row_format` is the one statement of how a row of it prints.

Reconstruction meets the generated block at each node, the least anchored
candidate containing the scheme; a height function is valid exactly when this
is the identity, which `is_valid` tests, without the meet, as a cover by the
generated blocks, per window (`_window_cover` returns the cover's index in the
chain).  A census meet's generated blocks are its chain-least generating tuple,
so every census carries their codes out of its one fold (`_census_meets`), and
the Hasse order compares them node by node (`_containment_bitsets`).  It returns
the sorted packed keys, their codes and the lane width, and one lane reader
(`_lane_rows`) turns a key into a row indexed like the heights.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import compress, product
from operator import add, and_, eq, ge, itemgetter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple
from typing import Callable, Union

from .errors import (
    EdgeHypothesisNotSatisfied,
    InvalidScheme,
    KernelNotContained,
    MismatchedSchemes,
)
from .rootsys import (
    Root,
    RootSystem,
    RootSystemType,
    _check_int,
    build_root_system,
    check_levi,
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
def _levi_split(rs: RootSystem, levi: FrozenSet[int]) -> Tuple[Tuple, Tuple, Tuple]:
    """(roots, positions, windows) off the Levi: the positive roots not supported inside it
    (those some window holds) and their positions in the height vector, in root order, and
    the (node, window) of each node off it.  A window holds the positions of the
    node-supported roots, where a block at the node is finite; the node's is first."""
    pos = rs.positive_roots
    windows = tuple(
        (a, tuple(i for i, g in enumerate(pos) if g.coeffs[a - 1]))
        for a in range(1, rs.rank + 1) if a not in levi
    )
    positions = tuple(sorted({i for _, w in windows for i in w}))
    return tuple(map(pos.__getitem__, positions)), positions, windows


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
        if not isinstance(phi, Mapping):
            raise InvalidScheme(f"phi {phi!r} is not a mapping")
        domain, positions, _ = _levi_split(rs, self.levi)
        heights: List[Height] = [INFINITE] * len(rs.positive_roots)
        for g, i in zip(domain, positions):
            if g not in phi:
                raise InvalidScheme(f"phi missing value at {g}")
            v = phi[g]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidScheme(f"phi({g}) = {v!r} is not a non-negative integer")
            heights[i] = v
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
        return _levi_split(self.rs, self.levi)[0]

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
        """_canonical(self.to_json_dict()), filled into the cached row format."""
        head, tail, get = _row_format(self.rs, self.levi, "json")
        return (head + str(self.p) + tail) % get(self.heights)

    def to_text(self) -> str:
        """A header line, then a `  phi(<root>) = <height>` line per root off the Levi."""
        head, tail, get = _row_format(self.rs, self.levi, "text")
        return (head + str(self.p) + tail) % get(self.heights)

    def to_compact(self) -> str:
        """The heights off the Levi in root order, joined by ';' (the CSV and DOT field)."""
        head, _, get = _row_format(self.rs, self.levi, "compact")
        return head % get(self.heights)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ParabolicScheme":
        """Parse without coercion: prime, Levi indices, root coefficients and
        heights must all be JSON integers, and no root may have two keys."""
        try:
            rtype = RootSystemType.parse(data["type"])
            levi = list(data["levi"])
            items = [
                (Root(tuple(_check_int(c) for c in json.loads(k))), v)
                for k, v in data["phi"].items()
            ]
            p = data["prime"]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidScheme(f"malformed scheme data: {exc}") from exc
        phi: Dict[Root, int] = {}
        for g, v in items:
            if g in phi:
                raise InvalidScheme(f"phi gives {g} two heights")
            phi[g] = v
        return cls(build_root_system(rtype), p, levi, phi)


#: compact JSON with sorted keys, the form of every JSON line the package prints
_canonical = partial(json.dumps, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def _json_keys(rs: RootSystem) -> Tuple[str, ...]:
    """JSON key of each positive root ("[1,0,2]"), indexed like the heights."""
    return tuple(_canonical(list(g.coeffs)) for g in rs.positive_roots)


@lru_cache(maxsize=None)
def _row_format(rs: RootSystem, levi: FrozenSet[int], form: str) -> Tuple[str, str, Callable]:
    """(head, tail, get) of a `form` row on (rs, levi): at prime p, (head + str(p) + tail) %
    get(heights).  Forms: "json" (canonical_json), "text" (to_text), "csv" (a schemes_to_csv
    row, phi last), "compact" (to_compact, the CSV field and DOT label: head % get(heights))."""
    def pick(ix):  # an exact-size tuple; itemgetter returns one for two or more indices
        return itemgetter(*ix) if len(ix) > 1 else lambda h: tuple([h[i] for i in ix])

    finite = _levi_split(rs, levi)[1]
    get, fields = pick(finite), ";".join(["%d"] * len(finite))
    if form == "json":  # the heights in sort_keys order, then the prime
        blank = tuple("%d" if i in finite else INFINITE for i in range(len(rs.positive_roots)))
        row = _canonical(ParabolicScheme._of(rs, "%p", levi, blank).to_json_dict())
        head, tail = row.replace('"%d"', "%d").split('"%p"')
        return head, tail, pick(sorted(finite, key=_json_keys(rs).__getitem__))
    if form == "text":
        lines = "".join(f"\n  phi({rs.positive_roots[i]}) = %d" for i in finite)
        return f"type {rs.rtype}  prime ", f"  levi {sorted(levi)}{lines}", get
    if form == "csv":
        return f"{rs.rtype},", f",{' '.join(map(str, sorted(levi)))},{fields}", get
    return fields, "", get


def reduced_scheme(rs: RootSystem, p: int, levi: Iterable[int] = ()) -> ParabolicScheme:
    """The reduced parabolic P_I (phi identically zero off the Levi)."""
    I = check_levi(rs, levi)
    return ParabolicScheme(rs, p, I, {g: 0 for g in _levi_split(rs, I)[0]})


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

    def __post_init__(self) -> None:
        _check_int(self.alpha)
        if not isinstance(self.kind, BlockKind):
            raise InvalidScheme(f"block kind {self.kind!r} is not a BlockKind")
        _check_int(self.m)

    @property
    def top(self) -> int:
        """The largest height of the block: m for Standard, m+1 for every other kind."""
        return self.m if self.kind is BlockKind.STANDARD else self.m + 1

    def __str__(self) -> str:
        return f"{self.kind.value}({self.m})@a{self.alpha}"


def _chain_code(kind: BlockKind, m: int) -> int:
    """X(m)'s code, 4 * chain key (m + top) + the kind's place in BlockKind: codes sort
    in chain order, catalog order on ties; m is code >> 3, top code + 4 >> 3, exotic code & 2."""
    i = _KINDS.index(kind)
    return 8 * m + (i and 4 + i)  # X(0)'s top is 0 for Standard (i = 0), else 1


def _block_of(alpha: int, code: int) -> RankOneBlock:
    """The block at alpha with this _chain_code."""
    return RankOneBlock(alpha, _KINDS[code & 3], code >> 3)


def standard_block(alpha: int, m: int) -> RankOneBlock:
    return RankOneBlock(alpha, BlockKind.STANDARD, m)


def very_special_block(alpha: int, m: int) -> RankOneBlock:
    return RankOneBlock(alpha, BlockKind.VERY_SPECIAL, m)


def exotic_h_block(m: int) -> RankOneBlock:
    return RankOneBlock(1, BlockKind.EXOTIC_H, m)


def exotic_l_block(m: int) -> RankOneBlock:
    return RankOneBlock(1, BlockKind.EXOTIC_L, m)


_KINDS = tuple(BlockKind)  # numbered as in the chain codes
_G2 = RootSystemType.parse("G2")

# the a1-supported positive roots of G2 where the exotic blocks reach m+1
_EXOTIC_TOPS = {BlockKind.EXOTIC_H: {Root.of(2, 1)},
                BlockKind.EXOTIC_L: {Root.of(1, 0), Root.of(1, 1)}}


def _catalog(rs: RootSystem, p: int, alpha: int, max_height: int) -> List[RankOneBlock]:
    """The catalog blocks at alpha whose top stays within max_height, kind by
    kind in catalog order (X(0)'s code), then by m; trusts p and max_height."""
    return [_block_of(alpha, c + 8 * m) for c in sorted(k & 7 for k in _chain(rs, p, alpha)[1])
            for m in range(max_height + (c == 0))]


def _catalog_size(rs: RootSystem, p: int, alpha: int, max_height: int) -> int:
    """len(_catalog(rs, p, alpha, max_height)), without building it."""
    return len(_chain(rs, p, alpha)[1]) * max_height + 1


def _check_block(rs: RootSystem, p: int, block: RankOneBlock) -> None:
    _check_prime(p)
    if block.m < 0:
        raise InvalidScheme(f"negative block height {block.m}")
    if any(k & 7 == _chain_code(block.kind, 0) for k in _chain(rs, p, block.alpha)[1]):
        return
    if block.kind is BlockKind.VERY_SPECIAL:
        raise EdgeHypothesisNotSatisfied(
            f"VerySpecial block needs an edge of multiplicity {p} in {rs.rtype}"
        )
    raise InvalidScheme(
        "exotic blocks exist only in G2, characteristic 2, at the short simple root"
    )


@lru_cache(maxsize=None, typed=True)
def _block_vector(rs: RootSystem, alpha: int, kind: BlockKind) -> Tuple[int, ...]:
    """The heights of the block X(0) of this kind at alpha on alpha's window, the anchor
    first; X(m) is X(0) plus m there (`_meet`), so no cache is keyed by m.  Holds the one
    node check: refuses an alpha that is not an int in 1..rank."""
    if not 1 <= _check_int(alpha) <= rs.rank:
        raise InvalidScheme(f"anchor a{alpha} outside 1..{rs.rank}")
    pos = rs.positive_roots
    tops = ({g for g, s in zip(pos, rs.short) if s} if kind is BlockKind.VERY_SPECIAL
            else _EXOTIC_TOPS.get(kind, ()))  # the roots where X(0) reaches 1
    return tuple(int(pos[i] in tops) for i in _levi_split(rs, frozenset())[2][alpha - 1][1])


def _meet(rs: RootSystem, p: int, blocks: Mapping[int, int]) -> ParabolicScheme:
    """The meet of the blocks with these chain codes, by node, a minimum over their
    windows (INFINITE elsewhere); its Levi is the nodes that carry no block."""
    heights: List[Height] = [INFINITE] * len(rs.positive_roots)
    windows = _levi_split(rs, frozenset())[2]
    for alpha, code in blocks.items():
        m = code >> 3
        for i, v in zip(windows[alpha - 1][1], _block_vector(rs, alpha, _KINDS[code & 3])):
            h = heights[i]
            if h is INFINITE or v + m < h:
                heights[i] = v + m
    levi = frozenset(range(1, rs.rank + 1)).difference(blocks)
    return ParabolicScheme._of(rs, p, levi, tuple(heights))


def block_phi(rs: RootSystem, p: int, block: RankOneBlock) -> ParabolicScheme:
    """Height function of one catalog block (Levi is everything but the anchor)."""
    _check_block(rs, p, block)
    return _meet(rs, p, {block.alpha: _chain_code(block.kind, block.m)})


def block_anchor_height(rs: RootSystem, block: RankOneBlock) -> int:
    """Height of the block on its own anchor root."""
    return _block_vector(rs, block.alpha, block.kind)[0] + block.m


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
    return all(map(height_ge, P.heights, Q.heights))


def _containment_bitsets(codes: Sequence[Tuple[int, ...]]) -> List[int]:
    """Strict containment among the distinct schemes of one census, given the chain codes
    of each one's generated blocks at the nodes off the Levi: bit j of up[i] says that
    scheme j contains scheme i.  Per node the schemes are grouped by code into bitsets, and
    up[i] keeps those whose block there contains i's: O(n * r) big-int ANDs.

    The order is exact.  At one node, B lies in B' exactly when key(B) < key(B')
    or B = B', for the chain key m + top = code >> 2, because Standard(m) lies
    in X(m) and X(m) in Standard(m+1) for every kind X.  Two distinct blocks
    share a key only as ExoticH(m) and ExoticL(m) (G2, p = 2); these two are
    incomparable, and they meet in Standard(m).  So the catalog blocks at a
    node that contain a valid P have a least element, which is P's generated
    block G_a(P) there.  Because Q is the meet of its G_a(Q), Q contains P
    exactly when G_a(Q) contains G_a(P) at every node a."""
    n = len(codes)
    up = [(1 << n) - 1] * n
    for column in zip(*codes):
        at: Dict[int, int] = {}
        for j, v in enumerate(column):
            at[v] = at.get(v, 0) | 1 << j
        ge = dict.fromkeys(at, 0)
        for v, w in product(at, repeat=2):
            if w >> 2 > v >> 2 or w == v:  # the block w contains the block v
                ge[v] |= at[w]
        up = list(map(and_, up, map(ge.__getitem__, column)))
    return [u ^ 1 << i for i, u in enumerate(up)]


@lru_cache(maxsize=None)
def _lane_masks(rs: RootSystem, k: int) -> Tuple[int, int]:
    """The guard bits of every k-byte lane, and of the short-root lanes."""
    lane = b"\x80".ljust(k, b"\0")
    short = b"".join(lane if s else bytes(k) for s in rs.short)
    return int.from_bytes(lane * len(rs.short), "big"), int.from_bytes(short, "big")


@lru_cache(maxsize=None)
def _packed_kinds(rs: RootSystem, p: int, alpha: int, k: int) -> Tuple[Tuple, ...]:
    """(packed X(0), its ones on alpha's window, _chain_code, top) of each kind at
    alpha, in catalog order, in k-byte lanes: X(m) packs as X(0) plus m ones."""
    inf, kinds = (1 << 8 * k - 1) - 1, []
    for c in sorted(code & 7 for code in _chain(rs, p, alpha)[1]):
        x, one = 0, 0
        for v in _meet(rs, p, {alpha: c}).heights:  # the first root leads
            x, one = x << 8 * k | (inf if v is INFINITE else v), one << 8 * k | (v is not INFINITE)
        kinds.append((x, one, c, c + 4 >> 3))
    return tuple(kinds)


def _census_meets(rs: RootSystem, p: int, levi: FrozenSet[int], max_height: int,
                  normalized_only: bool) -> Tuple[List[int], Tuple, int]:
    """(keys, codes, k): the distinct meets of one catalog block at each node off `levi`
    (in _levi_split's order) as packed keys in k-byte lanes, sorted (so by heights), and
    aligned their generated blocks' chain codes: the first tuple to reach a meet, each
    catalog in chain order and the partial meets in the order first reached."""
    k = ((max_height + 1).bit_length() + 8) // 8  # heights to max_height, INFINITE, a guard bit
    H, short = _lane_masks(rs, k)
    g, low = 8 * k - 1, H >> 8 * k - 1
    inf = (1 << g) - 1  # the INFINITE lane
    # normalized: a zero lane; a short one under the edge (the top short root is never Levi)
    sel = normalized_only and (short if edge_hypothesis(rs, p) else H)
    tuples: Dict[int, Tuple[int, ...]] = {H - low: ()}  # the full group
    windows = _levi_split(rs, levi)[2]
    for i, (alpha, _) in enumerate(windows, 1):
        kinds = _packed_kinds(rs, p, alpha, k)  # the catalog, m outer: chain order
        chain = [(x + m * one, c + 8 * m) for m in range(max_height + 1)
                 for x, one, c, top in kinds if m + top <= max_height]
        meets: Dict[int, Tuple[int, ...]] = {}
        # the normalized filter, at the last node, where the meets are whole
        drop = sel and i == len(windows)
        for a, t in tuples.items():
            aH = a | H
            for b, code in chain:
                # lane-wise min: the guard bit of (a | H) - b survives where a >= b
                x = a ^ (a ^ b) & ((aH - b & H) >> g) * inf
                if x not in meets and not (drop and (x | H) - low & sel == sel):
                    meets[x] = (*t, code)
        tuples = meets
    keys = sorted(tuples)
    return keys, tuple(map(tuples.__getitem__, keys)), k


def _lane_rows(rs: RootSystem, keys: Iterable[int], k: int) -> Iterable[Sequence[int]]:
    """Each packed key in k-byte lanes as a row indexed like the heights, a lane's value at
    its root's position (INFINITE as (1 << 8k - 1) - 1): the key's bytes for k = 1."""
    n = len(rs.short) * k
    rows = (x.to_bytes(n, "big") for x in keys)
    if k > 1:
        rows = ([int.from_bytes(b[i:i + k], "big") for i in range(0, n, k)] for b in rows)
    return rows


# ---------------------------------------------------------------------------
# Generated blocks and reconstruction


def anchored_candidates(
    rs: RootSystem, p: int, alpha: int, anchor: int
) -> Tuple[RankOneBlock, ...]:
    """Catalog blocks at alpha whose height on alpha equals `anchor`, in
    increasing containment order (_chain); a bool or float node or anchor is refused."""
    _check_prime(p)
    a = _check_int(anchor)
    return tuple(_block_of(alpha, k + 8 * a) for k in _chain(rs, p, alpha)[1] if k + 8 * a >= 0)


@lru_cache(maxsize=None, typed=True)
def _chain(rs: RootSystem, p: int, alpha: int) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple]:
    """(vectors, codes), aligned and sorted by code: per kind admitted at alpha (Standard;
    VerySpecial under an edge of multiplicity p; ExoticH, ExoticL in G2, p = 2, at a1),
    X(0)'s window heights less its anchor height t, and k = c - 8t for its chain code c (so
    c = k & 7).  At anchor a the kind's candidate X(a - t) has code k + 8a, and exists iff
    that is >= 0; Standard(m) lies in X(m), X(m) in Standard(m+1), so this is the chain at
    every anchor.  Standard's _block_vector refuses an alpha that is not a node."""
    kinds = [BlockKind.STANDARD]
    if edge_hypothesis(rs, p):
        kinds.append(BlockKind.VERY_SPECIAL)
    if rs.rtype == _G2 and p == 2 and alpha == 1:
        kinds += [BlockKind.EXOTIC_H, BlockKind.EXOTIC_L]
    vectors = [(_block_vector(rs, alpha, x), _chain_code(x, 0)) for x in kinds]  # anchor first
    codes, heights = zip(*sorted((c - 8 * h[0], tuple(v - h[0] for v in h)) for h, c in vectors))
    return heights, codes  # the codes are distinct, so the sort reads only them


def _window_cover(vectors: Sequence[Tuple[int, ...]], hw: Tuple[int, ...]) -> Tuple[int, Tuple]:
    """The cover test over hw, a scheme's heights on a node's window (anchor first), by the
    window heights of the node's candidates in chain order: the index of the first that
    contains hw and the window roots where the two are equal, else -1 (the last, the
    fallback) and no roots.  A block is INFINITE off its window, the scheme finite on it."""
    for i, h in enumerate(vectors):
        if all(map(ge, h, hw)):
            return i, tuple(map(eq, h, hw))
    return -1, ()


def _covering(P: ParabolicScheme, alpha: int, window: Tuple[int, ...]) -> Tuple[int, Tuple]:
    """_window_cover of P's window heights less the anchor's, a: codes[i] + 8a, for the index
    i it returns, is P's generated block.  No t <= a filter: a t = 1 kind (VerySpecial at a
    short node, ExoticL) is -1 on the long roots of its window, which holds the highest root,
    so X(-1) holds no scheme; Standard (k = 0) sorts after each k < 0: never the fallback."""
    a, (vectors, codes) = P.heights[window[0]], _chain(P.rs, P.p, alpha)
    i, hits = _window_cover(vectors, tuple([P.heights[j] - a for j in window]))
    return codes[i] + 8 * a, hits


def generated_block(P: ParabolicScheme, alpha: int) -> RankOneBlock:
    """The block of the smallest subgroup containing P and the maximal reduced
    parabolic at alpha.

    The anchor height is pinned to phi(alpha); among blocks with that anchor
    (always a chain, so the minimum is unambiguous) the smallest one
    containing P is returned.  For an invalid height function no anchored
    block may contain P; the largest anchored candidate is then returned,
    and re-intersection will expose the mismatch.
    """
    _block_vector(P.rs, _check_int(alpha), BlockKind.STANDARD)  # the node check, first
    if alpha in P.levi:
        raise InvalidScheme(f"a{alpha} is not outside the Levi {sorted(P.levi)}")
    window = _levi_split(P.rs, frozenset())[2][alpha - 1][1]  # the node's, whatever the Levi
    return _block_of(alpha, _covering(P, alpha, window)[0])


def _generated_blocks(P: ParabolicScheme) -> Dict[int, int]:
    """The chain code of the generated block at each simple root off the Levi, by node."""
    return {a: _covering(P, a, w)[0] for a, w in _levi_split(P.rs, P.levi)[2]}


def reconstruct(P: ParabolicScheme) -> ParabolicScheme:
    """Intersection of the generated blocks over the simple roots off the
    Levi; equals P exactly when P is a genuine parabolic scheme."""
    return _meet(P.rs, P.p, _generated_blocks(P))


def _is_cover(P: ParabolicScheme) -> bool:
    """reconstruct(P) == P without the meet: (a) each generated block contains
    P (a fallback block drops below it), and (b) each root off the Levi is a
    root where one of them equals P (a block is INFINITE off its window)."""
    hit = set()
    _, positions, windows = _levi_split(P.rs, P.levi)
    for alpha, window in windows:
        hits = _covering(P, alpha, window)[1]
        if not hits:  # a fallback
            return False
        hit.update(compress(window, hits))
    return len(hit) == len(positions)


def is_valid(P: ParabolicScheme) -> bool:
    """Validity as the reconstruction fixpoint, tested as a cover (_is_cover), which reads
    only P's checked node windows and its checked prime's _chain: it raises no domain error."""
    return _is_cover(P)


# ---------------------------------------------------------------------------
# Commutator inequality check


@lru_cache(maxsize=None)
def _enne_triples(rs: RootSystem) -> Tuple[Tuple[int, int, int], ...]:
    """Index triples (gamma, delta, gamma+delta) of the pairs enne_check
    tests, sorted by the coefficients of gamma, then of delta."""
    pos = rs.positive_roots
    coeffs = [g.coeffs for g in pos]
    at = {c: i for i, c in enumerate(coeffs)}
    triples = []
    for a, ca in enumerate(coeffs):
        for b in range(a + 1, len(pos)):
            c = at.get(tuple(map(add, ca, coeffs[b])))
            if c is not None and not rs.is_root(pos[a] - pos[b]):
                triples.append((a, b, c))
    triples.sort(key=lambda t: (coeffs[t[0]], coeffs[t[1]]))
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


class KernelRecord(NamedTuple):
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
    if _check_int(m) < 0:
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


def _transport(P: ParabolicScheme, long_shift: int, short_shift: int) -> ParabolicScheme:
    """P carried to the dual system along the length-exchanging bijection,
    adding long_shift to the heights on long roots, short_shift on short ones."""
    dual, bij = very_special_dual(P.rs)
    levi = frozenset(bij.simple_map[i - 1] for i in P.levi)
    phi = {
        bij.forward(g): v + (short_shift if short else long_shift)
        for g, short, v in zip(P.rs.positive_roots, P.rs.short, P.heights)
        if v is not INFINITE
    }
    return ParabolicScheme(dual, P.p, levi, phi)


def vsi_pullback(P: ParabolicScheme) -> ParabolicScheme:
    """Pull back along the very special isogeny (dual system -> this system).

    The result lives on the dual system; heights transport as
    psi(image of gamma) = phi(gamma) + 1 for gamma long, phi(gamma) for
    gamma short.
    """
    _require_edge(P)
    return _transport(P, 1, 0)


def vsi_pushforward(P: ParabolicScheme) -> ParabolicScheme:
    """Image along the very special isogeny; inverse of vsi_pullback.

    Defined only when the minimal noncentral height-one kernel is contained,
    i.e. every short root off the Levi has height >= 1.
    """
    _require_edge(P)
    for g, short, v in zip(P.rs.positive_roots, P.rs.short, P.heights):
        if short and v == 0:
            raise KernelNotContained(f"height 0 at short root {g}")
    return _transport(P, 0, -1)


# ---------------------------------------------------------------------------
# Normalisation


class NormalizationResult(NamedTuple):
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
