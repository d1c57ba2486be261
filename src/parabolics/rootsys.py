"""Exact root-system combinatorics for the irreducible types A through G.

Conventions used throughout the package:

* simple roots are numbered 1..n following the standard Bourbaki tables,
  and a root is stored as its integer coefficient vector over them;
* the symmetric pairing ( , ) is normalised so that short roots have
  squared length 2 (so squared lengths are 2, 4 and, in G2, 6);
* positive roots are generated by string closure from the simple roots on
  integer tuples, with the classical counts kept as hard cross-checks;
* all arithmetic is exact: the build runs on integers, from twice the
  epsilon realisation; only `epsilon` reads that realisation back as
  Fractions.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, neg
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .errors import (
    EdgeHypothesisNotSatisfied,
    InvalidPartition,
    InvalidRootSystem,
    InvalidScheme,
    NotARoot,
    UnsupportedType,
)

SERIES = ("A", "B", "C", "D", "E", "F", "G")

#: classical positive-root counts, used as cross-checks after closure
_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

#: the ranks each series admits
_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

#: the largest rank a type may have; a rank-n type has about n**2 positive
#: roots, and the `constants` table about n**4 root pairs
RANK_LIMIT = 16

SHORT = "short"
LONG = "long"


@dataclass(frozen=True)
class RootSystemType:
    """A series label and a rank, e.g. B3 or G2."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        if self.series not in SERIES:
            raise InvalidRootSystem(f"unknown series {self.series!r}")
        rank = self.rank
        if not isinstance(rank, int) or isinstance(rank, bool) or not _RANK_OK[self.series](rank):
            raise InvalidRootSystem(f"rank {self.rank} invalid for series {self.series}")
        if rank > RANK_LIMIT:
            raise InvalidRootSystem(f"rank {rank} exceeds the limit {RANK_LIMIT}")

    @classmethod
    def parse(cls, label: str) -> "RootSystemType":
        if not isinstance(label, str):
            raise InvalidRootSystem(f"cannot parse type label {label!r}")
        label = label.strip()
        if len(label) < 2 or not (label[1:].isascii() and label[1:].isdecimal()):
            raise InvalidRootSystem(f"cannot parse type label {label!r}")
        return cls(label[0].upper(), int(label[1:]))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


@dataclass(frozen=True)
class Root:
    """Integer coefficient vector over the simple roots."""

    coeffs: Tuple[int, ...]

    @classmethod
    def of(cls, *coeffs: int) -> "Root":
        return cls(tuple(_check_int(c) for c in coeffs))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coeffs))

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def support(self) -> FrozenSet[int]:
        return frozenset(i + 1 for i, c in enumerate(self.coeffs) if c != 0)

    def __str__(self) -> str:
        return self._name

    @cached_property
    def _name(self) -> str:
        """The name, as "2a1-3a2": built on first read, kept on this root alone."""
        parts = [f"{'' if c == 1 else '-' if c == -1 else c}a{i}"
                 for i, c in enumerate(self.coeffs, start=1) if c]
        return "+".join(parts).replace("+-", "-") if parts else "0"


def _simple_epsilon(rtype: RootSystemType) -> List[Tuple[int, ...]]:
    """Twice the Bourbaki epsilon-coordinates of the simple roots: integers."""
    n, s = rtype.rank, rtype.series

    def vec(*pairs, dim: int) -> Tuple[int, ...]:
        v = [0] * dim
        for i, c in pairs:
            v[i] += 2 * c
        return tuple(v)

    if s == "A":
        return [vec((i, 1), (i + 1, -1), dim=n + 1) for i in range(n)]
    if s in ("B", "C", "D"):
        last = {"B": ((n - 1, 1),), "C": ((n - 1, 2),), "D": ((n - 2, 1), (n - 1, 1))}[s]
        return [vec((i, 1), (i + 1, -1), dim=n) for i in range(n - 1)] + [vec(*last, dim=n)]
    if s == "E":
        rest = [vec((i + 1, 1), (i, -1), dim=8) for i in range(6)]
        return ([(1, -1, -1, -1, -1, -1, -1, 1), vec((0, 1), (1, 1), dim=8)] + rest)[:n]
    if s == "F":
        return [vec((1, 1), (2, -1), dim=4), vec((2, 1), (3, -1), dim=4), vec((3, 1), dim=4),
                (1, -1, -1, -1)]
    # G2, in the standard 3-dimensional realisation
    return [vec((0, 1), (1, -1), dim=3), vec((0, -2), (1, 1), (2, 1), dim=3)]


class RootSystem:
    """Immutable root-system data, built once per type and shared: equal means identical."""

    def __init__(self, rtype: RootSystemType):
        self.rtype = rtype
        n = self.rank = rtype.rank
        eps = _simple_epsilon(rtype)
        # four times the Gram matrix; scaled by 2/d, short roots get squared length 2
        gram = [[sum(map(mul, u, v)) for v in eps] for u in eps]
        d = min(gram[i][i] for i in range(n))
        if any(2 * x % d for row in gram for x in row):
            raise InvalidRootSystem(f"non-integral pairing for {rtype}")
        self.pairing_matrix: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(2 * x // d for x in row) for row in gram
        )

        # Cartan matrix A[i][j] = <alpha_i, alpha_j^vee> = 2(a_i,a_j)/(a_j,a_j)
        P = self.pairing_matrix
        A = self.cartan = tuple(tuple(2 * P[i][j] // P[j][j] for j in range(n)) for i in range(n))

        self.simple_roots: Tuple[Root, ...] = tuple(
            Root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
        )
        # The positive roots of one height at a time, by coefficients: each
        # with its pairings <gamma, alpha_i^vee> and how far down its
        # alpha_i-string reaches.  gamma + alpha_i is a root exactly when that
        # reach exceeds the pairing, and its pairings are gamma's plus row i.
        level = {a.coeffs: (A[i], [0] * n) for i, a in enumerate(self.simple_roots)}
        positive, squared = [], []
        half = [P[i][i] // 2 for i in range(n)]  # (gamma, alpha_i) = <gamma, alpha_i^vee> * half[i]
        while level:
            nxt: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], List[int]]] = {}
            for c in sorted(level):
                pair, down = level[c]
                positive.append(c)
                squared.append(sum(map(mul, c, map(mul, pair, half))))
                for i in range(n):
                    if down[i] > pair[i]:
                        up = c[:i] + (c[i] + 1,) + c[i + 1:]
                        if up not in nxt:
                            nxt[up] = tuple(map(add, pair, A[i])), [0] * n
                        nxt[up][1][i] = down[i] + 1
            level = nxt
        expected = _POSITIVE_COUNT[rtype.series](n)
        if len(positive) != expected:
            raise InvalidRootSystem(
                f"{rtype}: closure produced {len(positive)} positive roots, expected {expected}"
            )
        self.positive_roots: Tuple[Root, ...] = tuple(map(Root, positive))
        self.roots: Tuple[Root, ...] = self.positive_roots + tuple(
            Root(tuple(map(neg, c))) for c in positive
        )
        self._root_set = frozenset(self.roots)
        #: position of each positive root in `positive_roots`; schemes index
        #: their height vectors by it
        self.index: Dict[Root, int] = {g: i for i, g in enumerate(self.positive_roots)}
        longest = max(squared)
        #: whether each positive root is short, indexed like `positive_roots`;
        #: simply laced systems have every root long
        self.short: Tuple[bool, ...] = tuple(l < longest for l in squared)
        self.is_simply_laced = not any(self.short)
        self.max_edge_multiplicity = longest // min(squared)

    @cached_property
    def epsilon_coords(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """Bourbaki epsilon-coordinates of the simple roots, built on first read."""
        return tuple(tuple(Fraction(x, 2) for x in v) for v in _simple_epsilon(self.rtype))

    # -- queries ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"RootSystem({self.rtype})"

    def is_root(self, gamma: Root) -> bool:
        try:
            return gamma in self._root_set
        except TypeError:  # an unhashable gamma, such as a list
            raise NotARoot(f"{gamma} is not a root of {self.rtype}") from None

    def is_positive_root(self, gamma: Root) -> bool:
        return self.is_root(gamma) and gamma in self.index

    def check_root(self, gamma: Root) -> Root:
        if not self.is_root(gamma):
            raise NotARoot(f"{gamma} is not a root of {self.rtype}")
        return gamma

    def pairing(self, gamma: Root, delta: Root) -> int:
        """Symmetric bilinear form, (short, short) = 2."""
        P = self.pairing_matrix
        return sum(
            ci * P[i][j] * dj
            for i, ci in enumerate(gamma.coeffs) if ci
            for j, dj in enumerate(delta.coeffs) if dj
        )

    def length_class(self, gamma: Root) -> str:
        """SHORT or LONG; every root of a simply laced system is LONG."""
        self.check_root(gamma)
        i = self.index[gamma] if gamma in self.index else self.index[-gamma]
        return SHORT if self.short[i] else LONG

    def epsilon(self, gamma: Root) -> Tuple[Fraction, ...]:
        dim = len(self.epsilon_coords[0])
        out = [Fraction(0)] * dim
        for i, c in enumerate(gamma.coeffs):
            if c:
                for k in range(dim):
                    out[k] += c * self.epsilon_coords[i][k]
        return tuple(out)


@lru_cache(maxsize=None)
def build_root_system(rtype: RootSystemType) -> RootSystem:
    return RootSystem(rtype)


def root_system(label: str) -> RootSystem:
    """Convenience: root_system("B2")."""
    return build_root_system(RootSystemType.parse(label))


# ---------------------------------------------------------------------------
# Levi subsets


def _check_int(v: object) -> int:
    """v itself if it is an int (not a bool); input is never coerced."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidScheme(f"{v!r} is not an integer")
    return v


def check_levi(rs: RootSystem, levi: Iterable[int]) -> FrozenSet[int]:
    try:
        indices = iter(levi)
    except TypeError:
        raise InvalidScheme(f"Levi subset {levi!r} is not a collection of simple indices") from None
    checked = [_check_int(i) for i in indices]
    I = frozenset(checked)
    if len(I) < len(checked):
        raise InvalidScheme(f"Levi subset {checked} repeats a simple index")
    if not I <= set(range(1, rs.rank + 1)):
        raise InvalidScheme(f"Levi subset {sorted(I)} outside 1..{rs.rank}")
    return I


# ---------------------------------------------------------------------------
# Duality under the very special isogeny

_DUAL_SERIES = {"B": "C", "C": "B", "F": "F", "G": "G"}


def _dual_relabel(rtype: RootSystemType) -> Dict[int, int]:
    if rtype.series in ("B", "C"):
        return {i: i for i in range(1, rtype.rank + 1)}
    if rtype.series == "F":
        return {i: 5 - i for i in range(1, 5)}
    return {1: 2, 2: 1}  # G2


class VerySpecialDuality(NamedTuple):
    """Length-exchanging bijection between a system and its dual."""

    source: RootSystem
    target: RootSystem
    simple_map: Tuple[int, ...]  # simple_map[i-1] = image index of alpha_i
    images: Dict[Root, Root]  # the image of every root

    def forward(self, gamma: Root) -> Root:
        try:
            return self.images[gamma]
        except KeyError:
            raise NotARoot(f"{gamma} is not a root of {self.source.rtype}") from None


@lru_cache(maxsize=None)
def very_special_dual(rs: RootSystem) -> Tuple[RootSystem, VerySpecialDuality]:
    """Dual system and root bijection exchanging long and short roots.

    The bijection sends gamma = sum c_i alpha_i to the dual root with
    coefficient c_i (alpha_i, alpha_i) / (gamma, gamma) at the relabelled
    simple index, which is the coroot map written over the dual basis.
    Requires a multiple edge (types B, C, F4, G2).
    """
    if rs.is_simply_laced:
        raise EdgeHypothesisNotSatisfied(f"{rs.rtype} has no multiple edge")
    dual_type = RootSystemType(_DUAL_SERIES[rs.rtype.series], rs.rank)
    dual = build_root_system(dual_type)
    sigma = _dual_relabel(rs.rtype)
    fwd: Dict[Root, Root] = {}
    for gamma in rs.roots:
        gg = rs.pairing(gamma, gamma)
        image = [0] * rs.rank
        for i, c in enumerate(gamma.coeffs, start=1):
            if c:
                num = c * rs.pairing_matrix[i - 1][i - 1]
                if num % gg:
                    raise InvalidRootSystem(f"duality broke integrality at {gamma}")
                image[sigma[i] - 1] = num // gg
        img = Root(tuple(image))
        if not dual.is_root(img):
            raise InvalidRootSystem(f"duality image {img} not a root of {dual_type}")
        if rs.length_class(gamma) == dual.length_class(img):
            raise InvalidRootSystem(f"duality failed to exchange lengths at {gamma}")
        fwd[gamma] = img
    return dual, VerySpecialDuality(rs, dual, tuple(sigma[i] for i in range(1, rs.rank + 1)), fwd)


# ---------------------------------------------------------------------------
# Long-root subsystem of F4

#: basis of the long-root D4 inside F4: e1-e2, e2-e3, e3-e4, e3+e4
_F4_LONG_BASIS = ((0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 2, 0))


class LongRootSubsystem(NamedTuple):
    roots: Tuple[Root, ...]
    basis: Tuple[Root, ...]
    subsystem_type: RootSystemType


def long_root_subsystem(rs: RootSystem) -> LongRootSubsystem:
    """The 24 long roots of F4 with their distinguished D4 basis."""
    if rs.rtype != RootSystemType("F", 4):
        raise UnsupportedType("long_root_subsystem is implemented for F4 only")
    longs = tuple(g for g in rs.roots if rs.length_class(g) == LONG)
    basis = tuple(Root(c) for c in _F4_LONG_BASIS)
    return LongRootSubsystem(
        roots=tuple(sorted(longs, key=lambda g: (g.height, g.coeffs))),
        basis=basis,
        subsystem_type=RootSystemType("D", 4),
    )


# ---------------------------------------------------------------------------
# Connected node sets of the Dynkin diagram


@lru_cache(maxsize=None)
def _connected_sets(rs: RootSystem) -> Tuple[Root, ...]:
    """The positive roots with every coefficient 0 or 1, in root order: one
    per connected set of Dynkin nodes, its support.  The support of a root
    is connected, and the simple roots over a connected set sum to a root."""
    return tuple(g for g in rs.positive_roots if max(g.coeffs) == 1)


# ---------------------------------------------------------------------------
# Incidence root for the finiteness argument


def find_incidence_root(
    rs: RootSystem, levi: Iterable[int], left: Iterable[int]
) -> Tuple[int, Root]:
    """Pick l in `left` and a positive root delta with Supp(delta) disjoint
    from `left` and (delta, alpha_l) < 0.

    `left` must be a nonempty proper subset of the non-Levi simple roots.
    The least connected node set meeting both sides, at l and mu, is the
    shortest Dynkin segment between them; its interior lies in the Levi, and
    delta is that set's 0/1 root minus alpha_l.
    """
    I = check_levi(rs, levi)
    L = frozenset([_check_int(i) for i in left])
    outside = frozenset(range(1, rs.rank + 1)) - I
    if not L or not L <= outside:
        raise InvalidPartition(f"left side {sorted(L)} must be nonempty inside Delta\\I")
    if L == outside:
        raise InvalidPartition("right side of the partition is empty")
    return _incidence_root(rs, I, L)


@lru_cache(maxsize=None)
def _incidence_root(rs: RootSystem, I: FrozenSet[int], L: FrozenSet[int]) -> Tuple[int, Root]:
    """find_incidence_root for a Levi subset I and a left side L that its
    caller has checked."""
    R = frozenset(range(1, rs.rank + 1)) - I - L
    _, nu, mu, coeffs = min(
        (g.height, nu, mu, g.coeffs)
        for g in _connected_sets(rs)
        for nu in L if g.coeffs[nu - 1]
        for mu in R if g.coeffs[mu - 1]
    )
    delta = rs.check_root(Root(coeffs) - rs.simple_roots[nu - 1])
    assert delta.support() - {mu} <= I
    assert rs.pairing(delta, rs.simple_roots[nu - 1]) < 0
    return nu, delta


# ---------------------------------------------------------------------------
# Levi components (sub-diagram classification)


class LeviComponent(NamedTuple):
    """One connected component of a sub-diagram, identified as a standard type.

    ``index_map[k-1]`` is the ambient simple index realising the component's
    own simple root k (Bourbaki numbering of ``rtype``).
    """

    rtype: RootSystemType
    index_map: Tuple[int, ...]

    @property
    def system(self) -> RootSystem:
        return build_root_system(self.rtype)

    def embed(self, local: Root, ambient_rank: int) -> Root:
        coeffs = [0] * ambient_rank
        for k, c in enumerate(local.coeffs):
            coeffs[self.index_map[k] - 1] = c
        return Root(tuple(coeffs))


def _embedding(
    sub: List[List[int]], cartan: Tuple[Tuple[int, ...], ...], perm: Tuple[int, ...]
) -> Optional[Tuple[int, ...]]:
    """The lexicographically least extension of `perm` (perm[k] = the row of
    `sub` realising index k+1 of `cartan`) under which `sub` equals `cartan`,
    or None.  Depth first, each row tried in increasing order; a prefix that
    already breaks an entry is dropped."""
    k = len(perm)
    if k == len(sub):
        return perm
    for j in range(len(sub)):
        if j not in perm and all(
            sub[j][i] == cartan[k][a] and sub[i][j] == cartan[a][k] for a, i in enumerate(perm)
        ):
            found = _embedding(sub, cartan, perm + (j,))
            if found is not None:
                return found
    return None


def levi_components(rs: RootSystem, subset: Iterable[int]) -> Tuple[LeviComponent, ...]:
    """Split a set of simple indices into connected components and classify
    each induced sub-diagram as a standard irreducible type."""
    return _levi_components(rs, check_levi(rs, subset))


@lru_cache(maxsize=None)
def _levi_components(rs: RootSystem, S: FrozenSet[int]) -> Tuple[LeviComponent, ...]:
    """levi_components of a subset S that its caller has checked."""
    comps: List[List[int]] = []
    for g in reversed(_connected_sets(rs)):  # a component comes before its subsets
        if g.support() <= S:
            comps.append(sorted(g.support()))
            S -= g.support()
    comps.sort()

    out: List[LeviComponent] = []
    for nodes in comps:
        r = len(nodes)
        sub = [[rs.cartan[a - 1][b - 1] for b in nodes] for a in nodes]
        for cand in (RootSystemType(s, r) for s in SERIES if _RANK_OK[s](r)):
            perm = _embedding(sub, build_root_system(cand).cartan, ())
            if perm is not None:
                out.append(LeviComponent(cand, tuple(nodes[j] for j in perm)))
                break
        else:
            raise InvalidRootSystem(f"unclassifiable sub-diagram {nodes} of {rs.rtype}")
    return tuple(out)
