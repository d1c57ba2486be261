"""Geometric invariants of the homogeneous space attached to a scheme.

The anticanonical character is chi = sum of p^phi(gamma) * gamma over the
positive roots off the Levi; the space is Fano exactly when chi pairs
strictly positively with every simple root off the Levi.  Heights enter
through p^phi, so all character arithmetic uses exact (unbounded) integers.

By bilinearity each pairing (chi, alpha_a) is a dot product: the weights
p^phi(gamma), 0 on the Levi roots, against the column of (gamma, alpha_a)
over the positive roots.  The columns are cached per root system; the
powers are computed per row, not cached per prime, so geometry keeps no state
that grows with the heights, and the Fano test and the certificate never
build chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .errors import ExoticBlocksPresent, InvalidScheme, NoSmoothContraction
from .phi import (
    INFINITE,
    KernelKind,
    KernelRecord,
    ParabolicScheme,
    _block_of,
    _generated_blocks,
    _levi_split,
    _meet,
    is_normalized,
    normalize,
    reduced_scheme,
)
from .rootsys import (
    Root,
    RootSystem,
    RootSystemType,
    _incidence_root,
    check_levi,
    levi_components,
    very_special_dual,
)


class Character(NamedTuple):
    """Weight in the root lattice, exact integer coefficients over the
    simple roots."""

    coeffs: Tuple[int, ...]

    def __str__(self) -> str:
        return str(Root(self.coeffs))


def _check_character(rs: RootSystem, lam: Character) -> Character:
    """lam itself if its coeffs are rs.rank ints (bools excluded), as the pairing needs."""
    c = getattr(lam, "coeffs", None)
    n = len(c) if isinstance(c, tuple) else "no"
    if n != rs.rank or not all(isinstance(x, int) and not isinstance(x, bool) for x in c):
        raise InvalidScheme(f"character {lam!r} has {n} coefficient(s) where the rank of "
                            f"{rs.rtype} asks for {rs.rank} integers")
    return lam


def character_pairing(rs: RootSystem, lam: Character, gamma: Root) -> int:
    return rs.pairing(_check_character(rs, lam), rs.check_root(gamma))  # reads only .coeffs


def dimension(P: ParabolicScheme) -> int:
    """Dimension of the homogeneous space: positive roots off the Levi."""
    return len(P.domain)


def picard_rank(P: ParabolicScheme) -> int:
    return P.rs.rank - len(P.levi)


@lru_cache(maxsize=None)
def _columns(rs: RootSystem) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per simple root alpha_a, over the positive roots gamma in index order:
    the pairings (gamma, alpha_a), and the coefficients of alpha_a."""
    pairings = (tuple(rs.pairing(g, alpha) for g in rs.positive_roots) for alpha in rs.simple_roots)
    return tuple(pairings), tuple(zip(*(g.coeffs for g in rs.positive_roots)))


def _weights(P: ParabolicScheme) -> Tuple[int, ...]:
    """p**phi(gamma) per positive root, 0 on the Levi roots (INFINITE)."""
    p = P.p
    return tuple([0 if v is INFINITE else p ** v for v in P.heights])


def anticanonical_character(P: ParabolicScheme) -> Character:
    w = _weights(P)
    return Character(tuple(sum(map(mul, w, col)) for col in _columns(P.rs)[1]))


def is_ample(rs: RootSystem, levi: FrozenSet[int], lam: Character) -> bool:
    """Strict positivity of (lam, alpha) over the simple roots off the Levi."""
    levi, lam = check_levi(rs, levi), _check_character(rs, lam)
    return all(
        rs.pairing(lam, rs.simple_roots[a - 1]) > 0
        for a in range(1, rs.rank + 1)
        if a not in levi
    )


def is_fano(P: ParabolicScheme) -> bool:
    """is_ample(rs, levi, anticanonical_character(P)), one dot product per node."""
    cols = _columns(P.rs)[0]
    return _is_fano([cols[a - 1] for a, _ in _levi_split(P.rs, P.levi)[2]], _weights(P))


def _is_fano(cols: Iterable[Tuple[int, ...]], w: Tuple[int, ...]) -> bool:
    """is_fano(P), given the pairing columns of the nodes off P's Levi and P's weights w."""
    return all(sum(map(mul, w, col)) > 0 for col in cols)


# ---------------------------------------------------------------------------
# Smooth contractions


def smooth_contraction_roots(P: ParabolicScheme) -> FrozenSet[int]:
    """Simple roots whose generated block is the reduced Standard(0), i.e.
    whose contraction has smooth total space.  Meaningful on normalized
    schemes."""
    return frozenset(a for a, c in _generated_blocks(P).items() if not c)  # code 0: Standard(0)


def _require_quasi_standard(blocks: Dict[int, int]) -> None:
    exotic = [str(_block_of(a, c)) for a, c in blocks.items() if c & 2]
    if exotic:
        raise ExoticBlocksPresent(f"exotic generated blocks {exotic}")


def _require_normalized(P: ParabolicScheme) -> None:
    if not is_normalized(P):
        raise InvalidScheme("operation requires a normalized scheme (no contained kernel)")


class SmoothPart(NamedTuple):
    """Minimal reduced parabolic containing P, with the complementary
    thickened part as decomposition witness."""

    reduced: ParabolicScheme
    complement: ParabolicScheme
    complement_kernels: Tuple[KernelRecord, ...]
    complement_normalized: ParabolicScheme


def p_sm(P: ParabolicScheme) -> SmoothPart:
    """Reduced scheme over the non-smooth Levi plus the decomposition witness.

    Requires a normalized quasi-standard scheme.  The witness satisfies
    P = reduced  intersect  complement, with the complement carrying every
    contained kernel of the non-smooth blocks.
    """
    _require_normalized(P)
    blocks = _generated_blocks(P)
    _require_quasi_standard(blocks)
    rough = {a: c for a, c in blocks.items() if c}  # the blocks other than Standard(0)
    red = reduced_scheme(P.rs, P.p, P.levi.union(rough))
    complement = _meet(P.rs, P.p, rough)
    norm = normalize(complement)
    return SmoothPart(
        reduced=red,
        complement=complement,
        complement_kernels=norm.stripped,
        complement_normalized=norm.scheme,
    )


# ---------------------------------------------------------------------------
# Fibration sequences


class FiberFactor(NamedTuple):
    """One irreducible factor of a fiber; labels trace each of its simple
    roots back to the node of the original diagram it came from."""

    scheme: ParabolicScheme
    labels: Tuple[int, ...]


class FibrationStep(NamedTuple):
    """One locally trivial contraction: base of Picard rank one, fiber
    product, kernels stripped while normalising the fiber."""

    target_type: RootSystemType
    target_alpha: int
    base_dimension: int
    fiber: Tuple[FiberFactor, ...]
    stripped: Tuple[KernelRecord, ...]


def _restrict_factors(
    P: ParabolicScheme, subset: FrozenSet[int], labels: Tuple[int, ...]
) -> List[FiberFactor]:
    """Restrict a scheme to the Levi sub-diagram on `subset`, one factor per
    connected component, dropping components entirely inside the Levi."""
    comps = levi_components(P.rs, subset)
    out: List[FiberFactor] = []
    for comp in comps:
        if set(comp.index_map) <= P.levi:
            continue
        sub = comp.system
        sub_levi = frozenset(
            k for k in range(1, sub.rank + 1) if comp.index_map[k - 1] in P.levi
        )
        phi = {g: P.finite_height(comp.embed(g, P.rs.rank)) for g in _levi_split(sub, sub_levi)[0]}
        out.append(
            FiberFactor(
                ParabolicScheme(sub, P.p, sub_levi, phi),
                tuple(labels[i - 1] for i in comp.index_map),
            )
        )
    return out


def _relabel_after_dual(
    rs: RootSystem, labels: Tuple[int, ...], records: Tuple[KernelRecord, ...]
) -> Tuple[int, ...]:
    """Trace original labels through very-special strips (simple relabelling)."""
    for rec in records:
        if rec.kind is KernelKind.VERY_SPECIAL_KERNEL:
            dual, bij = very_special_dual(rs)
            new = [0] * len(labels)
            for i in range(1, len(labels) + 1):
                new[bij.simple_map[i - 1] - 1] = labels[i - 1]
            labels = tuple(new)
            rs = dual
    return labels


def _normalize_factor(factor: FiberFactor) -> Tuple[FiberFactor, Tuple[KernelRecord, ...]]:
    res = normalize(factor.scheme)
    labels = _relabel_after_dual(factor.scheme.rs, factor.labels, res.stripped)
    return FiberFactor(res.scheme, labels), res.stripped


def fibration_sequence(P: ParabolicScheme) -> List[FibrationStep]:
    """Decompose the space as iterated locally trivial fibrations over bases
    of Picard rank one.

    Runs for picard_rank rounds; each round contracts the smallest available
    smooth node, restricts to the complementary sub-diagram, and normalizes
    the fiber factors.  The input is normalized up front (the underlying
    variety is unchanged; recover those kernels with normalize directly).
    Raises NoSmoothContraction when every remaining factor has only
    non-reduced contractions (the exotic G2 families).
    """
    if picard_rank(P) < 1:
        raise InvalidScheme("fibration sequence needs Picard rank at least 1")
    state, _ = _normalize_factor(
        FiberFactor(P, tuple(range(1, P.rs.rank + 1)))
    )
    factors: List[FiberFactor] = [state]
    steps: List[FibrationStep] = []
    while factors:
        pick = min(((f.labels[a - 1], idx, a) for idx, f in enumerate(factors)  # labels distinct
                    for a in smooth_contraction_roots(f.scheme)), default=None)
        if pick is None:
            raise NoSmoothContraction(
                "no reduced stabiliser among the remaining contractions"
            )
        lab, idx, a = pick  # the original label, the factor's index, the node in the factor
        chosen = factors.pop(idx)
        frs = chosen.scheme.rs
        subset = frozenset(range(1, frs.rank + 1)) - {a}
        stripped: List[KernelRecord] = []
        for raw in _restrict_factors(chosen.scheme, subset, chosen.labels):
            norm, recs = _normalize_factor(raw)
            stripped.extend(recs)
            factors.append(norm)
        factors.sort(key=lambda f: min(f.labels))
        steps.append(
            FibrationStep(
                target_type=frs.rtype,
                target_alpha=lab,
                base_dimension=len(_levi_split(frs, frozenset())[2][a - 1][1]),  # a's window
                fiber=tuple(factors),
                stripped=tuple(stripped),
            )
        )
    return steps


# ---------------------------------------------------------------------------
# Fano finiteness machinery


@lru_cache(maxsize=None)
def incidence_threshold(rs: RootSystem) -> Fraction:
    """The exact rational threshold H gating the incidence certificate,
    computed once per root system.

    Numerator: max over simple alpha of the sum of |(gamma, alpha)| over
    positive roots supported at alpha.  Denominator: min of |(gamma, alpha)|
    over positive gamma and simple alpha pairing strictly negatively.  In
    rank one no negative pair exists; the convention H = |Phi+| + 1 is
    returned, and the certificate machinery is gated separately to Picard
    rank at least two.
    """
    pairings, coeffs = _columns(rs)
    num = max(sum(abs(v) for v, c in zip(*cols) if c) for cols in zip(pairings, coeffs))
    negs = [-v for col in pairings for v in col if v < 0]
    if not negs:
        return Fraction(len(rs.positive_roots) + 1)
    return Fraction(num, min(negs))


@dataclass(frozen=True)
class NotFanoCertificate:
    """Witness that the anticanonical character fails ampleness: a simple
    root beta_l on the lightly-thickened side and an incidence root delta
    avoiding that side with (delta, beta_l) < 0."""

    beta_l: int
    delta: Root
    threshold: Fraction
    pairing_value: int

    def __post_init__(self) -> None:
        if self.pairing_value >= 0:
            raise InvalidScheme("certificate pairing must be negative")


def not_fano_certificate(P: ParabolicScheme) -> Optional[NotFanoCertificate]:
    """Incidence certificate for a normalized quasi-standard scheme of Picard
    rank at least two; None when no kernel gap exceeds the threshold.

    The generated blocks are cut in chain order; the gap of a cut is the
    least m after it minus the greatest top before it, and the first cut with
    p**gap > H gives the left side of the incidence root.  Along the chain
    neither m nor top decreases, so these are the m just after the cut and
    the top just before it."""
    _require_normalized(P)
    if picard_rank(P) < 2:
        raise InvalidScheme("certificate machinery needs Picard rank >= 2")
    blocks = _generated_blocks(P)
    _require_quasi_standard(blocks)
    return _certificate(P, [(c, a) for a, c in blocks.items()], _weights(P), _least_gap(P.rs, P.p))


def _least_gap(rs: RootSystem, p: int) -> int:
    """g*, the least gap g >= 1 with p**g > H = num/den, on integers (g = num passes)."""
    num, den = incidence_threshold(rs).as_integer_ratio()
    return next(g for g in range(1, num + 1) if p ** g * den > num)


def _certificate(
    P: ParabolicScheme, chain: Iterable[Tuple[int, int]], w: Tuple[int, ...], g: int
) -> Optional[NotFanoCertificate]:
    """The body of not_fano_certificate, given the (_chain_code, node) pairs of
    P's generated blocks, P's weights w and g* = _least_gap(P.rs, P.p), for a P
    its caller has checked to be normalized and of Picard rank at least two; None
    if a code has the exotic bit.  Sorted, the pairs are the chain; m = code >> 3,
    top = code + 4 >> 3.  A cut passes when p**gap > H, that is when gap >= g*."""
    chain = sorted(chain)
    for i in range(1, len(chain)):
        if (chain[i][0] >> 3) - (chain[i - 1][0] + 4 >> 3) >= g:
            if any(c & 2 for c, _ in chain):  # read only where a cut passes
                return None
            l, delta = _incidence_root(P.rs, P.levi, frozenset(a for _, a in chain[:i]))
            pairing = sum(map(mul, w, _columns(P.rs)[0][l - 1]))
            return NotFanoCertificate(l, delta, incidence_threshold(P.rs), pairing)
    return None
