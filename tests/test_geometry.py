import gc
import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import parabolics
from parabolics import (
    CensusQuery,
    Character,
    Root,
    RootSystemType,
    anticanonical_character,
    block_phi,
    character_pairing,
    dimension,
    exotic_h_block,
    exotic_l_block,
    fano_census,
    fibration_sequence,
    frobenius_pullback,
    full_group_scheme,
    incidence_threshold,
    intersect,
    is_ample,
    is_fano,
    normalize,
    not_fano_certificate,
    p_sm,
    picard_rank,
    rank_one_catalog,
    reduced_scheme,
    root_system,
    smooth_contraction_roots,
    standard_block,
    very_special_block,
)
from parabolics.errors import ExoticBlocksPresent, InvalidScheme, NoSmoothContraction

A2 = root_system("A2")
B2 = root_system("B2")
B3 = root_system("B3")
C2 = root_system("C2")
G2 = root_system("G2")


def two_blocks(rs, p, b1, b2):
    return intersect(block_phi(rs, p, b1), block_phi(rs, p, b2))


def chi_oracle(P):
    # independent evaluation of the anticanonical pairing: raw sums
    def against(beta):
        return sum((P.p ** v) * P.rs.pairing(g, beta) for g, v in P.phi_items())
    return against


# ---------------------------------------------------------------------------
# dimensions and ranks


def test_dimension():
    assert dimension(reduced_scheme(G2, 2)) == 6
    assert dimension(reduced_scheme(B2, 2, {2})) == 3
    assert dimension(reduced_scheme(A2, 2)) == 3
    assert dimension(full_group_scheme(G2, 2)) == 0


def test_picard_rank():
    assert picard_rank(reduced_scheme(G2, 2)) == 2
    assert picard_rank(full_group_scheme(G2, 2)) == 0
    assert picard_rank(reduced_scheme(root_system("F4"), 2, {2, 3})) == 2


# ---------------------------------------------------------------------------
# anticanonical character


def test_chi_standard_g2_family():
    for m in range(1, 6):
        P = two_blocks(G2, 2, standard_block(1, m), standard_block(2, 0))
        chi = anticanonical_character(P)
        assert chi.coeffs == (2 ** m + 9, 6)
        assert character_pairing(G2, chi, G2.simple_roots[1]) == 9 - 3 * 2 ** m


def test_chi_exotic_g2_family():
    for m in range(1, 6):
        P = two_blocks(G2, 2, exotic_h_block(0), standard_block(2, m))
        chi = anticanonical_character(P)
        assert chi.coeffs == (12, 2 ** m + 6)
        assert character_pairing(G2, chi, G2.simple_roots[0]) == 6 - 3 * 2 ** m


def test_chi_reduced_is_sum_of_positive_roots():
    for rs in (A2, B2, G2):
        chi = anticanonical_character(reduced_scheme(rs, 2))
        total = [0] * rs.rank
        for g in rs.positive_roots:
            for i, c in enumerate(g.coeffs):
                total[i] += c
        assert chi.coeffs == tuple(total)


def test_chi_uses_exact_big_integers():
    P = two_blocks(A2, 2, standard_block(1, 200), standard_block(2, 0))
    chi = anticanonical_character(P)
    assert chi.coeffs[0] == 2 ** 200 + 1


def test_geometry_keeps_no_state_per_height():
    # the weights p**v are computed per row: a Fano test or a character at
    # new heights leaves nothing behind once its results are dropped.  Only
    # blocks allocated in the package count: gc callbacks that other test
    # modules install (hypothesis times each collection) allocate too.
    schemes = [frobenius_pullback(reduced_scheme(A2, 2), h) for h in range(5000, 5100)]
    is_fano(reduced_scheme(A2, 2)), anticanonical_character(reduced_scheme(A2, 2))
    gc.collect()
    tracemalloc.start()
    try:
        for P in schemes:
            is_fano(P), anticanonical_character(P)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = tracemalloc.Filter(True, str(Path(parabolics.__file__).parent / "*"))
    assert sum(t.size for t in snapshot.filter_traces([package]).traces) == 0


# ---------------------------------------------------------------------------
# ampleness and Fano


def test_is_ample_examples():
    assert is_ample(G2, frozenset(), anticanonical_character(reduced_scheme(G2, 2)))
    lam = Character((2 ** 2 + 9, 6))
    assert character_pairing(G2, lam, G2.simple_roots[1]) == -3
    assert not is_ample(G2, frozenset(), lam)
    lam_boundary = Character((3 + 1, 2))
    assert character_pairing(A2, lam_boundary, A2.simple_roots[1]) == 0
    assert not is_ample(A2, frozenset(), lam_boundary)


def test_is_fano_a2_family():
    for p in (2, 3):
        for m in range(5):
            P = two_blocks(A2, p, standard_block(1, m), standard_block(2, 0))
            oracle = chi_oracle(P)
            assert oracle(A2.simple_roots[1]) == 3 - p ** m
            assert is_fano(P) == (p ** m < 3)
    assert is_fano(reduced_scheme(B3, 2, {1, 3}))


def test_is_fano_invariant_under_frobenius_strip():
    for m in (1, 2, 3):
        P = frobenius_pullback(two_blocks(G2, 2, standard_block(1, m),
                                          standard_block(2, 0)), 2)
        res = normalize(P)
        assert all(k.kind.value == "frobenius" for k in res.stripped)
        assert is_fano(P) == is_fano(res.scheme)


def test_is_fano_under_very_special_strip_empirical():
    # not a theorem here: recorded as an empirical regression over the full
    # B2/C2 censuses at M = 4 (56 schemes carry a very special kernel)
    from parabolics import CensusQuery, enumerate_parabolics
    from parabolics.phi import KernelKind

    checked = 0
    for label in ("B2", "C2"):
        rt = RootSystemType.parse(label)
        for I in [(), (1,), (2,)]:
            q = CensusQuery(rt, 2, frozenset(I), 4)
            for P in enumerate_parabolics(q):
                res = normalize(P)
                if any(k.kind is KernelKind.VERY_SPECIAL_KERNEL
                       for k in res.stripped):
                    checked += 1
                    assert is_fano(P) == is_fano(res.scheme)
    assert checked == 56


# ---------------------------------------------------------------------------
# smooth contractions and the minimal reduced overgroup


def test_smooth_contraction_roots_examples():
    P = two_blocks(G2, 2, standard_block(1, 0), standard_block(2, 2))
    assert smooth_contraction_roots(P) == {1}
    Q = two_blocks(G2, 2, exotic_h_block(0), standard_block(2, 2))
    assert smooth_contraction_roots(Q) == frozenset()
    assert smooth_contraction_roots(reduced_scheme(B3, 2, {2})) == {1, 3}


def test_p_sm_examples():
    P = two_blocks(G2, 2, standard_block(1, 0), standard_block(2, 2))
    sm = p_sm(P)
    assert sm.reduced == reduced_scheme(G2, 2, {2})
    assert intersect(sm.reduced, sm.complement) == P
    assert [k.m for k in sm.complement_kernels] == [2]

    B = two_blocks(B2, 2, standard_block(1, 0), standard_block(2, 2))
    assert p_sm(B).reduced == reduced_scheme(B2, 2, {2})

    R = reduced_scheme(B2, 2, {1})
    smr = p_sm(R)
    assert smr.reduced == R
    assert smr.complement == full_group_scheme(B2, 2)


def test_p_sm_rejects_exotic_and_unnormalized():
    Q = two_blocks(G2, 2, exotic_h_block(0), standard_block(2, 2))
    with pytest.raises(ExoticBlocksPresent):
        p_sm(Q)
    fat = frobenius_pullback(reduced_scheme(B2, 2), 1)
    with pytest.raises(InvalidScheme):
        p_sm(fat)


# ---------------------------------------------------------------------------
# fibrations


def test_fibration_g2_standard():
    P = two_blocks(G2, 2, standard_block(1, 0), standard_block(2, 3))
    steps = fibration_sequence(P)
    assert len(steps) == picard_rank(P) == 2
    first, second = steps
    assert (first.target_type, first.target_alpha) == (RootSystemType("G", 2), 1)
    assert len(first.fiber) == 1
    fiber = first.fiber[0]
    assert fiber.scheme.rs.rtype == RootSystemType("A", 1)
    assert fiber.labels == (2,)
    assert fiber.scheme == reduced_scheme(fiber.scheme.rs, 2)
    assert [(k.kind.value, k.m) for k in first.stripped] == [("frobenius", 3)]
    assert (second.target_type, second.target_alpha) == (RootSystemType("A", 1), 2)
    assert second.fiber == ()
    assert sum(s.base_dimension for s in steps) == dimension(P)


def test_fibration_reduced_full_flag():
    for rs in (B3, G2):
        P = reduced_scheme(rs, 2)
        steps = fibration_sequence(P)
        assert len(steps) == rs.rank
        assert all(not s.stripped for s in steps)
        assert sum(s.base_dimension for s in steps) == dimension(P)


def test_fibration_exotic_obstruction():
    for blk in (exotic_l_block(0), exotic_h_block(0)):
        P = two_blocks(G2, 2, blk, standard_block(2, 1))
        with pytest.raises(NoSmoothContraction):
            fibration_sequence(P)


def test_fibration_strips_very_special_kernels():
    # B3 with the thickened node first: the B2 fiber carries a very special
    # kernel and normalises onto the dual C2
    P = two_blocks(B3, 2, standard_block(1, 0), standard_block(3, 1))
    P = intersect(P, block_phi(B3, 2, very_special_block(2, 0)))
    steps = fibration_sequence(P)
    assert sum(s.base_dimension for s in steps) == dimension(P)
    assert len(steps) == 3


def test_fibration_needs_positive_rank():
    with pytest.raises(InvalidScheme):
        fibration_sequence(full_group_scheme(G2, 2))


# ---------------------------------------------------------------------------
# incidence threshold and certificates


def test_incidence_threshold_values():
    # A2 by direct evaluation: numerator 2+1, denominator 1
    assert incidence_threshold(A2) == Fraction(3)
    # rank one: no negative pair, convention |Phi+|+1
    assert incidence_threshold(root_system("A1")) == Fraction(2)
    # frozen regressions
    assert incidence_threshold(B2) == Fraction(3)
    assert incidence_threshold(G2) == Fraction(15)
    assert incidence_threshold(root_system("F4")) == Fraction(26)


def test_certificate_a2_family():
    for m in (2, 3, 4):
        P = two_blocks(A2, 2, standard_block(1, 0), standard_block(2, m))
        cert = not_fano_certificate(P)
        assert cert is not None
        assert cert.beta_l == 1
        assert cert.delta == Root.of(0, 1)
        assert cert.pairing_value == 3 - 2 ** m
        assert not is_fano(P)
    assert not_fano_certificate(
        two_blocks(A2, 2, standard_block(1, 0), standard_block(2, 1))) is None
    assert not_fano_certificate(reduced_scheme(A2, 2)) is None


def test_certificate_soundness_random_census():
    from parabolics import CensusQuery, enumerate_parabolics

    for label, p in [("B2", 2), ("B3", 2), ("G2", 3), ("A3", 2)]:
        rs = root_system(label)
        q = CensusQuery(rs.rtype, p, frozenset(), 4, normalized_only=True)
        for P in enumerate_parabolics(q):
            if picard_rank(P) < 2:
                continue
            try:
                cert = not_fano_certificate(P)
            except ExoticBlocksPresent:
                continue
            if cert is None:
                continue
            beta = P.rs.simple_roots[cert.beta_l - 1]
            assert chi_oracle(P)(beta) == cert.pairing_value < 0
            assert not is_fano(P)


def test_certificate_preconditions():
    with pytest.raises(InvalidScheme):
        not_fano_certificate(reduced_scheme(B2, 2, {2}))  # rank one
    with pytest.raises(InvalidScheme):
        not_fano_certificate(frobenius_pullback(reduced_scheme(B2, 2), 1))
    with pytest.raises(ExoticBlocksPresent):
        not_fano_certificate(two_blocks(G2, 2, exotic_h_block(0),
                                        standard_block(2, 1)))


def test_chain_order_never_lowers_m_or_top():
    # not_fano_certificate reads each cut's gap off the two blocks beside it
    for label, p in [("B3", 2), ("C3", 2), ("F4", 2), ("G2", 2), ("G2", 3), ("A3", 3)]:
        rs = root_system(label)
        blocks = [b for a in range(1, rs.rank + 1) for b in rank_one_catalog(rs, p, a, 5)]
        ordered = sorted(blocks, key=lambda b: (b.m + b.top, b.alpha))
        for lo, hi in zip(ordered, ordered[1:]):
            assert lo.m <= hi.m and lo.top <= hi.top


def test_fano_rows_match_the_character_and_raw_pairings():
    # the criterion-10 grid: every row's Fano flag is is_ample of the built
    # character, and every (chi, alpha) is a raw weighted sum over phi_items;
    # criterion 10 checks the certificate's pairing value the same way
    rows = 0
    for label in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "F4", "G2"]:
        rs = root_system(label)
        pair = {(g, a): rs.pairing(g, rs.simple_roots[a - 1])
                for g in rs.positive_roots for a in range(1, rs.rank + 1)}
        for p in (2, 3):
            for k in range(rs.rank + 1):
                for I in itertools.combinations(range(1, rs.rank + 1), k):
                    q = CensusQuery(rs.rtype, p, frozenset(I), 6, normalized_only=True)
                    for row in fano_census(q):
                        P = row.scheme
                        chi = anticanonical_character(P)
                        assert row.fano == is_ample(rs, P.levi, chi)
                        for a in range(1, rs.rank + 1):
                            raw = sum(p ** v * pair[g, a] for g, v in P.phi_items())
                            assert character_pairing(rs, chi, rs.simple_roots[a - 1]) == raw
                        rows += 1
    assert rows > 6000
