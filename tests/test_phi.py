import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parabolics import (
    INFINITE,
    BlockKind,
    CensusQuery,
    Character,
    KernelKind,
    ParabolicScheme,
    RankOneBlock,
    Root,
    RootSystemType,
    anchored_candidates,
    block_anchor_height,
    block_phi,
    character_pairing,
    contains,
    edge_hypothesis,
    enne_check,
    enumerate_parabolics,
    exotic_h_block,
    exotic_l_block,
    find_incidence_root,
    frobenius_pullback,
    full_group_scheme,
    generated_block,
    intersect,
    intersect_all,
    is_ample,
    is_normalized,
    is_valid,
    normalize,
    rank_one_catalog,
    reconstruct,
    reduced_scheme,
    root_system,
    standard_block,
    structure_constant_magnitude,
    very_special_block,
    vanishes_mod_p,
    very_special_dual,
    vsi_pullback,
    vsi_pushforward,
)
from parabolics.errors import (
    EdgeHypothesisNotSatisfied,
    InvalidRootSystem,
    InvalidScheme,
    KernelNotContained,
    MismatchedSchemes,
    NotARoot,
)
from parabolics.geometry import NotFanoCertificate, anticanonical_character
from parabolics.census import _census, _decode
from parabolics.phi import (
    _block_of,
    _canonical,
    _chain,
    _containment_bitsets,
    _enne_triples,
    _generated_blocks,
    _is_prime,
    height_ge,
    height_min,
)

A2 = root_system("A2")
B2 = root_system("B2")
C2 = root_system("C2")
G2 = root_system("G2")


def scheme(rs, p, levi, table):
    phi = {Root.of(*k): v for k, v in table.items()}
    return ParabolicScheme(rs, p, levi, phi)


def table(P):
    return {g.coeffs: v for g, v in P.phi_items()}


# ---------------------------------------------------------------------------
# scheme construction and serialisation


def test_scheme_requires_exact_domain():
    with pytest.raises(InvalidScheme):
        scheme(A2, 2, set(), {(1, 0): 0, (0, 1): 0})  # missing a1+a2
    with pytest.raises(InvalidScheme):
        scheme(A2, 2, {2}, {(1, 0): 0, (1, 1): 0, (0, 1): 0})  # a2 is a Levi root
    with pytest.raises(InvalidScheme):
        scheme(A2, 2, set(), {(1, 0): -1, (0, 1): 0, (1, 1): 0})
    phi = {(1, 0): 0, (0, 1): 0, (1, 1): 0}
    for p in (4, 561, 2 ** 64 + 13):  # 561 is a Carmichael number
        with pytest.raises(InvalidScheme):
            scheme(A2, p, set(), phi)  # p not prime, or past 2**64
    assert scheme(A2, 2 ** 61 - 1, set(), phi).p == 2 ** 61 - 1


@pytest.mark.parametrize("n,prime", [
    (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # a strong pseudoprime to every base 2..23
    (41 ** 2, False),  # n - 1 = 2**4 * 105: refused after the squarings
    (65537, True), (998244353, True), (2 ** 64 - 59, True),  # n - 1 = 2**s * d, s >= 2
])
def test_miller_rabin_refuses_strong_pseudoprimes_and_squares_for_large_s(n, prime):
    assert _is_prime(n) is prime
    if prime:
        assert CensusQuery(A2.rtype, n, frozenset(), 1).p == n
    else:
        with pytest.raises(InvalidScheme, match=f"^characteristic {n} is not prime$"):
            CensusQuery(A2.rtype, n, frozenset(), 1)


def test_height_infinite_on_levi_roots():
    P = scheme(B2, 2, {2}, {(1, 0): 1, (1, 1): 0, (1, 2): 0})
    assert P.height(Root.of(0, 1)) is INFINITE
    assert P.height(Root.of(1, 0)) == 1
    with pytest.raises(InvalidScheme):
        P.height(Root.of(-1, 0))


def test_schemes_on_one_type_compare_equal_and_across_types_mismatch():
    P = scheme(B2, 2, {1}, {(0, 1): 1, (1, 1): 0, (1, 2): 2})
    Q = ParabolicScheme.from_json_dict(json.loads(P.canonical_json()))
    assert Q.rs is root_system("b2") and Q == P and hash(Q) == hash(P)
    B, C = reduced_scheme(B2, 2), reduced_scheme(C2, 2)
    assert B.heights == C.heights and B != C  # same vector, different systems
    for op in (intersect, contains):
        with pytest.raises(MismatchedSchemes):
            op(B, C)


def test_equality_is_levi_and_phi():
    P = scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 0, (1, 1): 0})
    Q = scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 0, (1, 1): 0})
    R = scheme(A2, 2, set(), {(1, 0): 0, (0, 1): 1, (1, 1): 0})
    assert P == Q and hash(P) == hash(Q)
    assert P != R
    assert P != scheme(A2, 3, set(), {(1, 0): 1, (0, 1): 0, (1, 1): 0})


def test_json_round_trip_byte_stable():
    P = scheme(G2, 2, {2}, {(1, 0): 2, (1, 1): 1, (2, 1): 0, (3, 1): 0, (3, 2): 4})
    blob = P.canonical_json()
    Q = ParabolicScheme.from_json_dict(json.loads(blob))
    assert Q == P
    assert Q.canonical_json() == blob


def test_from_json_rejects_garbage():
    garbage = [
        {"type": "A2", "prime": 2},
        # no coercion: every number must be a JSON integer
        {"type": "A2", "prime": 2, "levi": [], "phi": {"[1,0]": 1.7, "[0,1]": 0, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": [], "phi": {"[1,0]": True, "[0,1]": 0, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": [], "phi": {"[1,0]": "3", "[0,1]": 0, "[1,1]": 0}},
        {"type": "A2", "prime": "2", "levi": [], "phi": {"[1,0]": 1, "[0,1]": 0, "[1,1]": 0}},
        {"type": "A2", "prime": 2.0, "levi": [], "phi": {"[1,0]": 1, "[0,1]": 0, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": ["2"], "phi": {"[1,0]": 1, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": [2.0], "phi": {"[1,0]": 1, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": [True], "phi": {"[0,1]": 1, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": [], "phi": {"[1.0,0]": 1, "[0,1]": 0, "[1,1]": 0}},
        {"type": "A2", "prime": 2, "levi": [], "phi": [1, 0, 0]},
    ]
    for data in garbage:
        with pytest.raises(InvalidScheme):
            ParabolicScheme.from_json_dict(data)


def test_from_json_refuses_two_keys_for_one_root():
    # "[1,0]" and "[1, 0]" both spell a1; neither height may silently win
    data = {"type": "A2", "prime": 2, "levi": [],
            "phi": {"[1,0]": 1, "[1, 0]": 0, "[0,1]": 0, "[1,1]": 0}}
    with pytest.raises(InvalidScheme, match="phi gives a1 two heights"):
        ParabolicScheme.from_json_dict(data)


@pytest.mark.parametrize("levi", [[1.9], [1.0], [True], [1, True], ["1"]])
def test_levi_entries_are_never_coerced(levi):
    # int() would make each of these the Levi {1}, which the phi below fits
    phi = {Root.of(0, 1): 0, Root.of(1, 1): 0, Root.of(1, 2): 0}
    with pytest.raises(InvalidScheme):
        ParabolicScheme(B2, 2, levi, phi)
    with pytest.raises(InvalidScheme):
        reduced_scheme(B2, 2, levi)
    with pytest.raises(InvalidScheme):
        find_incidence_root(root_system("B3"), (), levi)
    assert reduced_scheme(B2, 2, [1]).levi == {1}


# ---------------------------------------------------------------------------
# block tables


def test_standard_block_is_flat():
    P = block_phi(B2, 3, standard_block(1, 2))
    assert table(P) == {(1, 0): 2, (1, 1): 2, (1, 2): 2}
    assert sorted(P.levi) == [2]


def test_very_special_block_b2():
    P = block_phi(B2, 2, very_special_block(2, 0))
    assert table(P) == {(0, 1): 1, (1, 1): 1, (1, 2): 0}


def test_very_special_block_needs_edge():
    with pytest.raises(EdgeHypothesisNotSatisfied):
        block_phi(B2, 3, very_special_block(1, 0))
    # the same block is valid at p=3 first, so a check cached with its
    # table would let the p=2 call through
    block_phi(G2, 3, very_special_block(1, 0))  # edge multiplicity 3
    with pytest.raises(EdgeHypothesisNotSatisfied):
        block_phi(G2, 2, very_special_block(1, 0))


def test_exotic_block_tables():
    L = block_phi(G2, 2, exotic_l_block(0))
    assert table(L) == {(1, 0): 1, (1, 1): 1, (2, 1): 0, (3, 1): 0, (3, 2): 0}
    H = block_phi(G2, 2, exotic_h_block(1))
    assert table(H) == {(1, 0): 1, (1, 1): 1, (2, 1): 2, (3, 1): 1, (3, 2): 1}


def test_exotic_blocks_only_g2_char2_short_node():
    with pytest.raises(InvalidScheme):
        block_phi(G2, 3, exotic_h_block(0))
    with pytest.raises(InvalidScheme):
        block_phi(B2, 2, exotic_l_block(0))


def test_block_anchor_height_matches_table():
    cases = [(B2, 2, 1), (B2, 2, 2), (G2, 3, 1), (G2, 3, 2), (G2, 2, 1)]
    for rs, p, a in cases:
        for b in rank_one_catalog(rs, p, a, 3):
            B = block_phi(rs, p, b)
            assert B.height(rs.simple_roots[a - 1]) == block_anchor_height(rs, b)


def test_frobenius_pullback_shifts_blocks():
    assert frobenius_pullback(block_phi(G2, 2, exotic_l_block(0)), 2) == \
        block_phi(G2, 2, exotic_l_block(2))
    assert frobenius_pullback(block_phi(B2, 2, standard_block(1, 1)), 3) == \
        block_phi(B2, 2, standard_block(1, 4))
    P = scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 0, (1, 1): 0})
    assert frobenius_pullback(P, 0) == P


# ---------------------------------------------------------------------------
# intersection and containment


def test_intersect_example_b2():
    P = intersect(block_phi(B2, 2, standard_block(1, 1)),
                  block_phi(B2, 2, standard_block(2, 0)))
    assert table(P) == {(1, 0): 1, (0, 1): 0, (1, 1): 0, (1, 2): 0}


def test_intersect_exotic_h_with_standard():
    P = intersect(block_phi(G2, 2, exotic_h_block(0)),
                  block_phi(G2, 2, standard_block(2, 3)))
    assert table(P) == {(1, 0): 0, (0, 1): 3, (1, 1): 0, (2, 1): 1,
                        (3, 1): 0, (3, 2): 0}


def test_intersect_idempotent_and_mismatched():
    P = block_phi(B2, 2, standard_block(1, 1))
    assert intersect(P, P) == P
    with pytest.raises(MismatchedSchemes):
        intersect(P, block_phi(C2, 2, standard_block(1, 1)))
    with pytest.raises(MismatchedSchemes):
        intersect(P, block_phi(B2, 3, standard_block(1, 1)))


def test_contains_chain_of_kernels():
    # Standard(m) < VerySpecial(m) < Standard(m+1) at a fixed anchor
    for alpha in (1, 2):
        for m in range(3):
            st_m = block_phi(B2, 2, standard_block(alpha, m))
            vs_m = block_phi(B2, 2, very_special_block(alpha, m))
            st_m1 = block_phi(B2, 2, standard_block(alpha, m + 1))
            assert contains(vs_m, st_m) and not contains(st_m, vs_m)
            assert contains(st_m1, vs_m) and not contains(vs_m, st_m1)


def test_exotics_incomparable():
    H = block_phi(G2, 2, exotic_h_block(0))
    L = block_phi(G2, 2, exotic_l_block(0))
    assert not contains(H, L)
    assert not contains(L, H)
    assert contains(H, H)


def test_contains_respects_levi():
    borel = reduced_scheme(B2, 2)
    pa1 = reduced_scheme(B2, 2, {2})
    assert contains(pa1, borel)
    assert not contains(borel, pa1)
    G = full_group_scheme(B2, 2)
    assert contains(G, pa1) and contains(G, borel)


def _schemes_over_every_levi(label, p, max_height):
    """The census schemes of every Levi subset together, so Levis mix."""
    rs = root_system(label)
    nodes = range(1, rs.rank + 1)
    return [
        P
        for r in range(rs.rank + 1)
        for levi in itertools.combinations(nodes, r)
        for P in enumerate_parabolics(CensusQuery(rs.rtype, p, frozenset(levi), max_height))
    ]


MIXED_LEVI_GRID = [(label, p) for label in ("B2", "G2", "C3") for p in (2, 3)]


@pytest.mark.parametrize("label,p", MIXED_LEVI_GRID)
def test_contains_matches_explicit_levi_test(label, p):
    # a Levi simple root has height INFINITE, so the heights decide Levi containment
    schemes = _schemes_over_every_levi(label, p, 2)
    for P, Q in itertools.product(schemes, repeat=2):
        explicit = P.levi >= Q.levi and all(map(height_ge, P.heights, Q.heights))
        assert contains(P, Q) == explicit


@pytest.mark.parametrize("label,p", MIXED_LEVI_GRID)
def test_containment_bitsets_match_pairwise_contains(label, p):
    # the bitsets of each census, built from its carried chain codes, on every
    # Levi subset and in both modes; G2 at p=2 holds the exotic ties up to M = 4
    rs = root_system(label)
    nodes = range(1, rs.rank + 1)
    bounds = range(5) if (label, p) == ("G2", 2) else range(3)
    exotic = 0
    for r, M, normalized in itertools.product(range(rs.rank + 1), bounds, (False, True)):
        for levi in itertools.combinations(nodes, r):
            query = CensusQuery(rs.rtype, p, frozenset(levi), M, normalized)
            keys, codes, k = _census(query)
            schemes = _decode(query, keys, k)
            up = _containment_bitsets(codes)
            for i, Q in enumerate(schemes):
                assert up[i] == sum(1 << j for j, P in enumerate(schemes)
                                    if j != i and contains(P, Q))
            exotic += sum(1 for t in codes for c in t if c & 2)
    assert exotic or (label, p) != ("G2", 2)


def test_intersect_is_the_meet():
    blocks = [block_phi(G2, 2, b) for b in rank_one_catalog(G2, 2, 1, 2)]
    blocks += [block_phi(G2, 2, b) for b in rank_one_catalog(G2, 2, 2, 2)]
    for P, Q in itertools.combinations(blocks, 2):
        M = intersect(P, Q)
        assert contains(P, M) and contains(Q, M)
        for R in blocks[:6]:
            if contains(P, R) and contains(Q, R):
                assert contains(M, R)


# ---------------------------------------------------------------------------
# generated blocks, reconstruction, validity


def test_generated_block_qforstandard_b2():
    for m in (1, 2, 3):
        P = intersect(block_phi(B2, 2, standard_block(1, 0)),
                      block_phi(B2, 2, standard_block(2, m)))
        assert generated_block(P, 2) == very_special_block(2, m - 1)
        assert generated_block(P, 1) == standard_block(1, 0)


def test_generated_block_qforstandard_c2():
    for m in (1, 2):
        P = intersect(block_phi(C2, 2, standard_block(1, 0)),
                      block_phi(C2, 2, standard_block(2, m)))
        assert generated_block(P, 2) == standard_block(2, m)


def test_generated_block_exotic_l():
    for m in (1, 2):
        P = intersect(block_phi(G2, 2, standard_block(2, 0)),
                      block_phi(G2, 2, standard_block(1, m)))
        assert generated_block(P, 1) == exotic_l_block(m - 1)


def test_generated_block_anchor_height():
    # the generated block agrees with the scheme on its anchor root
    P = intersect(block_phi(G2, 2, exotic_h_block(1)),
                  block_phi(G2, 2, standard_block(2, 2)))
    for a in (1, 2):
        B = block_phi(G2, 2, generated_block(P, a))
        alpha = G2.simple_roots[a - 1]
        assert B.height(alpha) == P.height(alpha)


def test_generated_block_requires_non_levi_node():
    P = reduced_scheme(B2, 2, {2})
    with pytest.raises(InvalidScheme):
        generated_block(P, 2)


def test_reconstruct_detects_invalid_a2():
    bad = scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 1, (1, 1): 2})
    rec = reconstruct(bad)
    assert table(rec) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert not is_valid(bad)
    assert is_valid(rec)


def test_reconstruct_fixpoint_on_blocks():
    for rs, p, blocks in [
        (B2, 2, rank_one_catalog(B2, 2, 1, 3)),
        (G2, 2, rank_one_catalog(G2, 2, 1, 3)),
        (G2, 3, rank_one_catalog(G2, 3, 2, 3)),
    ]:
        for b in blocks:
            P = block_phi(rs, p, b)
            assert reconstruct(P) == P


def test_is_valid_lets_defects_propagate(monkeypatch):
    """Only domain errors mean "invalid"; a bug must not read as a verdict."""
    import parabolics.phi

    def broken(P):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(parabolics.phi, "_is_cover", broken)
    with pytest.raises(ZeroDivisionError):
        is_valid(reduced_scheme(A2, 2))


def test_reduced_and_full_are_valid():
    assert is_valid(reduced_scheme(G2, 2))
    assert is_valid(reduced_scheme(G2, 2, {1}))
    assert is_valid(full_group_scheme(G2, 2))


# ---------------------------------------------------------------------------
# commutator inequality


def test_enne_weaker_than_validity():
    bad = scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 1, (1, 1): 2})
    assert enne_check(bad) == []
    assert not is_valid(bad)


def test_enne_violation():
    P = scheme(A2, 2, set(), {(1, 0): 2, (0, 1): 2, (1, 1): 1})
    bad = enne_check(P)
    assert bad == [(Root.of(0, 1), Root.of(1, 0), Root.of(1, 1))]


def _enne_by_double_loop(P):
    """Reference for enne_check, written from the root-system primitives."""
    rs, pos = P.rs, P.rs.positive_roots
    bad = []
    for a, gamma in enumerate(pos):
        for delta in pos[a + 1:]:
            total = gamma + delta
            if not rs.is_root(total) or rs.is_root(gamma - delta):
                continue
            if structure_constant_magnitude(rs, gamma, delta) % P.p == 0:
                continue
            if not height_ge(P.height(total), height_min(P.height(gamma), P.height(delta))):
                bad.append((gamma, delta, total))
    return sorted(bad, key=lambda t: (t[0].coeffs, t[1].coeffs))


def test_enne_matches_double_loop_on_random_schemes():
    rng = random.Random(3)
    violations = 0
    for label in ("B3", "F4", "G2", "E6"):
        rs = root_system(label)
        for p in (2, 3, 5):
            for _ in range(6):
                levi = set(rng.sample(range(1, rs.rank + 1), rng.randrange(rs.rank)))
                domain = reduced_scheme(rs, p, levi).domain
                P = ParabolicScheme(rs, p, levi, {g: rng.randint(0, 3) for g in domain})
                expected = _enne_by_double_loop(P)
                assert enne_check(P) == expected
                violations += len(expected)
    assert violations > 0


def _random_scheme(rng, rs, p, levi_size, top):
    levi = rng.sample(range(1, rs.rank + 1), levi_size)
    domain = reduced_scheme(rs, p, levi).domain
    return ParabolicScheme(rs, p, levi, {g: rng.randint(0, top) for g in domain})


def test_canonical_json_matches_the_dumped_dict():
    rng = random.Random(5)
    for label in ("A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "G2", "F4"):
        rs = root_system(label)
        for k in range(rs.rank + 1):
            for p in (2, 3):
                P = _random_scheme(rng, rs, p, k, 12)
                assert P.canonical_json() == _canonical(P.to_json_dict())


def _old_generated_block(P, alpha):
    # the first anchored candidate whose full block vector dominates P, else the last
    cands = anchored_candidates(P.rs, P.p, alpha, P.finite_height(P.rs.simple_roots[alpha - 1]))
    for b in cands:
        if contains(block_phi(P.rs, P.p, b), P):
            return b
    return cands[-1]


def test_generated_block_matches_the_full_vector_rule():
    rng = random.Random(7)
    fallbacks = found = 0
    for label in ("B4", "F4", "E6", "G2"):
        rs = root_system(label)
        for p in (2, 3):
            for _ in range(12):
                P = _random_scheme(rng, rs, p, rng.randrange(rs.rank), 3)
                for a in range(1, rs.rank + 1):
                    if a in P.levi:
                        continue
                    b = generated_block(P, a)
                    assert b == _old_generated_block(P, a)
                    if contains(block_phi(rs, p, b), P):
                        found += 1
                    else:
                        fallbacks += 1
    assert found and fallbacks


def _reference_blocks(P):
    """The generated block at each node off the Levi, by the full-vector rule."""
    return {a: _old_generated_block(P, a) for a in range(1, P.rs.rank + 1) if a not in P.levi}


def _random_block_meet(rng, rs, p, levi_size, top):
    levi = set(rng.sample(range(1, rs.rank + 1), levi_size))
    nodes = [a for a in range(1, rs.rank + 1) if a not in levi]
    blocks = [rng.choice(rank_one_catalog(rs, p, a, top)) for a in nodes]
    return intersect_all(rs, p, [block_phi(rs, p, b) for b in blocks])


def test_reconstruct_matches_the_public_block_reference():
    rng = random.Random(11)
    kinds, fallbacks, valid = set(), 0, 0
    for label in ("A3", "B3", "C3", "F4", "G2", "E6"):
        rs = root_system(label)
        for p in (2, 3):
            for k in range(24):
                size = rng.randrange(rs.rank + 1)  # the full Levi included
                if k % 2:
                    P = _random_block_meet(rng, rs, p, size, 3)
                    assert is_valid(P)
                else:
                    P = _random_scheme(rng, rs, p, size, 3)
                blocks = _reference_blocks(P)
                assert {a: _block_of(a, c) for a, c in _generated_blocks(P).items()} == blocks
                expected = intersect_all(rs, p, [block_phi(rs, p, b) for b in blocks.values()])
                assert reconstruct(P) == expected and reconstruct(P).levi == P.levi
                kinds.update(b.kind for b in blocks.values())
                fallbacks += sum(not contains(block_phi(rs, p, b), P) for b in blocks.values())
                valid += reconstruct(P) == P
    assert kinds == set(BlockKind)  # G2 at p=2 reaches both exotic kinds
    assert fallbacks and valid


def test_is_valid_agrees_with_the_reconstruction_fixpoint():
    """The cover test against the meet, on random vectors (mostly invalid)
    and on their reconstructions (always valid)."""
    rng = random.Random(13)
    outcomes = set()
    for label in ("A3", "B3", "C3", "F4", "G2", "E6"):
        rs = root_system(label)
        for p in (2, 3):
            for _ in range(20):
                P = _random_scheme(rng, rs, p, rng.randrange(rs.rank + 1), rng.randint(0, 3))
                R = reconstruct(P)
                for S in (P, R):
                    assert is_valid(S) == (reconstruct(S) == S)
                    outcomes.add(is_valid(S))
                assert is_valid(R)
    assert outcomes == {True, False}


def _named_validity_cases():
    F4 = root_system("F4")
    one_node = block_phi(F4, 2, very_special_block(3, 1))  # Levi {1, 2, 4}
    bumped = dict(one_node.phi_items())
    bumped[F4.positive_roots[-1]] += 1  # the highest root, long
    cases = {
        "g2-exotic-h": (block_phi(G2, 2, exotic_h_block(1)), True),
        "g2-exotic-l": (block_phi(G2, 2, exotic_l_block(0)), True),
        "g2-exotic-h-meet": (intersect(block_phi(G2, 2, exotic_h_block(2)),
                                       block_phi(G2, 2, standard_block(2, 1))), True),
        "g2-exotic-l-meet": (intersect(block_phi(G2, 2, exotic_l_block(1)),
                                       block_phi(G2, 2, standard_block(2, 3))), True),
        # no anchored candidate at a1 contains it: reconstruction falls back
        "a2-fallback": (scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 1, (1, 1): 2}), False),
        # the fallback at a1 is below it at a1+a2, where the block at a2 equals it
        "a2-fallback-covered": (scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 2, (1, 1): 2}), False),
        # both blocks contain it, neither equals it at a1+a2
        "a2-uncovered": (scheme(A2, 2, set(), {(1, 0): 1, (0, 1): 1, (1, 1): 0}), False),
        "g2-full": (full_group_scheme(G2, 2), True),
        "f4-full": (full_group_scheme(F4, 3), True),
        "f4-one-node-block": (one_node, True),
        "f4-one-node-bumped": (ParabolicScheme(F4, 2, one_node.levi, bumped), False),
        "f4-one-node-reduced": (reduced_scheme(F4, 3, {1, 2, 4}), True),
    }
    return [pytest.param(P, valid, id=name) for name, (P, valid) in cases.items()]


@pytest.mark.parametrize("P, valid", _named_validity_cases())
def test_is_valid_named_cases(P, valid):
    assert is_valid(P) is valid
    assert (reconstruct(P) == P) is valid


def _enne_triples_by_roots(rs):
    """Reference for _enne_triples in plain Root arithmetic."""
    pos = rs.positive_roots
    triples = [
        (a, b, rs.index[gamma + delta])
        for a, gamma in enumerate(pos)
        for b, delta in enumerate(pos)
        if a < b and rs.is_positive_root(gamma + delta) and not rs.is_root(gamma - delta)
    ]
    return sorted(triples, key=lambda t: (pos[t[0]].coeffs, pos[t[1]].coeffs))


@pytest.mark.parametrize("label", [
    "A1", "A2", "A3", "A5", "B2", "B3", "B5", "C3", "C4", "D4", "D5", "E6", "E7", "E8",
    "F4", "G2",
])
def test_enne_triples_match_root_arithmetic(label):
    rs = root_system(label)
    assert _enne_triples(rs) == tuple(_enne_triples_by_roots(rs))


def test_enne_empty_on_block_intersections():
    for combo in itertools.product(rank_one_catalog(G2, 2, 1, 2),
                                   rank_one_catalog(G2, 2, 2, 2)):
        P = intersect(block_phi(G2, 2, combo[0]), block_phi(G2, 2, combo[1]))
        assert enne_check(P) == []


# ---------------------------------------------------------------------------
# isogeny transport


def test_vsi_pullback_reduced_borel():
    up = vsi_pullback(reduced_scheme(B2, 2))
    assert up.rs.rtype == RootSystemType("C", 2)
    # heights 1 exactly on the images of the long roots, which are short
    dual, bij = very_special_dual(B2)
    for g in B2.positive_roots:
        expect = 1 if B2.length_class(g) == "long" else 0
        assert up.finite_height(bij.forward(g)) == expect


def test_vsi_pullback_levi_transport():
    P = reduced_scheme(B2, 2, {1})
    up = vsi_pullback(P)
    assert sorted(up.levi) == [1]
    g2p = reduced_scheme(G2, 3, {1})
    upg = vsi_pullback(g2p)
    assert sorted(upg.levi) == [2]  # G2 relabels 1 <-> 2


def test_vsi_pullback_height_identity_instance():
    # pulled-back heights on the image of a long root gain exactly one
    P = scheme(B2, 2, set(), {(1, 0): 0, (0, 1): 1, (1, 1): 2, (1, 2): 3})
    up = vsi_pullback(P)
    _, bij = very_special_dual(B2)
    assert up.finite_height(bij.forward(Root.of(1, 2))) == 3 + 1
    assert up.finite_height(bij.forward(Root.of(1, 1))) == 2


def test_vsi_round_trips():
    P = scheme(B2, 2, set(), {(1, 0): 0, (0, 1): 1, (1, 1): 2, (1, 2): 3})
    assert vsi_pullback(vsi_pullback(P)) == frobenius_pullback(P, 1)
    up = vsi_pullback(P)
    assert vsi_pushforward(up) == P
    N = scheme(B2, 2, set(), {(1, 0): 0, (0, 1): 1, (1, 1): 1, (1, 2): 0})
    assert vsi_pullback(vsi_pushforward(N)) == N


def test_vsi_pushforward_of_height_one_pattern_is_reduced():
    # short roots at 1, long at 0: push-forward is the dual reduced Borel
    N = scheme(B2, 2, set(), {(1, 0): 0, (0, 1): 1, (1, 1): 1, (1, 2): 0})
    down = vsi_pushforward(N)
    assert down == reduced_scheme(C2, 2)


def test_vsi_pushforward_requires_kernel():
    with pytest.raises(KernelNotContained):
        vsi_pushforward(reduced_scheme(B2, 2))


def test_vsi_requires_edge_hypothesis():
    with pytest.raises(EdgeHypothesisNotSatisfied):
        vsi_pullback(reduced_scheme(A2, 2))
    with pytest.raises(EdgeHypothesisNotSatisfied):
        vsi_pullback(reduced_scheme(B2, 3))
    assert edge_hypothesis(G2, 3) and not edge_hypothesis(G2, 2)


# ---------------------------------------------------------------------------
# normalisation


def test_normalize_strips_frobenius_only():
    P = scheme(B2, 2, set(), {(1, 0): 2, (0, 1): 1, (1, 1): 1, (1, 2): 1})
    res = normalize(P)
    assert table(res.scheme) == {(1, 0): 1, (0, 1): 0, (1, 1): 0, (1, 2): 0}
    assert [(k.kind, k.m) for k in res.stripped] == [(KernelKind.FROBENIUS, 1)]


def test_normalize_reduced_unchanged():
    P = reduced_scheme(B2, 2, {1})
    res = normalize(P)
    assert res.scheme == P and res.stripped == ()
    assert is_normalized(P)


def test_normalize_borel_fattening():
    P = scheme(B2, 2, set(), {(1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1})
    res = normalize(P)
    assert res.scheme == reduced_scheme(B2, 2)
    assert [(k.kind, k.m) for k in res.stripped] == [(KernelKind.FROBENIUS, 1)]


def test_normalize_strips_very_special_kernel():
    P = scheme(B2, 2, set(), {(1, 0): 1, (0, 1): 2, (1, 1): 2, (1, 2): 1})
    res = normalize(P)
    assert res.scheme == reduced_scheme(C2, 2)
    assert [(k.kind, k.m) for k in res.stripped] == \
        [(KernelKind.VERY_SPECIAL_KERNEL, 1)]
    assert is_normalized(res.scheme)


def test_normalize_result_is_normalized():
    for vals in itertools.product(range(3), repeat=4):
        P = scheme(B2, 2, set(),
                   dict(zip([(1, 0), (0, 1), (1, 1), (1, 2)], vals)))
        res = normalize(P)
        assert is_normalized(res.scheme)


def test_g2_p2_catalog_contents():
    at1 = rank_one_catalog(G2, 2, 1, 2)
    kinds = {(b.kind, b.m) for b in at1}
    assert kinds == {
        (BlockKind.STANDARD, 0), (BlockKind.STANDARD, 1), (BlockKind.STANDARD, 2),
        (BlockKind.EXOTIC_H, 0), (BlockKind.EXOTIC_H, 1),
        (BlockKind.EXOTIC_L, 0), (BlockKind.EXOTIC_L, 1),
    }
    at2 = rank_one_catalog(G2, 2, 2, 2)
    assert {(b.kind, b.m) for b in at2} == {
        (BlockKind.STANDARD, 0), (BlockKind.STANDARD, 1), (BlockKind.STANDARD, 2),
    }


#: block kinds admitted at each node (a1 first), in catalog order:
#: S Standard, V VerySpecial, H ExoticH, L ExoticL
ADMITTED_KINDS = {
    ("A2", 2): ("S", "S"), ("A2", 3): ("S", "S"), ("A2", 5): ("S", "S"),
    ("B2", 2): ("SV", "SV"), ("B2", 3): ("S", "S"), ("B2", 5): ("S", "S"),
    ("C2", 2): ("SV", "SV"), ("C2", 3): ("S", "S"), ("C2", 5): ("S", "S"),
    ("G2", 2): ("SHL", "S"), ("G2", 3): ("SV", "SV"), ("G2", 5): ("S", "S"),
    ("B3", 2): ("SV", "SV", "SV"), ("B3", 3): ("S", "S", "S"), ("B3", 5): ("S", "S", "S"),
    ("C3", 2): ("SV", "SV", "SV"), ("C3", 3): ("S", "S", "S"), ("C3", 5): ("S", "S", "S"),
    ("F4", 2): ("SV", "SV", "SV", "SV"), ("F4", 3): ("S", "S", "S", "S"),
    ("F4", 5): ("S", "S", "S", "S"),
}


def test_admitted_block_kinds_golden_table():
    # the chain table's X(0) codes, k & 7, sort in catalog order
    letter = {BlockKind.STANDARD: "S", BlockKind.VERY_SPECIAL: "V",
              BlockKind.EXOTIC_H: "H", BlockKind.EXOTIC_L: "L"}
    for (label, p), expected in ADMITTED_KINDS.items():
        rs = root_system(label)
        got = tuple("".join(letter[_block_of(a, c).kind]
                            for c in sorted(k & 7 for k in _chain(rs, p, a)[1]))
                    for a in range(1, rs.rank + 1))
        assert got == expected, (label, p)


#: every type and prime the acceptance suite and the benchmark workloads query
CHAIN_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
               "E6", "E7", "E8", "F4", "G2")


@pytest.mark.parametrize("label", CHAIN_TYPES)
def test_the_chain_table_needs_no_anchor_filter(label):
    # a single scheme is covered by the whole table at every anchor a: an entry
    # with k < 0 (t = 1) is X(-1) at a = 0, and a -1 on its window keeps it from
    # containing any scheme; the last entry, the fallback, exists at every anchor
    rs = root_system(label)
    for p, alpha in itertools.product((2, 3, 5), range(1, rs.rank + 1)):
        vectors, codes = _chain(rs, p, alpha)
        assert len(vectors) == len(codes)
        for h, k in zip(vectors, codes):
            assert k >= 0 or -1 in h, (label, p, alpha, k)
        assert codes[-1] >= 0, (label, p, alpha)


def test_anchored_candidates_reject_alpha_outside_the_rank():
    for alpha in (0, B2.rank + 1):
        with pytest.raises(InvalidScheme):
            anchored_candidates(B2, 2, alpha, 1)
    assert [str(b) for b in anchored_candidates(B2, 2, 2, 1)] == \
        ["VerySpecial(0)@a2", "Standard(1)@a2"]


@pytest.mark.parametrize("label,p", [("G2", 2), ("G2", 3), ("B2", 2), ("C3", 2)])
def test_anchored_candidates_are_the_catalog_blocks_at_that_anchor_in_chain_order(label, p):
    # independent of the per-node table: the catalog blocks whose anchor height
    # is a, by (chain key, catalog place), each containing the one before; this
    # covers kinds whose X(0) has anchor height 1 (ExoticL, VerySpecial at a short node)
    rs, kinds = root_system(label), list(BlockKind)
    for alpha, a in itertools.product(range(1, rs.rank + 1), range(13)):
        expected = sorted((b for b in rank_one_catalog(rs, p, alpha, 13)
                           if block_anchor_height(rs, b) == a),
                          key=lambda b: (b.m + b.top, kinds.index(b.kind)))
        got = anchored_candidates(rs, p, alpha, a)
        assert list(got) == expected
        for lo, hi in zip(got, got[1:]):
            assert contains(block_phi(rs, p, hi), block_phi(rs, p, lo))


#: block, root, node, twist and height-bound inputs that int() or an untyped
#: cache would coerce; each must raise InvalidScheme
UNCOERCED = {
    "float block height": lambda: block_phi(B2, 2, standard_block(1, 0.5)),
    "bool block height": lambda: standard_block(1, True),
    "float block anchor": lambda: standard_block(1.0, 0),
    "bool block anchor": lambda: very_special_block(True, 0),
    "bool node in the kind table": lambda: _chain(B2, 2, True),
    "bool anchored-candidates node": lambda: anchored_candidates(B2, 2, True, 1),
    "float anchored-candidates anchor": lambda: anchored_candidates(B2, 2, 1, 1.0),
    "bool anchored-candidates anchor": lambda: anchored_candidates(B2, 2, 1, True),
    "bool generated-block node": lambda: generated_block(reduced_scheme(B2, 2), True),
    "float generated-block node": lambda: generated_block(reduced_scheme(B2, 2), 1.0),
    "float Frobenius twist": lambda: frobenius_pullback(reduced_scheme(B2, 2), 0.5),
    "bool Frobenius twist": lambda: frobenius_pullback(reduced_scheme(B2, 2), True),
    "float census bound": lambda: CensusQuery(B2.rtype, 2, frozenset(), 1.5),
    "bool census bound": lambda: CensusQuery(B2.rtype, 2, frozenset(), True),
    "float catalog bound": lambda: rank_one_catalog(B2, 2, 1, 1.5),
    "bool catalog bound": lambda: rank_one_catalog(B2, 2, 1, True),
    "float root coefficient": lambda: Root.of(1.9, 0),
    "bool root coefficient": lambda: Root.of(True, 0),
}


#: refusals each named by its class and exact message
NAMED_REFUSALS = {
    "negative catalog bound": (
        lambda: rank_one_catalog(B2, 2, 1, -1), InvalidScheme, "max_height must be >= 0"),
    "finite height on a Levi root": (
        lambda: scheme(B2, 2, {2}, {(1, 0): 1, (1, 1): 0, (1, 2): 0}).finite_height(Root.of(0, 1)),
        InvalidScheme, "a2 is a Levi root of [2]"),
    "negative Frobenius twist": (
        lambda: frobenius_pullback(reduced_scheme(B2, 2), -1),
        InvalidScheme, "Frobenius pull-back needs m >= 0"),
    "certificate with a zero pairing": (
        lambda: NotFanoCertificate(1, Root.of(0, 1), Fraction(1), pairing_value=0),
        InvalidScheme, "certificate pairing must be negative"),
    "type label without a rank": (
        lambda: RootSystemType.parse("B"), InvalidRootSystem, "cannot parse type label 'B'"),
    "census query on a type label": (
        lambda: CensusQuery("B2", 2, frozenset(), 1), InvalidRootSystem,
        "census type 'B2' is not a RootSystemType"),
    "type label that is an int": (
        lambda: RootSystemType.parse(5), InvalidRootSystem, "cannot parse type label 5"),
    "root system of no label": (
        lambda: root_system(None), InvalidRootSystem, "cannot parse type label None"),
    "scheme with no phi": (
        lambda: ParabolicScheme(B2, 2, [], None), InvalidScheme, "phi None is not a mapping"),
    "scheme with a list phi": (
        lambda: ParabolicScheme(B2, 2, [], []), InvalidScheme, "phi [] is not a mapping"),
    "block anchor height at a0": (
        lambda: block_anchor_height(B2, very_special_block(0, 0)), InvalidScheme,
        "anchor a0 outside 1..2"),
    "block anchor height at a3": (
        lambda: block_anchor_height(B2, standard_block(3, 0)), InvalidScheme,
        "anchor a3 outside 1..2"),
    "generated block at a0": (
        lambda: generated_block(reduced_scheme(B2, 2), 0), InvalidScheme,
        "anchor a0 outside 1..2"),
    "generated block at a3": (
        lambda: generated_block(reduced_scheme(B2, 2), 3), InvalidScheme,
        "anchor a3 outside 1..2"),
    "generated block at a Levi node": (
        lambda: generated_block(reduced_scheme(B2, 2, [1]), 1), InvalidScheme,
        "a1 is not outside the Levi [1]"),
    "anchored candidates in characteristic 4": (
        lambda: anchored_candidates(B2, 4, 1, 0), InvalidScheme, "characteristic 4 is not prime"),
    "anchored candidates in a bool characteristic": (
        lambda: anchored_candidates(B2, True, 1, 0), InvalidScheme,
        "characteristic True is not prime"),
    "anchored candidates past the prime limit": (
        lambda: anchored_candidates(B2, 2 ** 64 + 13, 1, 0), InvalidScheme,
        "characteristic 18446744073709551629 is not below the limit 2**64"),
    "block of a kind given by name": (
        lambda: RankOneBlock(1, "Standard", 0), InvalidScheme,
        "block kind 'Standard' is not a BlockKind"),
    "structure constant in characteristic 0": (
        lambda: vanishes_mod_p(B2, Root.of(1, 0), Root.of(0, 1), 0), InvalidScheme,
        "characteristic 0 is not prime"),
    "structure constant in characteristic 4": (
        lambda: vanishes_mod_p(B2, Root.of(1, 0), Root.of(0, 1), 4), InvalidScheme,
        "characteristic 4 is not prime"),
    "type label with a non-ASCII rank": (
        lambda: RootSystemType.parse("B\u0663"), InvalidRootSystem,
        "cannot parse type label 'B\u0663'"),
    "ampleness off a node outside the rank": (
        lambda: is_ample(B2, {5}, anticanonical_character(reduced_scheme(B2, 2))), InvalidScheme,
        "Levi subset [5] outside 1..2"),
    "ampleness off a string Levi subset": (
        lambda: is_ample(B2, "x", anticanonical_character(reduced_scheme(B2, 2))), InvalidScheme,
        "'x' is not an integer"),
    "ampleness of a character shorter than the rank": (
        lambda: is_ample(B2, frozenset(), Character((1,))), InvalidScheme,
        "character Character(coeffs=(1,)) has 1 coefficient(s) "
        "where the rank of B2 asks for 2 integers"),
    "ampleness of a character longer than the rank": (
        lambda: is_ample(B2, frozenset(), Character((1, 2, 3))), InvalidScheme,
        "character Character(coeffs=(1, 2, 3)) has 3 coefficient(s) "
        "where the rank of B2 asks for 2 integers"),
    "ampleness of a character with a bool coefficient": (
        lambda: is_ample(B2, frozenset(), Character((1, True))), InvalidScheme,
        "character Character(coeffs=(1, True)) has 2 coefficient(s) "
        "where the rank of B2 asks for 2 integers"),
    "pairing of a plain tuple": (
        lambda: character_pairing(B2, (1, 2), Root.of(1, 0)), InvalidScheme,
        "character (1, 2) has no coefficient(s) where the rank of B2 asks for 2 integers"),
    "pairing of a character with a float coefficient": (
        lambda: character_pairing(B2, Character((1, 2.0)), Root.of(1, 0)), InvalidScheme,
        "character Character(coeffs=(1, 2.0)) has 2 coefficient(s) "
        "where the rank of B2 asks for 2 integers"),
    "pairing with a vector that is not a root": (
        lambda: character_pairing(B2, Character((1, 2)), Root.of(3, 3)), NotARoot,
        "3a1+3a2 is not a root of B2"),
}


@pytest.mark.parametrize("case", sorted(NAMED_REFUSALS))
def test_named_refusals(case):
    call, error, message = NAMED_REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_anchored_candidates_refuse_a_characteristic_before_the_chain_table():
    before = _chain.cache_info().currsize
    for p in (4, True, 2 ** 64 + 13):
        with pytest.raises(InvalidScheme):
            anchored_candidates(B2, p, 1, 0)
    assert _chain.cache_info().currsize == before


@pytest.mark.parametrize("case", sorted(UNCOERCED))
def test_block_and_root_inputs_are_never_coerced(case):
    # the int keys the coerced inputs would equal are cached first
    block_phi(B2, 2, standard_block(1, 0))
    anchored_candidates(B2, 2, 1, 1)
    generated_block(reduced_scheme(B2, 2), 1)
    with pytest.raises(InvalidScheme):
        UNCOERCED[case]()


def test_negative_block_height_is_built_but_rejected_by_the_block_check():
    assert standard_block(1, -1).m == -1
    with pytest.raises(InvalidScheme):
        block_phi(B2, 2, standard_block(1, -1))


def test_block_top_is_the_largest_height():
    for label, p in [("B2", 2), ("G2", 2), ("G2", 3), ("F4", 2)]:
        rs = root_system(label)
        for a in range(1, rs.rank + 1):
            for b in rank_one_catalog(rs, p, a, 3):
                assert b.top == block_phi(rs, p, b).max_height


def test_blocks_compare_and_hash_by_value():
    assert standard_block(1, 2) == standard_block(1, 2)
    assert hash(very_special_block(2, 0)) == hash(very_special_block(2, 0))
    assert standard_block(1, 0) != very_special_block(1, 0)
    assert len({standard_block(1, 0), standard_block(1, 0), exotic_h_block(0)}) == 2


def test_blocks_have_no_natural_order():
    blocks = [standard_block(1, 0), very_special_block(1, 0), standard_block(2, 1),
              exotic_h_block(0), exotic_l_block(1)]
    for a, b in itertools.permutations(blocks, 2):
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            sorted([a, b])


# ---------------------------------------------------------------------------
# property tests

small_types = st.sampled_from(["A2", "B2", "C2", "G2"])


@st.composite
def block_schemes(draw, p=2):
    rs = root_system(draw(small_types))
    blocks = []
    for a in range(1, rs.rank + 1):
        cat = rank_one_catalog(rs, p, a, 2)
        blocks.append(draw(st.sampled_from(cat)))
    P = block_phi(rs, p, blocks[0])
    for b in blocks[1:]:
        P = intersect(P, block_phi(rs, p, b))
    return P


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(block_schemes())
def test_block_intersections_are_valid(P):
    assert is_valid(P)
    assert enne_check(P) == []


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(block_schemes(), block_schemes())
def test_validity_closed_under_min(P, Q):
    if P.rs != Q.rs:
        return
    assert is_valid(intersect(P, Q))


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(block_schemes(), block_schemes(), block_schemes())
def test_contains_transitive(P, Q, R):
    if not (P.rs == Q.rs == R.rs):
        return
    if contains(P, Q) and contains(Q, R):
        assert contains(P, R)


@settings(deadline=None, max_examples=40, derandomize=True, database=None)
@given(block_schemes())
def test_serialisation_round_trip(P):
    blob = P.canonical_json()
    Q = ParabolicScheme.from_json_dict(json.loads(blob))
    assert Q == P and Q.canonical_json() == blob
