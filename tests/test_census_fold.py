"""Differential tests of the census enumeration against a plain tuple fold.

`enumerate_parabolics` folds packed block vectors; the reference here folds
the public `block_phi` schemes with public `intersect`, filters with
`is_normalized` and sorts by the finite heights, so it shares none of the
packed layout (lane width, guard bits, the zero-lane normalized test).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from parabolics import (
    INFINITE,
    CensusQuery,
    RootSystemType,
    ParabolicScheme,
    anchored_candidates,
    block_anchor_height,
    block_phi,
    enumerate_parabolics,
    exotic_l_block,
    full_group_scheme,
    generated_block,
    intersect,
    is_normalized,
    is_valid,
    rank_one_catalog,
    reconstruct,
    root_system,
    standard_block,
)
import parabolics.phi
from parabolics.phi import (
    BlockKind,
    _block_of,
    _block_vector,
    _catalog_size,
    _census_meets,
    _chain,
    _chain_code,
    _packed_kinds,
)


def tuple_fold(q):
    rs = q.system
    nodes = [a for a in range(1, rs.rank + 1) if a not in q.levi]
    if not nodes:
        return (full_group_scheme(rs, q.p),)
    found = {full_group_scheme(rs, q.p)}
    for a in nodes:
        blocks = [block_phi(rs, q.p, b) for b in rank_one_catalog(rs, q.p, a, q.max_height)]
        found = {intersect(P, B) for P in found for B in blocks}
    if q.normalized_only:
        found = {P for P in found if is_normalized(P)}
    return tuple(sorted(found, key=lambda P: [v for _, v in P.phi_items()]))


def check(label, p, levi, M, normalized):
    q = CensusQuery(RootSystemType.parse(label), p, frozenset(levi), M, normalized)
    fast, slow = enumerate_parabolics(q), tuple_fold(q)
    assert fast == slow
    assert [P.levi for P in fast] == [P.levi for P in slow]
    return fast


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("label,p,levi,M", [
    ("A2", 2, (), 3),
    ("A2", 3, (1,), 4),
    ("B2", 2, (), 3),  # VerySpecial blocks, very special kernel
    ("B2", 3, (), 2),
    ("C3", 2, (), 2),
    ("C3", 2, (2,), 3),
    ("G2", 2, (), 3),  # ExoticH / ExoticL blocks
    ("G2", 3, (), 3),  # VerySpecial at p=3
    ("G2", 3, (2,), 4),
    ("F4", 2, (), 1),
    ("F4", 2, (2, 3), 2),
    ("F4", 3, (1,), 1),
    ("B3", 2, (1, 2, 3), 2),  # the full group
])
def test_kernel_matches_tuple_fold(label, p, levi, M, normalized):
    check(label, p, levi, M, normalized)


@pytest.mark.parametrize("M", [126, 127, 130])
def test_lane_width_boundaries(M):
    # heights up to 126 fit one-byte lanes; 127 and above need two bytes
    if M < 130:  # the census-csv-a2-wide byte contract covers A2 at M = 130
        out = check("A2", 3, (), M, False)
        assert max(P.max_height for P in out) == M
    check("B2", 2, (1,), M, True)


def test_wide_heights_on_one_node():
    out = check("A1", 2, (), 300, False)
    assert [P.max_height for P in out] == list(range(301))
    check("G2", 2, (2,), 300, True)  # exotic kinds at the one node a1


@settings(deadline=None, max_examples=40, derandomize=True, database=None)
@given(
    st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"]),
    st.sampled_from([2, 3]),
    st.sets(st.integers(1, 4)),
    st.integers(0, 3),
    st.booleans(),
)
def test_kernel_matches_tuple_fold_on_random_queries(label, p, levi, M, normalized):
    rank = int(label[1:])
    check(label, p, {i for i in levi if i <= rank}, M, normalized)


@pytest.mark.parametrize("label,p", [("A2", 2), ("B2", 2), ("C3", 2), ("G2", 2), ("G2", 3)])
def test_packed_chain_is_the_catalog_in_chain_order(label, p):
    # the census builds each node's chain from _packed_kinds, m outer and catalog
    # order inside, and never sorts it: that order must be the chain order
    rs = root_system(label)
    for a, M in itertools.product(range(1, rs.rank + 1), range(4)):
        kinds = _packed_kinds(rs, p, a, 1)
        assert all(top == _block_of(a, c).top and c >> 3 == 0 for _, _, c, top in kinds)
        codes = [c + 8 * m for m in range(M + 1) for _, _, c, top in kinds if m + top <= M]
        assert [_block_of(a, c) for c in codes] == sorted(
            rank_one_catalog(rs, p, a, M), key=lambda b: b.m + b.top)
        assert len(codes) == _catalog_size(rs, p, a, M)


@pytest.mark.parametrize("M,k", [(126, 1), (127, 2)])
def test_packed_chain_lanes_decode_to_the_block_vectors(M, k):
    # X(m) packs as X(0) plus m ones on the window, up to the largest bound of k-byte lanes
    inf = (1 << 8 * k - 1) - 1  # the all-ones lane below its zero guard bit
    assert M < inf
    for label, p in [("B2", 2), ("G2", 2)]:
        rs = root_system(label)
        for a in range(1, rs.rank + 1):
            for x, one, c, top in _packed_kinds(rs, p, a, k):
                for m in range(M + 1 - top):
                    raw = (x + m * one).to_bytes(len(rs.positive_roots) * k, "big")
                    lanes = [int.from_bytes(raw[i:i + k], "big") for i in range(0, len(raw), k)]
                    heights = block_phi(rs, p, _block_of(a, c + 8 * m)).heights
                    assert tuple(INFINITE if v == inf else v for v in lanes) == heights


@pytest.mark.parametrize("label,p", [("B3", 2), ("G2", 2), ("G2", 3), ("A2", 5)])
def test_chain_codes_read_back_the_block(label, p):
    # a code sorts like (chain key, catalog position), decodes to its block, and
    # gives m, top and the exotic bit by shifts, as the certificate reads them
    rs = root_system(label)
    exotic = (BlockKind.EXOTIC_H, BlockKind.EXOTIC_L)
    for a in range(1, rs.rank + 1):
        catalog = rank_one_catalog(rs, p, a, 5)
        codes = [_chain_code(b.kind, b.m) for b in catalog]
        ordered = sorted(catalog, key=lambda b: b.m + b.top)
        assert sorted(codes) == [_chain_code(b.kind, b.m) for b in ordered]
        assert len(set(codes)) == len(codes)
        for b, c in zip(catalog, codes):
            assert _block_of(a, c) == b
            assert (c >> 3, c + 4 >> 3, bool(c & 2)) == (b.m, b.top, b.kind in exotic)


def test_packing_a_catalog_leaves_no_block_vector_per_bound():
    # the X(0) vectors of each kind are shared by every bound, and the packed
    # kinds are keyed by lane width: a new bound adds no _block_vector entry,
    # and a new packing only where the bound needs wider lanes
    rs = root_system("G2")
    _census_meets(rs, 2, frozenset({2}), 3, False)
    size, misses = _block_vector.cache_info().currsize, _packed_kinds.cache_info().misses
    for M in (4099, 4100, 126, 7):  # 2-byte lanes, then the 1-byte lanes of M = 3
        keys, codes, k = _census_meets(rs, 2, frozenset({2}), M, False)
        assert len(keys) == _catalog_size(rs, 2, 1, M) and k == (1 if M < 127 else 2)
        assert {_block_of(1, c) for (c,) in codes} == set(rank_one_catalog(rs, 2, 1, M))
        assert _packed_kinds.cache_info().misses <= misses + 1
    assert _block_vector.cache_info().currsize == size


def test_blocks_at_every_m_share_one_vector_per_kind():
    # block_phi, block_anchor_height, the anchored chains and reconstruction
    # form X(m) as X(0) plus m, so new heights add no _block_vector entry
    rs = root_system("G2")
    for k in _chain(rs, 2, 1)[1]:
        _block_vector(rs, 1, _block_of(1, k & 7).kind)
    size = _block_vector.cache_info().currsize
    for m in range(50, 60):
        for b in rank_one_catalog(rs, 2, 1, m)[-3:]:
            assert block_anchor_height(rs, b) == block_phi(rs, 2, b).height(rs.simple_roots[0])
        assert anchored_candidates(rs, 2, 1, m)
        P = block_phi(rs, 2, exotic_l_block(m))
        assert reconstruct(P) == P
    assert _block_vector.cache_info().currsize == size


def _phi_cache_sizes():
    return {name: f.cache_info().currsize for name, f in vars(parabolics.phi).items()
            if hasattr(f, "cache_info")}


def test_no_phi_cache_grows_with_heights_anchors_or_bounds():
    # every block-layer cache is keyed by values bounded per system: X(m) is
    # formed from X(0) where it is used, so once the caches are warm, blocks,
    # anchored chains, validity, reconstruction and censuses at new anchors and
    # height bounds add no entry to any functools cache in phi
    def work(anchors, bounds):
        for label in ("A1", "G2"):
            rs = root_system(label)
            a1 = rs.simple_roots[0]
            for a in anchors:
                chain = anchored_candidates(rs, 2, 1, a)
                for b in chain:
                    P = block_phi(rs, 2, b)
                    assert is_valid(P) and reconstruct(P) == P and generated_block(P, 1) == b
                    if rs.rank == 2:  # a Borel meet, and a scheme no candidate contains
                        Q = intersect(P, block_phi(rs, 2, standard_block(2, a)))
                        assert is_valid(Q) and reconstruct(Q) == Q
                        R = ParabolicScheme(rs, 2, P.levi, {
                            g: v + 3 * (g != a1) for g, v in P.phi_items()})
                        assert not is_valid(R) and generated_block(R, 1) == chain[-1]
            for M in bounds:
                enumerate_parabolics(CensusQuery(rs.rtype, 2, frozenset(), M))

    work(range(2), range(1, 3))
    sizes = _phi_cache_sizes()
    work(range(201), range(1, 61))
    assert _phi_cache_sizes() == sizes
