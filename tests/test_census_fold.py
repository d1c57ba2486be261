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
    anchored_candidates,
    block_anchor_height,
    block_phi,
    enumerate_parabolics,
    exotic_l_block,
    full_group_scheme,
    intersect,
    is_normalized,
    rank_one_catalog,
    reconstruct,
    root_system,
)
from parabolics.phi import (
    BlockKind,
    _block_kinds,
    _block_of,
    _block_vector,
    _catalog_size,
    _chain_code,
    _lane_masks,
    _packed_chain,
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
    rs = root_system(label)
    for a, M in itertools.product(range(1, rs.rank + 1), range(4)):
        chain = _packed_chain(rs, p, a, M)
        assert all(type(c) is int for _, c in chain)
        assert [_block_of(a, c) for _, c in chain] == sorted(
            rank_one_catalog(rs, p, a, M), key=lambda b: b.m + b.top)
        assert len(chain) == _catalog_size(rs, p, a, M)


@pytest.mark.parametrize("M,k", [(126, 1), (127, 2)])
def test_packed_chain_lanes_decode_to_the_block_vectors(M, k):
    for label, p in [("B2", 2), ("G2", 2)]:
        rs = root_system(label)
        assert _lane_masks(rs, M)[0] == k
        inf = (1 << 8 * k - 1) - 1  # the all-ones lane below its zero guard bit
        for a in range(1, rs.rank + 1):
            for packed, code in _packed_chain(rs, p, a, M):
                raw = packed.to_bytes(len(rs.positive_roots) * k, "big")
                lanes = [int.from_bytes(raw[i:i + k], "big") for i in range(0, len(raw), k)]
                heights = block_phi(rs, p, _block_of(a, code)).heights
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
    # the X(0) vectors of each kind are shared by every bound; packing at a
    # new bound adds no _block_vector entry
    rs = root_system("G2")
    _packed_chain(rs, 2, 1, 3)
    size, misses = _block_vector.cache_info().currsize, _packed_chain.cache_info().misses
    assert len(_packed_chain(rs, 2, 1, 4099)) == _catalog_size(rs, 2, 1, 4099)
    assert _packed_chain.cache_info().misses == misses + 1
    assert _block_vector.cache_info().currsize == size


def test_blocks_at_every_m_share_one_vector_per_kind():
    # block_phi, block_anchor_height, the anchored chains and reconstruction
    # form X(m) as X(0) plus m, so new heights add no _block_vector entry
    rs = root_system("G2")
    for kind in _block_kinds(rs, 2, 1):
        _block_vector(rs, 1, kind)
    size = _block_vector.cache_info().currsize
    for m in range(50, 60):
        for b in rank_one_catalog(rs, 2, 1, m)[-3:]:
            assert block_anchor_height(rs, b) == block_phi(rs, 2, b).height(rs.simple_roots[0])
        assert anchored_candidates(rs, 2, 1, m)
        P = block_phi(rs, 2, exotic_l_block(m))
        assert reconstruct(P) == P
    assert _block_vector.cache_info().currsize == size
