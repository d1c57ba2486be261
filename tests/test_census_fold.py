"""Differential tests of the census enumeration against a plain tuple fold.

`enumerate_parabolics` folds packed block vectors; the reference here folds
the public `block_phi` schemes with public `intersect`, filters with
`is_normalized` and sorts by the finite heights, so it shares none of the
packed layout (lane width, guard bits, the zero-lane normalized test).
"""

import pytest
from hypothesis import given, settings, strategies as st

from parabolics import (
    CensusQuery,
    RootSystemType,
    block_phi,
    enumerate_parabolics,
    full_group_scheme,
    intersect,
    is_normalized,
    rank_one_catalog,
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


@settings(deadline=None, max_examples=40, derandomize=True)
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
