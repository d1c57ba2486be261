"""Differential test of the blocks a census carries out of its fold.

`fano_census` certifies each row, and `hasse_diagram` orders the rows, from
the chain codes the census fold kept for it: those of the first block tuple,
each catalog in chain order, that reaches the row.  Here the census of every
query of a grid is checked to align one code tuple with each scheme, each
row's codes against `_generated_blocks`, which derives the generated blocks'
codes from the scheme alone, and, decoded at the nodes off the Levi, against
the public `generated_block`, every row's Fano flag against `is_fano`, and
every certified row against `not_fano_certificate`.
"""

import itertools

import pytest

from parabolics import (
    CensusQuery,
    enumerate_parabolics,
    fano_census,
    generated_block,
    is_fano,
    is_normalized,
    not_fano_certificate,
    root_system,
)
from parabolics.census import _census, _decode
from parabolics.errors import ExoticBlocksPresent
from parabolics.geometry import picard_rank
from parabolics.phi import _block_of, _generated_blocks, _levi_split

#: G2 at p = 2 holds the tie of ExoticH(m) and ExoticL(m) in chain order
TYPES = ["A2", "B2", "C2", "G2", "B3", "C3"]


#: the certificate grid adds F4, at bounds up to 2
CERTIFIED_TYPES = TYPES + ["F4"]


def queries(label, p, bounds=range(4)):
    rs = root_system(label)
    nodes = range(1, rs.rank + 1)
    for r in range(rs.rank + 1):
        for levi in itertools.combinations(nodes, r):
            for M, normalized in itertools.product(bounds, (False, True)):
                yield CensusQuery(rs.rtype, p, frozenset(levi), M, normalized)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("label", TYPES)
def test_carried_blocks_are_the_generated_blocks(label, p):
    rows = 0
    for q in queries(label, p):
        keys, carried, k = _census(q)
        schemes = _decode(q, keys, k)
        assert schemes == enumerate_parabolics(q)
        assert len(carried) == len(schemes)
        nodes = [a for a, _ in _levi_split(q.system, q.levi)[2]]
        for P, codes in zip(schemes, carried):
            assert all(type(c) is int for c in codes), P
            assert codes == tuple(_generated_blocks(P).values()), P
            blocks = tuple(map(_block_of, nodes, codes))
            assert blocks == tuple(generated_block(P, a) for a in nodes), P
            rows += 1
    assert rows > 0


def expected_certificate(P):
    try:
        return not_fano_certificate(P)
    except ExoticBlocksPresent:
        return None


@pytest.mark.parametrize("label", CERTIFIED_TYPES)
def test_fano_census_certificates_match_the_public_certificate(label):
    rows = certified = 0
    for p in (2, 3, 5):
        for q in queries(label, p, range(3) if label == "F4" else range(4)):
            for row in fano_census(q):
                P = row.scheme
                assert row.fano == is_fano(P), P
                rows += 1
                if picard_rank(P) >= 2 and is_normalized(P):
                    assert row.certificate == expected_certificate(P), P
                    certified += row.certificate is not None
                else:
                    assert row.certificate is None
    # F4's threshold H = 26 exceeds p**gap for every gap up to 2 at p <= 5
    assert rows > 0 and (certified > 0 or label == "F4")
