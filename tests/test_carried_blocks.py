"""Differential test of the blocks a census carries out of its fold.

`fano_census` certifies each row from the blocks the census fold kept for
it: the first block tuple, each catalog in chain order, that reaches the
row.  Here the census of every query of a grid is checked to align one block
tuple with each scheme, each row's blocks against `_generated_blocks`,
which derives the generated blocks from the scheme alone, and every
certified row against `not_fano_certificate`, which does the same.
"""

import itertools

import pytest

from parabolics import (
    CensusQuery,
    enumerate_parabolics,
    fano_census,
    is_normalized,
    not_fano_certificate,
    root_system,
)
from parabolics.census import _census
from parabolics.errors import ExoticBlocksPresent
from parabolics.geometry import picard_rank
from parabolics.phi import _generated_blocks

#: G2 at p = 2 holds the tie of ExoticH(m) and ExoticL(m) in chain order
TYPES = ["A2", "B2", "C2", "G2", "B3", "C3"]


def queries(label, p):
    rs = root_system(label)
    nodes = range(1, rs.rank + 1)
    for r in range(rs.rank + 1):
        for levi in itertools.combinations(nodes, r):
            for M, normalized in itertools.product(range(4), (False, True)):
                yield CensusQuery(rs.rtype, p, frozenset(levi), M, normalized)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("label", TYPES)
def test_carried_blocks_are_the_generated_blocks(label, p):
    rows = 0
    for q in queries(label, p):
        schemes, carried = _census(q)
        assert schemes == enumerate_parabolics(q)
        assert len(carried) == len(schemes)
        for P, blocks in zip(schemes, carried):
            assert blocks == tuple(_generated_blocks(P).values()), P
            rows += 1
    assert rows > 0


def expected_certificate(P):
    try:
        return not_fano_certificate(P)
    except ExoticBlocksPresent:
        return None


@pytest.mark.parametrize("label", TYPES)
def test_fano_census_certificates_match_the_public_certificate(label):
    certified = 0
    for p in (2, 3):
        for q in queries(label, p):
            for row in fano_census(q):
                P = row.scheme
                if picard_rank(P) >= 2 and is_normalized(P):
                    assert row.certificate == expected_certificate(P), P
                    certified += row.certificate is not None
                else:
                    assert row.certificate is None
    assert certified > 0
