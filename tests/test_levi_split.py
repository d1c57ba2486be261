"""What a Levi subset fixes, derived once: `phi._levi_split` and the Fano gate.

`_levi_split` is checked against a reference built only from the roots'
supports, `rs.index` and the root coefficients, on every Levi
subset (the empty and the full one included).  `fano_census` decides its
certificate gate once per query and trusts the rows of a normalized_only
query to be normalized; the cross-check ties those rows to the rows of the
unrestricted query that `is_normalized` accepts, certificates included.
"""

import itertools

import pytest

from parabolics import (
    CensusQuery,
    ParabolicScheme,
    fano_census,
    is_normalized,
    reduced_scheme,
    root_system,
)
from parabolics.phi import _levi_split

SPLIT_TYPES = ["A1", "A2", "A3", "B2", "B3", "B4", "C3", "D4", "F4", "G2", "E6"]
GATE_TYPES = ["B3", "C3", "F4", "G2"]


def subsets(rank):
    nodes = range(1, rank + 1)
    return [frozenset(c) for r in range(rank + 1) for c in itertools.combinations(nodes, r)]


def reference_split(rs, levi):
    inside = {g for g in rs.positive_roots if g.support() <= levi}
    positions = sorted(rs.index[g] for g in rs.positive_roots if g not in inside)
    windows = tuple(
        (a, tuple(sorted(rs.index[g] for g in rs.positive_roots if g.coeffs[a - 1])))
        for a in range(1, rs.rank + 1) if a not in levi
    )
    return tuple(rs.positive_roots[i] for i in positions), tuple(positions), windows


@pytest.mark.parametrize("label", SPLIT_TYPES)
def test_levi_split_matches_a_reference_on_every_levi_subset(label):
    rs = root_system(label)
    for levi in subsets(rs.rank):
        split = _levi_split(rs, levi)
        assert split == reference_split(rs, levi), (label, sorted(levi))
        assert reduced_scheme(rs, 2, levi).domain == split[0]
        for a, window in split[2]:  # a window starts at its node's simple root
            assert window[0] == rs.index[rs.simple_roots[a - 1]]


def test_constructor_fills_heights_by_position():
    rs = root_system("F4")
    for levi in subsets(rs.rank):
        roots = reference_split(rs, levi)[0]
        P = ParabolicScheme(rs, 3, levi, {g: i for i, g in enumerate(roots)})
        assert P.phi_items() == tuple((g, i) for i, g in enumerate(roots))


@pytest.mark.parametrize("label", GATE_TYPES)
def test_normalized_only_rows_are_the_normalized_unrestricted_rows(label):
    rs = root_system(label)
    certified = 0
    for p, levi in itertools.product((2, 3), subsets(rs.rank)):
        rows = fano_census(CensusQuery(rs.rtype, p, levi, 3))
        trusted = fano_census(CensusQuery(rs.rtype, p, levi, 3, True))
        assert trusted == tuple(r for r in rows if is_normalized(r.scheme)), (p, sorted(levi))
        certified += sum(r.certificate is not None for r in trusted)
    assert certified  # every type reaches the certificate branch at one of the primes
