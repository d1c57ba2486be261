"""Differential properties on random small queries.

The census fold is checked against the brute-force oracle, and the very
special isogeny's pushforward against its pullback, on queries drawn by
hypothesis rather than on a fixed grid.  The draws are derandomized, so the
suite stays deterministic.
"""

from hypothesis import assume, given, settings, strategies as st

from parabolics import (
    CensusQuery,
    brute_force_enumerate,
    enumerate_parabolics,
    reduced_scheme,
    root_system,
    vsi_pullback,
    vsi_pushforward,
)

ORACLE_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]

#: the types with a multiple edge, at the prime of that edge
EDGE_PRIMES = {"B2": 2, "B3": 2, "C2": 2, "C3": 2, "G2": 3, "F4": 2}


def _query(label, p, levi, M, normalized):
    rs = root_system(label)
    return CensusQuery(rs.rtype, p, frozenset(a for a in levi if a <= rs.rank), M, normalized)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(ORACLE_TYPES), st.sampled_from([2, 3]),
       st.sets(st.integers(1, 3), max_size=2),  # a rank-3 full Levi is one scheme
       st.integers(0, 2), st.booleans())
def test_census_equals_the_oracle(label, p, levi, M, normalized):
    q = _query(label, p, levi, M, normalized)
    domain = reduced_scheme(q.system, p, q.levi).domain
    assume((M + 1) ** len(domain) <= 20000)  # the oracle tries every candidate
    assert enumerate_parabolics(q) == brute_force_enumerate(q)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(sorted(EDGE_PRIMES)), st.sets(st.integers(1, 4)), st.integers(0, 2),
       st.booleans())
def test_pushforward_undoes_pullback_over_a_census(label, levi, M, normalized):
    for P in enumerate_parabolics(_query(label, EDGE_PRIMES[label], levi, M, normalized)):
        assert vsi_pushforward(vsi_pullback(P)) == P
