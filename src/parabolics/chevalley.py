"""Magnitudes of Chevalley structure constants from root strings.

For roots gamma != +/-delta with gamma+delta a root, the bracket of the basis
vectors is +/-(r+1) times the vector at gamma+delta, where r is the number of
steps the delta-string through gamma extends downwards.  Only the magnitude
r+1 and its vanishing modulo p are needed here; signs are never computed.
"""

from __future__ import annotations

from .errors import DegenerateRootPair
from .phi import _check_prime
from .rootsys import Root, RootSystem


def _check_pair(rs: RootSystem, gamma: Root, delta: Root) -> None:
    rs.check_root(gamma)
    rs.check_root(delta)
    if gamma == delta or gamma == -delta:
        raise DegenerateRootPair(f"gamma = +/-delta at {gamma}")


def structure_constant_magnitude(rs: RootSystem, gamma: Root, delta: Root) -> int:
    """|N'(gamma, delta)| = r + 1, or 0 when gamma + delta is not a root."""
    _check_pair(rs, gamma, delta)
    if not rs.is_root(gamma + delta):
        return 0
    r, cur = 0, gamma - delta
    while rs.is_root(cur):
        r, cur = r + 1, cur - delta
    return r + 1


def vanishes_mod_p(rs: RootSystem, gamma: Root, delta: Root, p: int) -> bool:
    """Whether the structure constant is zero over a field of characteristic p."""
    _check_prime(p)
    return structure_constant_magnitude(rs, gamma, delta) % p == 0
