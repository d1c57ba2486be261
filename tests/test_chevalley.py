import itertools

import pytest

from parabolics import (
    Root,
    root_system,
    structure_constant_magnitude,
    vanishes_mod_p,
)
from parabolics.errors import DegenerateRootPair, NotARoot

# The magnitude is r + 1 for the down-chain length r of a composable pair.


def test_down_chain_g2_examples():
    g2 = root_system("G2")
    # chain through -2a1-a2 along -a1-a2: -2a1-a2, -a1, a2 are roots,
    # a1+2a2 is not (brute membership walks), so r = 2
    gamma, delta = Root.of(-2, -1), Root.of(-1, -1)
    assert g2.is_root(gamma - delta) and g2.is_root(gamma - delta - delta)
    assert not g2.is_root(Root.of(1, 2))
    assert structure_constant_magnitude(g2, gamma, delta) == 3
    # -3a1-a2 minus -a2 is -3a1, not a root, so r = 0
    assert not g2.is_root(Root.of(-3, 0))
    assert structure_constant_magnitude(g2, Root.of(-3, -1), Root.of(0, -1)) == 1


def test_down_chain_a2():
    a2 = root_system("A2")
    # a1 - a2 is not a root, so r = 0 in both orders
    assert not a2.is_root(Root.of(1, -1))
    assert structure_constant_magnitude(a2, Root.of(1, 0), Root.of(0, 1)) == 1
    assert structure_constant_magnitude(a2, Root.of(0, 1), Root.of(1, 0)) == 1


def test_down_chain_requires_composable():
    b2 = root_system("B2")
    # a1+2a2 plus a2 is not a root: no chain, magnitude 0 in both orders
    assert not b2.is_root(Root.of(1, 3))
    assert structure_constant_magnitude(b2, Root.of(1, 2), Root.of(0, 1)) == 0
    assert structure_constant_magnitude(b2, Root.of(0, 1), Root.of(1, 2)) == 0
    with pytest.raises(NotARoot):
        structure_constant_magnitude(b2, Root.of(2, 0), Root.of(0, 1))


def test_magnitude_examples():
    g2 = root_system("G2")
    assert structure_constant_magnitude(g2, Root.of(-2, -1), Root.of(-1, -1)) == 3
    assert structure_constant_magnitude(g2, Root.of(-3, -1), Root.of(0, -1)) == 1
    b2 = root_system("B2")
    assert structure_constant_magnitude(b2, Root.of(1, 2), Root.of(0, 1)) == 0


def test_magnitude_degenerate_pair():
    a2 = root_system("A2")
    with pytest.raises(DegenerateRootPair):
        structure_constant_magnitude(a2, Root.of(1, 0), Root.of(1, 0))
    with pytest.raises(DegenerateRootPair):
        structure_constant_magnitude(a2, Root.of(1, 0), Root.of(-1, 0))


def test_magnitude_range_all_small_types():
    big = 0
    for label in ["A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"]:
        rs = root_system(label)
        for g, d in itertools.product(rs.roots, repeat=2):
            if g in (d, -d):
                continue
            m = structure_constant_magnitude(rs, g, d)
            if not rs.is_root(g + d):
                assert m == 0
                continue
            assert 1 <= m <= 4
            if m >= 3:
                assert label == "G2"
            big = max(big, m)
    assert big == 3


def test_magnitude_one_when_difference_not_a_root():
    for label in ["A3", "B3", "C3", "D4", "F4", "G2", "E6", "E7", "E8"]:
        rs = root_system(label)
        for g, d in itertools.product(rs.roots, repeat=2):
            if g in (d, -d) or not rs.is_root(g + d):
                continue
            if not rs.is_root(g - d):
                assert structure_constant_magnitude(rs, g, d) == 1


def test_simply_laced_magnitudes_are_one():
    for label in ["A3", "D4"]:
        rs = root_system(label)
        for g, d in itertools.product(rs.roots, repeat=2):
            if g in (d, -d) or not rs.is_root(g + d):
                continue
            assert structure_constant_magnitude(rs, g, d) == 1
            assert not vanishes_mod_p(rs, g, d, 2)
            assert not vanishes_mod_p(rs, g, d, 3)


def test_vanishes_mod_p_g2():
    g2 = root_system("G2")
    # char 3: magnitude 2 constants never vanish
    assert structure_constant_magnitude(g2, Root.of(-2, -1), Root.of(1, 0)) == 2
    assert not vanishes_mod_p(g2, Root.of(-2, -1), Root.of(1, 0), 3)
    # the magnitude-3 constant vanishes mod 3
    assert vanishes_mod_p(g2, Root.of(-2, -1), Root.of(-1, -1), 3)
    assert not vanishes_mod_p(g2, Root.of(-2, -1), Root.of(-1, -1), 2)


def _simple_reflection(rs, i, gamma):
    a = rs.simple_roots[i - 1]
    c = 2 * rs.pairing(gamma, a) // rs.pairing(a, a)
    return Root(tuple(x - c * y for x, y in zip(gamma.coeffs, a.coeffs)))


def test_magnitude_stable_under_simple_reflections():
    for label in ["B2", "B3", "C3", "F4", "G2"]:
        rs = root_system(label)
        pairs = [
            (g, d) for g, d in itertools.product(rs.roots, repeat=2)
            if g not in (d, -d) and rs.is_root(g + d)
        ]
        for i in range(1, rs.rank + 1):
            for g, d in pairs:
                sg, sd = _simple_reflection(rs, i, g), _simple_reflection(rs, i, d)
                if sg in (sd, -sd):
                    continue
                assert structure_constant_magnitude(rs, sg, sd) == \
                    structure_constant_magnitude(rs, g, d)
