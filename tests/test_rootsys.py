import itertools
from fractions import Fraction

import pytest

from parabolics import (
    LONG,
    SHORT,
    Root,
    RootSystemType,
    find_incidence_root,
    levi_components,
    long_root_subsystem,
    root_system,
    very_special_dual,
)
from parabolics.errors import (
    EdgeHypothesisNotSatisfied,
    InvalidPartition,
    InvalidRootSystem,
    InvalidScheme,
    NotARoot,
    UnsupportedType,
)
from parabolics import rootsys
from parabolics.rootsys import RANK_LIMIT

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D3", "D4", "F4", "G2"]


@pytest.mark.parametrize("label,count", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9), ("C2", 4),
    ("C4", 16), ("D4", 12), ("E6", 36), ("E7", 63), ("E8", 120),
    ("F4", 24), ("G2", 6),
])
def test_positive_root_counts(label, count):
    assert len(root_system(label).positive_roots) == count


def test_invalid_types():
    with pytest.raises(InvalidRootSystem):
        RootSystemType("B", 1)
    with pytest.raises(InvalidRootSystem):
        RootSystemType("D", 2)
    with pytest.raises(InvalidRootSystem):
        RootSystemType("E", 9)
    with pytest.raises(InvalidRootSystem):
        RootSystemType.parse("H4")
    for rank in (2.0, True, "2"):  # a rank is an int, never coerced
        with pytest.raises(InvalidRootSystem):
            RootSystemType("A", rank)


def test_rank_limit():
    for series in "ABCD":
        assert RootSystemType(series, RANK_LIMIT).rank == RANK_LIMIT
        with pytest.raises(InvalidRootSystem, match=f"exceeds the limit {RANK_LIMIT}"):
            RootSystemType(series, RANK_LIMIT + 1)
    with pytest.raises(InvalidRootSystem, match="limit"):
        RootSystemType.parse("A60")


def test_b2_positive_roots():
    rs = root_system("B2")
    assert set(rs.positive_roots) == {
        Root.of(1, 0), Root.of(0, 1), Root.of(1, 1), Root.of(1, 2)
    }


def test_a1_positive_roots():
    assert root_system("A1").positive_roots == (Root.of(1),)


def test_g2_positive_roots():
    rs = root_system("G2")
    assert set(rs.positive_roots) == {
        Root.of(1, 0), Root.of(0, 1), Root.of(1, 1),
        Root.of(2, 1), Root.of(3, 1), Root.of(3, 2),
    }


def test_g2_pairing_values():
    rs = root_system("G2")
    a1, a2 = rs.simple_roots
    assert rs.pairing(a1, a1) == 2
    assert rs.pairing(a1, a2) == -3
    assert rs.pairing(a2, a2) == 6


def test_short_simple_roots_have_length_two():
    for label in RANK_LE_4:
        rs = root_system(label)
        diag = [rs.pairing(a, a) for a in rs.simple_roots]
        assert min(diag) == 2


def test_pairing_symmetry_and_lengths():
    for label in RANK_LE_4:
        rs = root_system(label)
        for g in rs.positive_roots:
            sq = rs.pairing(g, g)
            assert sq in (2, 4, 6)
            if sq == 6:
                assert label == "G2"
        for g, d in itertools.combinations(rs.positive_roots, 2):
            assert rs.pairing(g, d) == rs.pairing(d, g)


def test_support():
    assert Root.of(1, 2).support() == {1, 2}
    assert Root.of(0, 1).support() == {2}
    assert Root.of(1, 1, 1, 1).support() == {1, 2, 3, 4}
    assert Root.of(0, -1, -2).support() == {2, 3}
    # a bare coefficient vector has a support whether or not it is a root
    b2 = root_system("B2")
    assert not b2.is_root(Root.of(2, 0))
    assert Root.of(2, 0).support() == {1}
    with pytest.raises(NotARoot):
        b2.check_root(Root.of(2, 0))


def test_length_classes():
    b2 = root_system("B2")
    assert b2.length_class(Root.of(1, 0)) == LONG
    # squared length of a1+2a2 is 4 + 8 - 8 = 4
    assert b2.pairing(Root.of(1, 2), Root.of(1, 2)) == 4
    assert b2.length_class(Root.of(1, 2)) == LONG
    g2 = root_system("G2")
    # squared length of 2a1+a2 is 8 + 6 - 12 = 2
    assert g2.pairing(Root.of(2, 1), Root.of(2, 1)) == 2
    assert g2.length_class(Root.of(2, 1)) == SHORT


@pytest.mark.parametrize("label,shorts", [
    ("A3", 0), ("B3", 3), ("C3", 6), ("D4", 0), ("F4", 12), ("G2", 3), ("E6", 0),
])
def test_length_class_on_every_root(label, shorts):
    rs = root_system(label)
    longest = max(rs.pairing(g, g) for g in rs.roots)
    for g in rs.roots:
        expect = SHORT if rs.pairing(g, g) < longest else LONG
        assert rs.length_class(g) == rs.length_class(-g) == expect
    assert sum(rs.length_class(g) == SHORT for g in rs.positive_roots) == shorts
    assert rs.is_simply_laced == (shorts == 0)
    with pytest.raises(NotARoot):
        rs.length_class(rs.simple_roots[0] + rs.simple_roots[0])


def test_simply_laced_all_long():
    a3 = root_system("A3")
    assert all(a3.length_class(g) == LONG for g in a3.positive_roots)


def _shift(g: Root, d: Root, k: int) -> Root:
    return Root(tuple(x + k * y for x, y in zip(g.coeffs, d.coeffs)))


def test_root_string_closure():
    # for gamma, delta with gamma+delta a root, the delta-string through
    # gamma is contiguous inside the root set and has at most 4 members
    for label in RANK_LE_4:
        rs = root_system(label)
        for g in rs.roots:
            for d in rs.positive_roots:
                if g in (d, -d) or not rs.is_root(g + d):
                    continue
                r = 0
                while rs.is_root(_shift(g, d, -(r + 1))):
                    r += 1
                q = 0
                while rs.is_root(_shift(g, d, q + 1)):
                    q += 1
                for k in range(-r, q + 1):
                    assert rs.is_root(_shift(g, d, k))
                assert r + q + 1 <= 4


# ---------------------------------------------------------------------------
# the build against a reference


def _reference_epsilon(rtype):
    """Bourbaki epsilon-coordinates of the simple roots, in Fractions."""
    n, s, half = rtype.rank, rtype.series, Fraction(1, 2)

    def vec(*pairs, dim):
        v = [Fraction(0)] * dim
        for i, c in pairs:
            v[i] += c
        return tuple(v)

    if s == "A":
        return [vec((i, 1), (i + 1, -1), dim=n + 1) for i in range(n)]
    if s in "BCD":
        last = {"B": ((n - 1, 1),), "C": ((n - 1, 2),), "D": ((n - 2, 1), (n - 1, 1))}[s]
        return [vec((i, 1), (i + 1, -1), dim=n) for i in range(n - 1)] + [vec(*last, dim=n)]
    if s == "E":
        a1 = (half,) + (-half,) * 6 + (half,)
        rest = [vec((i + 1, 1), (i, -1), dim=8) for i in range(6)]
        return ([a1, vec((0, 1), (1, 1), dim=8)] + rest)[:n]
    if s == "F":
        return [vec((1, 1), (2, -1), dim=4), vec((2, 1), (3, -1), dim=4), vec((3, 1), dim=4),
                (half, -half, -half, -half)]
    return [vec((0, 1), (1, -1), dim=3), vec((0, -2), (1, 1), (2, 1), dim=3)]


def _reference_build(rtype):
    """Reference: the Gram matrix of the epsilon coordinates in Fractions,
    the positive roots by string closure in Root arithmetic with each Cartan
    pairing summed afresh, and each squared length from the pairing matrix."""
    n, eps = rtype.rank, _reference_epsilon(rtype)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in eps] for u in eps]
    scale = Fraction(2) / min(gram[i][i] for i in range(n))
    assert all((x * scale).denominator == 1 for row in gram for x in row)
    P = tuple(tuple(int(x * scale) for x in row) for row in gram)
    cartan = tuple(tuple(2 * P[i][j] // P[j][j] for j in range(n)) for i in range(n))
    simple = tuple(Root(tuple(int(j == i) for j in range(n))) for i in range(n))
    found, level = set(simple), list(simple)
    while level:
        nxt = []
        for gamma in level:
            for i, alpha in enumerate(simple):
                r, down = 0, gamma - alpha
                while down in found:
                    r, down = r + 1, down - alpha
                up = gamma + alpha
                if r > sum(c * cartan[j][i] for j, c in enumerate(gamma.coeffs)) and up not in found:
                    found.add(up)
                    nxt.append(up)
        level = nxt
    positive = tuple(sorted(found, key=lambda g: (g.height, g.coeffs)))
    squared = [sum(a * P[i][j] * b for i, a in enumerate(g.coeffs) for j, b in enumerate(g.coeffs))
               for g in positive]
    short = tuple(x < max(squared) for x in squared)
    return {
        "simple_roots": simple, "positive_roots": positive,
        "roots": positive + tuple(-g for g in positive),
        "index": {g: i for i, g in enumerate(positive)},
        "pairing_matrix": P, "cartan": cartan, "short": short,
        "is_simply_laced": not any(short),
        "max_edge_multiplicity": max(squared) // min(squared),
        "epsilon_coords": tuple(eps),
    }


#: every admitted type up to RANK_LIMIT
EVERY_TYPE = [f"{s}{r}" for s, lo, hi in [("A", 1, RANK_LIMIT), ("B", 2, RANK_LIMIT),
                                           ("C", 2, RANK_LIMIT), ("D", 3, RANK_LIMIT),
                                           ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]
              for r in range(lo, hi + 1)]


@pytest.mark.parametrize("label", EVERY_TYPE)
def test_build_matches_the_reference(label):
    assert len(EVERY_TYPE) == 65
    rs, ref = root_system(label), _reference_build(RootSystemType.parse(label))
    for name, value in ref.items():
        assert getattr(rs, name) == value, name
    assert [tuple(map(type, v)) for v in rs.epsilon_coords] == \
        [(Fraction,) * len(v) for v in ref["epsilon_coords"]]


def _name_reference(coeffs):
    """A root's name, built term by term: "a1", "-a2" or "3a4" per nonzero coefficient."""
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"a{i}")
        elif c == -1:
            parts.append(f"-a{i}")
        else:
            parts.append(f"{c}a{i}")
    return "+".join(parts).replace("+-", "-") if parts else "0"


@pytest.mark.parametrize("label", EVERY_TYPE)
def test_root_names_match_the_reference(label):
    for g in root_system(label).roots:  # the shared instances, positive then negative
        assert str(g) == _name_reference(g.coeffs)
        assert str(g) is str(g)  # built once, on this root


def test_names_of_the_zero_vector_and_of_non_roots():
    for coeffs, name in [((0,), "0"), ((0, 0, 0), "0"), ((2, -3), "2a1-3a2"),
                         ((-1, 1), "-a1+a2"), ((1, -1, 0, 7), "a1-a2+7a4"), ((-2,), "-2a1"),
                         ((0, 12, -1), "12a2-a3")]:
        assert str(Root.of(*coeffs)) == name == _name_reference(coeffs)


def test_a_printed_root_compares_on_its_coefficients_alone():
    for label in ("G2", "F4", "E8"):
        for g in root_system(label).roots:
            printed, fresh = Root(g.coeffs), Root(tuple(g.coeffs))
            str(printed)
            assert printed == fresh and fresh == printed and printed == g
            assert hash(printed) == hash(fresh) == hash(g)
            assert repr(printed) == repr(fresh) == f"Root(coeffs={g.coeffs!r})"
            assert printed != g.coeffs and g.coeffs != printed
            assert {printed: 1}[fresh] == 1
            assert printed != -printed


def test_a_non_integral_realisation_is_refused(monkeypatch):
    # squared lengths 3 and 4 with product 3: scaled by 2/3, (a2, a2) is 8/3
    monkeypatch.setattr(rootsys, "_simple_epsilon", lambda rtype: [(1, 1, 1, 0), (1, 1, 1, 1)])
    with pytest.raises(InvalidRootSystem, match="^non-integral pairing for A2$"):
        rootsys.RootSystem(RootSystemType("A", 2))


def test_an_unhashable_root_is_refused():
    b2 = root_system("B2")
    for query in (b2.is_root, b2.is_positive_root, b2.check_root, b2.length_class):
        with pytest.raises(NotARoot, match=r"^\[1, 0\] is not a root of B2$"):
            query([1, 0])
    assert not b2.is_positive_root(-b2.simple_roots[0])


# ---------------------------------------------------------------------------
# very special duality


def test_dual_b2_c2_paper_anchor():
    c2 = root_system("C2")
    dual, bij = very_special_dual(c2)
    assert dual.rtype == RootSystemType("B", 2)
    # abar1 + abar2 maps to a1 + 2a2
    assert bij.forward(Root.of(1, 1)) == Root.of(1, 2)


def test_dual_simple_roots_exchange_lengths():
    b2 = root_system("B2")
    dual, bij = very_special_dual(b2)
    assert dual.rtype == RootSystemType("C", 2)
    for i, a in enumerate(b2.simple_roots, start=1):
        img = bij.forward(a)
        assert img == dual.simple_roots[bij.simple_map[i - 1] - 1]
        assert b2.length_class(a) != dual.length_class(img)


@pytest.mark.parametrize("label", ["B2", "B3", "C2", "C4", "F4", "G2"])
def test_dual_round_trip(label):
    rs = root_system(label)
    dual, bij = very_special_dual(rs)
    _, back = very_special_dual(dual)
    for g in rs.roots:
        assert back.forward(bij.forward(g)) == g
        assert rs.length_class(g) != dual.length_class(bij.forward(g))


def test_dual_epsilon_rescaling_b_to_c():
    # B_n to C_n keeps the ambient realisation: long roots map identically,
    # short roots are doubled
    rs = root_system("B3")
    dual, bij = very_special_dual(rs)
    for g in rs.positive_roots:
        src = rs.epsilon(g)
        img = dual.epsilon(bij.forward(g))
        if rs.length_class(g) == LONG:
            assert img == src
        else:
            assert img == tuple(2 * x for x in src)


def test_dual_rejects_simply_laced():
    with pytest.raises(EdgeHypothesisNotSatisfied):
        very_special_dual(root_system("A3"))


# ---------------------------------------------------------------------------
# long-root subsystem of F4


def test_long_root_subsystem_f4():
    f4 = root_system("F4")
    sub = long_root_subsystem(f4)
    assert len(sub.roots) == 24
    # oracle: filter by length
    assert set(sub.roots) == {g for g in f4.roots if f4.length_class(g) == LONG}
    assert sub.subsystem_type == RootSystemType("D", 4)
    b1, b2_, b3, b4 = sub.basis
    assert b1 == Root.of(0, 1, 2, 2)
    assert b2_ == Root.of(1, 0, 0, 0)
    assert b3 == Root.of(0, 1, 0, 0)
    assert b4 == Root.of(0, 1, 2, 0)
    # epsilon coordinates: e1-e2, e2-e3, e3-e4, e3+e4
    assert f4.epsilon(b1) == (1, -1, 0, 0)
    assert f4.epsilon(b4) == (0, 0, 1, 1)


def test_long_root_basis_gram_is_d4_cartan():
    f4 = root_system("F4")
    sub = long_root_subsystem(f4)
    d4 = root_system("D4")
    sym_cartan = [
        [d4.pairing(a, b) for b in d4.simple_roots] for a in d4.simple_roots
    ]
    gram = [
        [f4.pairing(a, b) for b in sub.basis] for a in sub.basis
    ]
    # long roots have squared length 4; renormalised to the subsystem's own
    # scale the Gram is exactly the symmetrized D4 Cartan matrix
    assert [[x // 2 for x in row] for row in gram] == sym_cartan
    assert all(x % 2 == 0 for row in gram for x in row)


def test_long_root_subsystem_unsupported():
    with pytest.raises(UnsupportedType):
        long_root_subsystem(root_system("B3"))


# ---------------------------------------------------------------------------
# incidence roots


@pytest.mark.parametrize("label,levi,left,expect", [
    ("F4", frozenset(), {1}, (1, Root.of(0, 1, 0, 0))),
    ("A3", frozenset({2}), {1}, (1, Root.of(0, 1, 1))),
    ("B3", frozenset(), {3}, (3, Root.of(0, 1, 0))),
])
def test_find_incidence_root_examples(label, levi, left, expect):
    rs = root_system(label)
    assert find_incidence_root(rs, levi, left) == expect


def test_find_incidence_root_exhaustive_rank_le_4():
    for label in RANK_LE_4:
        rs = root_system(label)
        all_nodes = set(range(1, rs.rank + 1))
        for r in range(rs.rank + 1):
            for I in itertools.combinations(sorted(all_nodes), r):
                outside = sorted(all_nodes - set(I))
                for k in range(1, len(outside)):
                    for left in itertools.combinations(outside, k):
                        l, delta = find_incidence_root(rs, I, set(left))
                        assert l in left
                        assert rs.is_positive_root(delta)
                        assert not delta.support() <= set(I)
                        assert delta.support().isdisjoint(left)
                        assert rs.pairing(delta, rs.simple_roots[l - 1]) < 0


def test_find_incidence_root_bad_partition():
    rs = root_system("B2")
    with pytest.raises(InvalidPartition):
        find_incidence_root(rs, set(), set())
    with pytest.raises(InvalidPartition):
        find_incidence_root(rs, set(), {1, 2})
    with pytest.raises(InvalidPartition):
        find_incidence_root(rs, {1}, {1})


def test_find_incidence_root_checks_its_input_before_the_cache():
    rs = root_system("B3")
    assert find_incidence_root(rs, [], [1]) == (1, Root.of(0, 1, 0))
    # frozenset({True}) == frozenset({1}), so the checks must run first
    for left in ([True], [1.0]):
        with pytest.raises(InvalidScheme):
            find_incidence_root(rs, [], left)
    with pytest.raises(InvalidScheme):
        find_incidence_root(rs, [True], [2])


def test_levi_components_checks_its_input_before_the_cache():
    rs = root_system("B3")
    assert [c.index_map for c in levi_components(rs, [1])] == [(1,)]
    # frozenset({True}) == frozenset({1}), so the check must run first
    for subset in ([True], [1.0]):
        with pytest.raises(InvalidScheme):
            levi_components(rs, subset)


#: the types whose every partition pins find_incidence_root to the reference
INCIDENCE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
                   "F4", "G2", "E6", "E7"]


def _neighbours(rs):
    """Dynkin neighbours from the Cartan entries, 1-based."""
    nodes = range(1, rs.rank + 1)
    return {i: [j for j in nodes if j != i and rs.cartan[i - 1][j - 1]] for i in nodes}


def _segments(rs):
    """Reference: the Dynkin segment from a to b for every pair of nodes, by
    breadth-first search over the Cartan entries."""
    adj, out = _neighbours(rs), {}
    for a in adj:
        prev, queue = {a: 0}, [a]
        while queue:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        for b in adj:
            seq = [b]
            while seq[-1] != a:
                seq.append(prev[seq[-1]])
            out[a, b] = seq[::-1]
    return out


def _incidence_partitions(rs):
    nodes = range(1, rs.rank + 1)
    for r in range(rs.rank + 1):
        for I in itertools.combinations(nodes, r):
            outside = [k for k in nodes if k not in I]
            for k in range(1, len(outside)):
                for left in itertools.combinations(outside, k):
                    yield I, left, [b for b in outside if b not in left]


def test_find_incidence_root_matches_breadth_first_reference():
    """The pick is the least (distance, l, mu) over pairs across the
    partition, delta being the segment from l to mu without l."""
    count = 0
    for label in INCIDENCE_TYPES:
        rs = root_system(label)
        seg = _segments(rs)
        for I, left, right in _incidence_partitions(rs):
            _, l, mu = min((len(seg[a, b]), a, b) for a in left for b in right)
            coeffs = [0] * rs.rank
            for k in seg[l, mu][1:]:
                coeffs[k - 1] = 1
            assert find_incidence_root(rs, I, left) == (l, Root(tuple(coeffs)))
            count += 1
    assert count == 3006


# ---------------------------------------------------------------------------
# Levi components


def _dfs_components(rs, subset):
    """Reference: connected components by depth-first search over the Cartan
    entries, each sorted, in order of their least node."""
    adj, remaining, comps = _neighbours(rs), set(subset), []
    while remaining:
        stack = [min(remaining)]
        comp = set(stack)
        while stack:
            for y in adj[stack.pop()]:
                if y in remaining and y not in comp:
                    comp.add(y)
                    stack.append(y)
        remaining -= comp
        comps.append(sorted(comp))
    return comps


def test_levi_components_match_depth_first_reference():
    count = 0
    for label in INCIDENCE_TYPES + ["C2"]:
        rs = root_system(label)
        for r in range(rs.rank + 1):
            for subset in itertools.combinations(range(1, rs.rank + 1), r):
                comps = levi_components(rs, subset)
                assert [sorted(c.index_map) for c in comps] == _dfs_components(rs, subset)
                count += 1
    assert count == 346


def test_levi_components_classification():
    b3 = root_system("B3")
    comps = levi_components(b3, {2, 3})
    assert len(comps) == 1
    assert comps[0].rtype == RootSystemType("B", 2)
    assert comps[0].index_map == (2, 3)

    comps = levi_components(b3, {1, 3})
    assert sorted(str(c.rtype) for c in comps) == ["A1", "A1"]

    c3 = root_system("C3")
    comps = levi_components(c3, {2, 3})
    # double-edge rank-2 sub-diagram: classified as B2 with the long node
    # mapped to the long ambient root a3
    assert comps[0].rtype == RootSystemType("B", 2)
    sub = comps[0].system
    amb_long = [comps[0].index_map[k] for k in range(2)
                if sub.length_class(sub.simple_roots[k]) == LONG]
    assert amb_long == [3]

    d4 = root_system("D4")
    comps = levi_components(d4, {1, 3, 4})
    assert [str(c.rtype) for c in comps] == ["A1", "A1", "A1"]

    f4 = root_system("F4")
    comps = levi_components(f4, {1, 2, 3})
    assert comps[0].rtype == RootSystemType("B", 3)
    comps = levi_components(f4, {2, 3, 4})
    assert comps[0].rtype == RootSystemType("C", 3)


#: every admitted (series, rank) up to rank 8
ALL_TYPES = {(s, r) for s, lo, hi in [("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 3, 8),
                                      ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]
             for r in range(lo, hi + 1)}


def _permutation_components(rs, subset):
    """Reference: each component's type and index_map by trying every node
    order against every candidate type, in order, keeping the first match."""
    out = []
    for nodes in _dfs_components(rs, subset):
        r = len(nodes)
        sub = [[rs.cartan[a - 1][b - 1] for b in nodes] for a in nodes]
        cands = [(RootSystemType(s, r), root_system(f"{s}{r}").cartan)
                 for s in "ABCDEFG" if (s, r) in ALL_TYPES]
        out.append(next(
            (rtype, tuple(nodes[k] for k in perm))
            for rtype, cartan in cands
            for perm in itertools.permutations(range(r))
            if all(sub[perm[a]][perm[b]] == cartan[a][b] for a in range(r) for b in range(r))
        ))
    return out


#: the grid on which levi_components is pinned to the permutation reference
COMPONENT_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
                   "C2", "C3", "C4", "C5", "C6", "D3", "D4", "D5", "D6", "D7",
                   "E6", "E7", "F4", "G2"]


def test_levi_components_match_the_permutation_reference():
    count = 0
    for label in COMPONENT_TYPES:
        rs = root_system(label)
        for r in range(rs.rank + 1):
            for subset in itertools.combinations(range(1, rs.rank + 1), r):
                got = [(c.rtype, c.index_map) for c in levi_components(rs, subset)]
                assert got == _permutation_components(rs, subset), (label, subset)
                count += 1
    assert count == 834


@pytest.mark.parametrize("label,subset,expected", [
    ("D16", range(2, 17), [("D15", tuple(range(2, 17)))]),
    ("D16", range(1, 17), [("D16", tuple(range(1, 17)))]),
    ("D16", [1, 2, 3, 15, 16], [("A3", (1, 2, 3)), ("A1", (15,)), ("A1", (16,))]),
    ("E8", range(1, 9), [("E8", tuple(range(1, 9)))]),
    ("E8", range(2, 9), [("D7", (8, 7, 6, 5, 4, 2, 3))]),
    ("E8", range(1, 8), [("E7", tuple(range(1, 8)))]),
    ("E8", [1, 3, 4, 5, 6, 7, 8], [("A7", (1, 3, 4, 5, 6, 7, 8))]),
])
def test_levi_components_of_large_diagrams(label, subset, expected):
    comps = levi_components(root_system(label), subset)
    assert [(str(c.rtype), c.index_map) for c in comps] == expected


def test_levi_component_embedding_counts():
    # sub-system positive roots biject with ambient positive roots supported
    # inside the subset
    for label, subset in [("B3", {2, 3}), ("F4", {1, 2, 3}), ("G2", {1}),
                          ("D4", {1, 2, 3})]:
        rs = root_system(label)
        comps = levi_components(rs, subset)
        ambient = {g for g in rs.positive_roots if g.support() <= subset}
        embedded = set()
        for c in comps:
            for g in c.system.positive_roots:
                embedded.add(c.embed(g, rs.rank))
        assert embedded == ambient
