import io
import itertools
import math

import pytest

import parabolics.census
from parabolics import (
    BlockKind,
    CensusQuery,
    ParabolicScheme,
    Root,
    RootSystemType,
    block_phi,
    brute_force_enumerate,
    contains,
    enumerate_parabolics,
    enne_check,
    fano_census,
    fano_summary,
    fano_to_csv,
    frobenius_pullback,
    full_group_scheme,
    generated_block,
    hasse_diagram,
    hasse_to_dot,
    intersect,
    is_normalized,
    is_valid,
    rank_one_catalog,
    reduced_scheme,
    root_system,
    schemes_to_csv,
    schemes_to_jsonl,
    vsi_pullback,
)
from parabolics.census import CENSUS_GUARD
from parabolics.cli import run
from parabolics.errors import InvalidScheme, SearchSpaceTooLarge
from parabolics.rootsys import check_levi

G2 = root_system("G2")
B2 = root_system("B2")
C2 = root_system("C2")


def q(label, p, levi=(), M=1, normalized=False):
    return CensusQuery(RootSystemType.parse(label), p, frozenset(levi), M, normalized)


# ---------------------------------------------------------------------------
# catalogs


def test_catalog_g2_p2():
    at2 = rank_one_catalog(G2, 2, 2, 2)
    assert [str(b) for b in at2] == ["Standard(0)@a2", "Standard(1)@a2", "Standard(2)@a2"]
    at1 = rank_one_catalog(G2, 2, 1, 1)
    assert {str(b) for b in at1} == {
        "Standard(0)@a1", "Standard(1)@a1", "ExoticH(0)@a1", "ExoticL(0)@a1"
    }


def test_catalog_b2_p3_no_edge():
    assert [str(b) for b in rank_one_catalog(B2, 3, 1, 1)] == \
        ["Standard(0)@a1", "Standard(1)@a1"]


def test_catalog_edge_hypothesis_types():
    assert any(b.kind is BlockKind.VERY_SPECIAL for b in rank_one_catalog(B2, 2, 1, 1))
    assert any(b.kind is BlockKind.VERY_SPECIAL for b in rank_one_catalog(G2, 3, 1, 1))
    assert all(b.kind is BlockKind.STANDARD
               for b in rank_one_catalog(root_system("F4"), 3, 2, 2))


@pytest.mark.parametrize("alpha,message", [
    (0, "anchor a0 outside 1..2"), (3, "anchor a3 outside 1..2"),
    (True, "True is not an integer"), (1.0, "1.0 is not an integer"),
])
def test_catalog_rejects_an_anchor_outside_the_rank(alpha, message):
    rank_one_catalog(B2, 2, 1, 1)  # warms the block kinds at node 1, which True and 1.0 equal
    with pytest.raises(InvalidScheme, match=f"^{message}$"):
        rank_one_catalog(B2, 2, alpha, 1)


@pytest.mark.parametrize("p,message", [
    (4, "characteristic 4 is not prime"), (1, "characteristic 1 is not prime"),
    (True, "characteristic True is not prime"),
    (2 ** 64 + 13, "characteristic 18446744073709551629 is not below the limit 2\\*\\*64"),
])
def test_catalog_rejects_a_characteristic_that_is_not_prime(p, message):
    with pytest.raises(InvalidScheme, match=f"^{message}$"):
        rank_one_catalog(B2, p, 1, 2)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_a2_m1():
    schemes = enumerate_parabolics(q("A2", 2, (), 1))
    assert len(schemes) == 4
    for P in schemes:
        a, b = P.finite_height(Root.of(1, 0)), P.finite_height(Root.of(0, 1))
        assert P.finite_height(Root.of(1, 1)) == min(a, b)


def test_enumerate_m0_single_reduced():
    for label in ("A2", "B3", "G2"):
        rs = root_system(label)
        for r in range(rs.rank + 1):
            for I in itertools.combinations(range(1, rs.rank + 1), r):
                out = enumerate_parabolics(q(label, 2, I, 0))
                assert len(out) == 1


def test_enumerate_full_levi_is_group():
    out = enumerate_parabolics(q("B2", 2, (1, 2), 3))
    assert out == (full_group_scheme(B2, 2),)


def test_g2_normalized_census_counts():
    for M in range(1, 6):
        out = enumerate_parabolics(q("G2", 2, (), M, normalized=True))
        assert len(out) == 4 * M + 1


def test_enumerated_closed_under_intersection():
    out = enumerate_parabolics(q("B2", 2, (), 2))
    pool = set(out)
    for P, Q in itertools.combinations(out, 2):
        assert intersect(P, Q) in pool


def test_enumerated_satisfy_anchor_and_enne():
    for label, p in [("B2", 2), ("G2", 2), ("C2", 3)]:
        for P in enumerate_parabolics(q(label, p, (), 2)):
            assert enne_check(P) == []
            for a in sorted(set(range(1, P.rs.rank + 1)) - P.levi):
                B = block_phi(P.rs, P.p, generated_block(P, a))
                alpha = P.rs.simple_roots[a - 1]
                assert B.height(alpha) == P.height(alpha)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_equality_rank2():
    for label in ("A2", "B2", "C2", "G2"):
        for p in (2, 3):
            assert brute_force_enumerate(q(label, p, (), 2)) == \
                enumerate_parabolics(q(label, p, (), 2))


def test_oracle_equality_with_levi():
    for I in [(1,), (2,)]:
        assert brute_force_enumerate(q("G2", 2, I, 3)) == \
            enumerate_parabolics(q("G2", 2, I, 3))


@pytest.mark.parametrize("label,levi,M", [
    ("A1", (), 127), ("A1", (), 130), ("A1", (), 254), ("A2", (1,), 130),
])
def test_oracle_equality_where_a_lane_needs_its_guard_bit(label, levi, M):
    # from M = 127 on a height fills a byte's low seven bits, so each lane takes two
    # bytes; A1's census is in closed form, one scheme per height 0..M
    for p in (2, 3):
        schemes = enumerate_parabolics(q(label, p, levi, M))
        assert schemes == brute_force_enumerate(q(label, p, levi, M))
        if label == "A1":
            assert [P.heights for P in schemes] == [(h,) for h in range(M + 1)]


def _brute_force_by_public_constructor(query):
    """The oracle as a plain loop: every height vector through the public
    constructor and is_valid, sorted by the heights off the Levi."""
    rs, levi = query.system, query.levi
    domain = reduced_scheme(rs, query.p, levi).domain
    out = []
    for values in itertools.product(range(query.max_height + 1), repeat=len(domain)):
        P = ParabolicScheme(rs, query.p, levi, dict(zip(domain, values)))
        if is_valid(P) and (not query.normalized_only or is_normalized(P)):
            out.append(P)
    return tuple(sorted(out, key=lambda P: [v for _, v in P.phi_items()]))


@pytest.mark.parametrize("label,p,levi,M", [
    ("A2", 2, (), 2), ("B2", 2, (), 2), ("C2", 3, (), 2), ("G2", 2, (), 2),
    ("G2", 3, (1,), 3), ("A3", 3, (2,), 2), ("B3", 2, (1, 3), 2), ("B2", 2, (1, 2), 3),
    # a one-root window (its table is keyed on a scalar), the exotic chains,
    # overlapping windows round a Levi node, a prime with no edge
    ("A1", 2, (), 4), ("G2", 2, (), 3), ("C3", 2, (2,), 2), ("A2", 5, (), 2),
])
def test_brute_force_matches_the_public_constructor_loop(label, p, levi, M):
    for normalized in (False, True):
        query = q(label, p, levi, M, normalized)
        got, expected = brute_force_enumerate(query), _brute_force_by_public_constructor(query)
        assert got == expected
        assert [P.canonical_json() for P in got] == [P.canonical_json() for P in expected]


def test_brute_force_never_reaches_the_census_kernel(monkeypatch):
    import parabolics.census
    import parabolics.phi

    query = q("G2", 2, (), 2)
    expected = enumerate_parabolics(query)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the census kernel")

    for module, name in [(parabolics.phi, "_census_meets"), (parabolics.phi, "_packed_kinds"),
                         (parabolics.phi, "_catalog"), (parabolics.phi, "_lane_masks"),
                         (parabolics.census, "_census_meets"), (parabolics.census, "_catalog"),
                         (parabolics.census, "rank_one_catalog")]:
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        enumerate_parabolics(query)
    assert brute_force_enumerate(query) == expected


def test_oracle_guard():
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_enumerate(q("F4", 2, (), 1))  # 2**24 candidates


def test_oracle_guard_counts_the_candidates_it_enumerates(monkeypatch):
    query = q("B2", 2, (), 2)  # (M+1)**4 = 81 candidates
    monkeypatch.setattr(parabolics.census, "BRUTE_FORCE_GUARD", 81)
    assert brute_force_enumerate(query) == enumerate_parabolics(query)
    monkeypatch.setattr(parabolics.census, "BRUTE_FORCE_GUARD", 80)
    with pytest.raises(SearchSpaceTooLarge, match=r"^\(M\+1\)\^4 exceeds 80 candidates$"):
        brute_force_enumerate(query)


#: the grid on which the census projection is pinned to the catalog sizes
GUARD_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "F4"]


def test_census_guard_projects_the_catalog_product(monkeypatch):
    # the fold is stubbed: only the guard runs, against a limit at the product
    # of the catalog sizes, then one below it
    monkeypatch.setattr(parabolics.census, "_census_meets", lambda *args: ([], (), 1))
    count = 0
    for label in GUARD_TYPES:
        rs = root_system(label)
        nodes = range(1, rs.rank + 1)
        levis = [c for r in range(rs.rank + 1) for c in itertools.combinations(nodes, r)]
        for levi, p, M in itertools.product(levis, (2, 3), range(5)):
            off = [a for a in nodes if a not in levi]
            tuples = math.prod(len(rank_one_catalog(rs, p, a, M)) for a in off)
            with monkeypatch.context() as m:  # the catalogs above are sized under the real guard
                m.setattr(parabolics.census, "CENSUS_GUARD", tuples)
                assert enumerate_parabolics(q(label, p, levi, M)) == ()
                m.setattr(parabolics.census, "CENSUS_GUARD", tuples - 1)
                with pytest.raises(SearchSpaceTooLarge):
                    enumerate_parabolics(q(label, p, levi, M))
            count += 1
    assert count == 540


def test_census_guard_admits_b6_and_refuses_in_every_census(monkeypatch, capsys):
    monkeypatch.setattr(parabolics.census, "_census_meets", lambda *args: ([], (), 1))
    assert enumerate_parabolics(q("B6", 2, (), 4)) == ()  # 531441 block tuples
    over = q("A1", 2, (), CENSUS_GUARD)  # CENSUS_GUARD + 1 blocks at a1
    for census in (enumerate_parabolics, fano_census, hasse_diagram):
        with pytest.raises(SearchSpaceTooLarge, match=f"exceed the limit {CENSUS_GUARD}"):
            census(over)
    for form in ("json", "csv", "text"):  # the CLI census, formatted from the lanes
        capsys.readouterr()
        argv = ["census", "--type", "A1", "--prime", "2", "--levi", "",
                "--max-height", str(CENSUS_GUARD), "--format", form]
        out = io.StringIO()
        assert run(argv, out) == 1 and out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("SearchSpaceTooLarge: ") and \
            err.endswith(f" exceed the limit {CENSUS_GUARD}\n"), form


def test_catalog_size_is_the_catalog_length():
    for label in GUARD_TYPES:
        rs = root_system(label)
        for a, p, M in itertools.product(range(1, rs.rank + 1), (2, 3), range(5)):
            assert parabolics.census._catalog_size(rs, p, a, M) == \
                len(rank_one_catalog(rs, p, a, M))


@pytest.mark.parametrize("levi", [5, None])
def test_a_levi_subset_that_is_not_iterable_is_refused(levi):
    message = f"^Levi subset {levi} is not a collection of simple indices$"
    with pytest.raises(InvalidScheme, match=message):
        check_levi(B2, levi)
    with pytest.raises(InvalidScheme, match=message):
        CensusQuery(RootSystemType.parse("B2"), 2, levi, 1)


@pytest.mark.parametrize("levi", [[1, 1], (2, 1, 2), iter([1, 2, 1])])
def test_a_repeated_levi_index_is_refused_not_merged(levi):
    levi = list(levi)
    message = r"^Levi subset \[%s\] repeats a simple index$" % ", ".join(map(str, levi))
    B2_TYPE = RootSystemType.parse("B2")
    for build in (lambda: check_levi(B2, levi), lambda: CensusQuery(B2_TYPE, 2, levi, 1),
                  lambda: reduced_scheme(B2, 2, levi),
                  lambda: ParabolicScheme(B2, 2, levi, {})):
        with pytest.raises(InvalidScheme, match=message):
            build()
    assert check_levi(B2, frozenset(levi)) == frozenset(levi)


def test_the_query_checks_its_levi_subset_after_prime_and_bound():
    B2_TYPE = RootSystemType.parse("B2")
    with pytest.raises(InvalidScheme, match="^characteristic 4 is not prime$"):
        CensusQuery(B2_TYPE, 4, 5, 1)
    with pytest.raises(InvalidScheme, match="^max_height must be >= 0$"):
        CensusQuery(B2_TYPE, 2, [3], -1)
    with pytest.raises(InvalidScheme, match=r"^Levi subset \[3\] outside 1..2$"):
        CensusQuery(B2_TYPE, 2, [3], 1)


@pytest.mark.parametrize("flag", ["no", None, 2, 0, 1])
def test_a_query_refuses_a_normalized_flag_that_is_not_a_bool(flag):
    B2_TYPE = RootSystemType.parse("B2")
    message = f"^normalized_only must be a bool, not {flag!r}$"
    with pytest.raises(InvalidScheme, match=message):
        CensusQuery(B2_TYPE, 2, frozenset(), 2, normalized_only=flag)
    # the prime, bound and Levi subset are checked first
    with pytest.raises(InvalidScheme, match=r"^Levi subset \[3\] outside 1..2$"):
        CensusQuery(B2_TYPE, 2, [3], 2, normalized_only=flag)
    assert len(enumerate_parabolics(CensusQuery(B2_TYPE, 2, frozenset(), 2, True))) == 5
    assert len(enumerate_parabolics(CensusQuery(B2_TYPE, 2, frozenset(), 2, False))) == 15


def test_a_query_stores_its_checked_levi_subset():
    listed = CensusQuery(RootSystemType.parse("B2"), 2, [1], 1)
    assert listed.levi == frozenset({1}) and type(listed.levi) is frozenset
    assert listed == q("B2", 2, (1,), 1)
    assert hash(listed) == hash(q("B2", 2, (1,), 1))
    assert enumerate_parabolics(listed) == enumerate_parabolics(q("B2", 2, (1,), 1))


# ---------------------------------------------------------------------------
# duality consistency on censuses


def test_pullback_maps_census_into_dual_census():
    M = 2
    count = 0
    for P in enumerate_parabolics(q("C2", 2, (), M)):
        up = vsi_pullback(P)
        assert up.rs.rtype == RootSystemType("B", 2)
        assert is_valid(up)
        assert up.max_height <= M + 1
        count += 1
    assert count > 0
    # distinctness: the transport is injective
    ups = {vsi_pullback(P) for P in enumerate_parabolics(q("C2", 2, (), M))}
    assert len(ups) == count
    # and conversely from the B census into the C one
    for P in enumerate_parabolics(q("B2", 2, (), M)):
        assert is_valid(vsi_pullback(P))


def test_pullback_twice_is_frobenius_on_census():
    for P in enumerate_parabolics(q("B2", 2, (), 2)):
        assert vsi_pullback(vsi_pullback(P)) == frobenius_pullback(P, 1)


# ---------------------------------------------------------------------------
# fano census


def test_fano_census_g2():
    rows = fano_census(q("G2", 2, (), 3, normalized=True))
    fano = [r.scheme for r in rows if r.fano]
    # the reduced Borel and the height-one thickening at a1 only
    assert len(fano) == 2
    summ = fano_summary(rows)
    assert summ["schemes"] == 13 and summ["fano"] == 2
    assert summ["max_fano_height"] == 1


def test_fano_census_reduced_all_fano():
    rows = fano_census(q("B2", 2, (), 0))
    assert all(r.fano for r in rows)


def test_fano_census_a2_max_fano_height():
    rows = fano_census(q("A2", 2, (), 5, normalized=True))
    assert fano_summary(rows)["max_fano_height"] == 1


def test_fano_census_g2_p2_certificates_in_closed_form():
    # rank two: the chain is the two generated blocks, lo below hi; a certificate
    # exists exactly when neither is exotic and 2**(hi.m - lo.top) exceeds
    # H = 15, i.e. the gap is at least 4, and its root is lo's node
    exotic = (BlockKind.EXOTIC_H, BlockKind.EXOTIC_L)
    certified = exotic_cuts = 0
    for row in fano_census(q("G2", 2, (), 6, normalized=True)):
        blocks = [generated_block(row.scheme, a) for a in (1, 2)]
        lo, hi = sorted(blocks, key=lambda b: (b.m + b.top, b.alpha))
        cut = hi.m - lo.top >= 4
        if lo.kind in exotic or hi.kind in exotic:
            assert row.certificate is None, row.scheme
            exotic_cuts += cut
        else:
            assert (row.certificate is not None) == cut, row.scheme
            assert not cut or row.certificate.beta_l == lo.alpha
            certified += cut
    assert certified > 0 and exotic_cuts > 0


# ---------------------------------------------------------------------------
# hasse diagrams


def test_hasse_chain_under_edge_hypothesis():
    # rank-one catalog at a fixed node is a chain
    d = hasse_diagram(q("B2", 2, (1,), 2))
    n = len(d.schemes)
    assert len(d.edges) == n - 1
    indeg = {i: 0 for i in range(n)}
    for lo, hi in d.edges:
        indeg[hi] += 1
    assert all(v <= 1 for v in indeg.values())


def test_hasse_g2_diamond():
    d = hasse_diagram(q("G2", 2, (2,), 2))
    schemes = d.schemes
    by_label = {}
    cat = rank_one_catalog(G2, 2, 1, 2)
    for b in cat:
        P = block_phi(G2, 2, b)
        by_label[str(b)] = schemes.index(P)
    edges = set(d.edges)

    def covers(lo, hi):
        return (by_label[lo], by_label[hi]) in edges

    for m in (0, 1):
        assert covers(f"Standard({m})@a1", f"ExoticH({m})@a1")
        assert covers(f"Standard({m})@a1", f"ExoticL({m})@a1")
        assert covers(f"ExoticH({m})@a1", f"Standard({m+1})@a1")
        assert covers(f"ExoticL({m})@a1", f"Standard({m+1})@a1")
        H = schemes[by_label[f"ExoticH({m})@a1"]]
        L = schemes[by_label[f"ExoticL({m})@a1"]]
        assert not contains(H, L) and not contains(L, H)


def test_hasse_m0_single_node():
    d = hasse_diagram(q("B3", 2, (1, 2), 0))
    assert len(d.schemes) == 1 and d.edges == ()


def test_hasse_guard_projects_the_bitset_bytes(monkeypatch):
    # the real guard admits n <= 32768 schemes, and so B4, p=2, M=4 (1825)
    assert 2 * 32768 * 4096 <= parabolics.census.HASSE_GUARD < 2 * 32769 * 4097
    query = q("B2", 2, (), 2)
    n = len(enumerate_parabolics(query))
    size = 2 * n * math.ceil(n / 8)
    monkeypatch.setattr(parabolics.census, "HASSE_GUARD", size)
    assert len(hasse_diagram(query).schemes) == n
    monkeypatch.setattr(parabolics.census, "HASSE_GUARD", size - 1)

    def unbuilt(schemes):
        raise AssertionError("the bitsets were built")

    monkeypatch.setattr(parabolics.census, "_containment_bitsets", unbuilt)
    message = f"^{size} bytes of Hasse bitsets for {n} schemes exceed the limit {size - 1}$"
    with pytest.raises(SearchSpaceTooLarge, match=message):
        hasse_diagram(query)


def _pairwise_covers(schemes):
    """Reference cover relation: a plain O(n^3) loop over `contains`."""
    n = len(schemes)
    above = [[j for j in range(n) if j != i and contains(schemes[j], schemes[i])]
             for i in range(n)]
    return tuple(
        (i, j) for i in range(n) for j in above[i]
        if not any(j in above[k] for k in above[i])
    )


@pytest.mark.parametrize("label,p,levi,M,normalized", [
    ("G2", 2, (), 3, False),
    ("B2", 2, (1,), 3, False),
    ("B3", 2, (2,), 2, False),
    ("F4", 3, (1, 2), 1, False),
    ("A3", 2, (), 2, True),
    ("C3", 2, (1, 3), 0, False),
    ("G2", 2, (), 4, False),  # the exotic ties at a1, on the Borel, normalized, and at a1 alone
    ("G2", 2, (), 4, True),
    ("G2", 2, (2,), 4, False),
])
def test_hasse_matches_pairwise_cover_relation(label, p, levi, M, normalized):
    d = hasse_diagram(q(label, p, levi, M, normalized))
    assert d.edges == _pairwise_covers(d.schemes)
    if M == 0:
        assert len(d.schemes) == 1 and d.edges == ()
    else:
        assert d.edges


# ---------------------------------------------------------------------------
# writers


def test_writers_deterministic():
    query = q("G2", 2, (), 2, normalized=True)
    schemes = enumerate_parabolics(query)
    assert schemes_to_jsonl(schemes) == schemes_to_jsonl(schemes)
    csv1 = schemes_to_csv(schemes)
    assert csv1.splitlines()[0] == "type,prime,levi,phi"
    assert len(csv1.splitlines()) == len(schemes) + 1
    rows = fano_census(query)
    out = fano_to_csv(rows)
    assert out.splitlines()[0] == \
        "type,p,levi,phi-hash,fano,certificate-root,pairing-value"
    dot = hasse_to_dot(hasse_diagram(query))
    assert dot.startswith("digraph hasse {") and dot.endswith("}\n")
