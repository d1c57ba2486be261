"""Every writer against a reference built from phi_items, to_json_dict and _canonical.

The writers (`to_text`, `to_compact`, `canonical_json`, the rows of
`schemes_to_csv` and `fano_to_csv`, the labels of `hasse_to_dot`) fill cached
row formats; the reference formats each row from scratch and never reads those
caches.  Every Levi subset of the types below, the empty and the full one
included, carries heights drawn from 0, 9, 10, 127 and 130, so one-, two- and
three-digit values meet in a row; one census reaches height 130, where the
census kernel packs two-byte lanes.  One list interleaves systems, primes and
Levi subsets from row to row, so no writer may carry a row format over.  A Fano line is checked whole: its flag
against `is_fano`, its certificate columns against `not_fano_certificate`, on
censuses that certify, and once over the rows of several queries interleaved;
its hash column is also checked against the public `phi_hash`.
"""

import hashlib
import itertools

import pytest

from parabolics import (
    CensusQuery,
    HasseDiagram,
    ParabolicScheme,
    enumerate_parabolics,
    fano_census,
    fano_to_csv,
    hasse_diagram,
    hasse_to_dot,
    is_fano,
    is_normalized,
    not_fano_certificate,
    phi_hash,
    root_system,
    schemes_to_csv,
    schemes_to_jsonl,
)
from parabolics.errors import ExoticBlocksPresent
from parabolics.geometry import picard_rank
from parabolics.phi import _canonical

TYPES = ["A1", "A2", "A3", "B2", "B3", "B4", "C3", "D4", "F4", "G2"]
HEIGHTS = (0, 9, 10, 127, 130)
#: the prime only fills its field; a long one checks the field is not truncated
PRIMES = (2, 3, 2 ** 61 - 1)


def ref_compact(P):
    return ";".join(str(v) for _, v in P.phi_items())


def ref_text(P):
    d = P.to_json_dict()
    head = f"type {d['type']}  prime {d['prime']}  levi {d['levi']}"
    return head + "".join(f"\n  phi({g}) = {v}" for g, v in P.phi_items())


def ref_csv_head(P):
    d = P.to_json_dict()
    return f"{d['type']},{d['prime']},{' '.join(map(str, d['levi']))},"


def ref_json(P):
    return _canonical(P.to_json_dict())


def ref_dot_labels(schemes):
    return [f'  n{i} [label="{ref_compact(P)}"];' for i, P in enumerate(schemes)]


def every_levi(rs):
    nodes = range(1, rs.rank + 1)
    return [set(c) for r in range(rs.rank + 1) for c in itertools.combinations(nodes, r)]


def schemes_over_every_levi(label, p):
    """Five schemes per Levi subset; root i of scheme s has height HEIGHTS[(i + s) % 5]."""
    rs = root_system(label)
    out = []
    for levi in every_levi(rs):
        domain = [g for g in rs.positive_roots if not g.support() <= levi]
        for s in range(len(HEIGHTS)):
            phi = {g: HEIGHTS[(i + s) % len(HEIGHTS)] for i, g in enumerate(domain)}
            out.append(ParabolicScheme(rs, p, levi, phi))
    return out


def check_writers(schemes):
    for P in schemes:
        assert P.to_text() == ref_text(P)
        assert P.to_compact() == ref_compact(P)
        assert P.canonical_json() == ref_json(P)
    assert schemes_to_jsonl(schemes) == "".join(ref_json(P) + "\n" for P in schemes)
    rows = schemes_to_csv(schemes).split("\n")
    assert rows[0] == "type,prime,levi,phi" and rows[-1] == ""
    assert rows[1:-1] == [ref_csv_head(P) + ref_compact(P) for P in schemes]
    dot = hasse_to_dot(HasseDiagram(tuple(schemes), ())).split("\n")
    assert dot == ["digraph hasse {", "  rankdir=BT;", *ref_dot_labels(schemes), "}", ""]


@pytest.mark.parametrize("label", TYPES)
def test_writers_match_the_reference_on_every_levi_subset(label):
    for p in PRIMES:
        check_writers(schemes_over_every_levi(label, p))


def test_writers_match_the_reference_on_interleaved_rows():
    # one list over two systems, three primes and every Levi subset, each row on
    # another (system, prime, Levi) than the row before: a writer that kept one
    # row's format for the next would print that row wrong
    runs = [schemes_over_every_levi(label, p) for label in ("B2", "G2") for p in PRIMES]
    runs = [run[5 * r:] + run[:5 * r] for r, run in enumerate(runs)]  # five schemes per Levi
    rows = [P for group in zip(*runs) for P in group]
    shapes = [(P.rs, P.p, P.levi) for P in rows]
    assert all(a != b for a, b in zip(shapes, shapes[1:]))
    assert [len(set(column)) for column in zip(*shapes[:6])] == [2, 3, 4]  # systems, primes, Levis
    check_writers(rows)


def test_writers_match_the_reference_on_a_two_byte_lane_census():
    q = CensusQuery(root_system("B2").rtype, 2, frozenset({1}), 130)
    schemes = enumerate_parabolics(q)
    assert len(schemes) == 261 and max(P.max_height for P in schemes) == 130
    check_writers(schemes)
    dot = hasse_to_dot(hasse_diagram(q)).split("\n")
    assert dot[2:2 + len(schemes)] == ref_dot_labels(schemes)


def ref_fano_line(P):
    """P's whole Fano CSV line, its flag from is_fano and its certificate
    columns from not_fano_certificate where the certificate applies."""
    cert = None
    if picard_rank(P) >= 2 and is_normalized(P):
        try:
            cert = not_fano_certificate(P)
        except ExoticBlocksPresent:
            pass
    digest = hashlib.sha256(ref_json(P).encode()).hexdigest()[:12]
    cells = f"{cert.beta_l},{cert.pairing_value}" if cert else ","
    return f"{ref_csv_head(P)}{digest},{str(is_fano(P)).lower()},{cells}"


def check_fano_csv(rows):
    lines = fano_to_csv(rows).split("\n")
    assert lines[0] == "type,p,levi,phi-hash,fano,certificate-root,pairing-value"
    assert lines[1:] == [ref_fano_line(r.scheme) for r in rows] + [""]
    # the hash column is the public phi_hash of the row's scheme
    assert [line.split(",")[3] for line in lines[1:-1]] == [phi_hash(r.scheme) for r in rows]


@pytest.mark.parametrize("label", ["B2", "B3", "G2"])
def test_fano_csv_rows_match_the_reference(label):
    rs = root_system(label)
    cells = [(2, 1, False)] + [(p, M, True) for p in (2, 3, 5) for M in (1, 2, 3)]
    certified = 0
    for levi in every_levi(rs):
        for p, M, normalized in cells:
            rows = fano_census(CensusQuery(rs.rtype, p, frozenset(levi), M, normalized))
            check_fano_csv(rows)
            certified += sum(r.certificate is not None for r in rows)
    assert certified > 0
    # one call over the rows of five queries, interleaved: each query differs
    # from the next in just the prime, the Levi subset or the system
    other = root_system("B2" if label == "G2" else "G2")
    queries = [CensusQuery(s.rtype, p, frozenset(levi), 3, True) for s, p, levi in
               [(rs, 2, ()), (rs, 3, ()), (rs, 3, (1,)), (other, 3, (1,)), (other, 2, (1,))]]
    interleaved = [r for rows in itertools.zip_longest(*map(fano_census, queries))
                   for r in rows if r is not None]
    assert len({(r.scheme.rs, r.scheme.levi, r.scheme.p) for r in interleaved[:5]}) == 5
    check_fano_csv(interleaved)
