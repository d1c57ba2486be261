"""The CLI census formats its json, csv and text rows straight from the fold's packed lanes.

`census --format json|csv|text` builds no `ParabolicScheme`: each row is the
packed key read by `_lane_rows` and filled into the row template of
`canonical_json`, `to_compact` or `to_text`.  Its output must equal, byte for
byte, what the public writers print for `enumerate_parabolics`, which decodes
the same keys into schemes.  The grid holds every Levi subset (the full one,
with no node off it, included) of a few rank-two and rank-three systems, both
primes and both modes, the bound 0, and the bounds 130 and 300 where the lanes
are two bytes wide: 300 needs a lane's high byte.
"""

import io
import itertools

import pytest

from parabolics import (
    CensusQuery,
    ParabolicScheme,
    enumerate_parabolics,
    root_system,
    schemes_to_csv,
    schemes_to_jsonl,
)
from parabolics.cli import run

#: (type, height bounds) of each system; every Levi subset, prime and mode is run
GRID = [("A2", (0, 3)), ("B2", (0, 3)), ("C2", (0, 3)), ("G2", (0, 3)),
        ("B3", (0, 2)), ("C3", (0, 2))]
#: (type, bound) of the censuses whose heights need two-byte lanes
WIDE = [("A1", 130), ("A2", 130), ("A1", 300)]
FORMATS = ("json", "csv", "text")


def cli_census(label, p, levi, M, normalized, form):
    argv = ["census", "--type", label, "--prime", str(p), "--levi", ",".join(map(str, levi)),
            "--max-height", str(M), "--format", form] + ["--normalized"] * normalized
    out = io.StringIO()
    assert run(argv, out) == 0
    return out.getvalue()


def scheme_census(schemes, form):
    """What the CLI printed for these schemes when each row was a scheme first."""
    if form == "json":
        return schemes_to_jsonl(schemes)
    if form == "csv":
        return schemes_to_csv(schemes)
    return "".join(P.to_text() + "\n" for P in schemes) + f"total {len(schemes)} schemes\n"


def cells():
    for label, bounds in GRID:
        nodes = range(1, root_system(label).rank + 1)
        levis = [c for r in range(len(nodes) + 1) for c in itertools.combinations(nodes, r)]
        for levi, M in itertools.product(levis, bounds):
            yield label, levi, M
    for label, M in WIDE:
        yield label, (), M


@pytest.mark.parametrize("label,levi,M", list(cells()))
def test_cli_census_equals_the_writers_over_the_schemes(label, levi, M):
    rs = root_system(label)
    for p, normalized in itertools.product((2, 3), (False, True)):
        schemes = enumerate_parabolics(CensusQuery(rs.rtype, p, frozenset(levi), M, normalized))
        for form in FORMATS:
            assert cli_census(label, p, levi, M, normalized, form) == \
                scheme_census(schemes, form), (p, normalized, form)


def test_wide_lanes_reach_the_high_byte():
    # A1's Borel census at M is one scheme per height 0..M; past 255 a height
    # needs the high byte of its two-byte lane
    rows = "".join(f"A1,3,,{h}\n" for h in range(301))
    assert cli_census("A1", 3, (), 300, False, "csv") == "type,prime,levi,phi\n" + rows


def test_a_warm_cli_census_builds_no_scheme(monkeypatch):
    made = []
    of = ParabolicScheme._of.__func__

    def counted(cls, *args):
        made.append(args)
        return of(cls, *args)

    monkeypatch.setattr(ParabolicScheme, "_of", classmethod(counted))
    q = CensusQuery(root_system("B3").rtype, 2, frozenset(), 2)
    n = len(enumerate_parabolics(q))
    assert n > 0 and len(made) == n  # the library decodes each row into a scheme
    for form in FORMATS:
        cli_census("B3", 2, (), 2, False, form)  # fills the row formats
        made.clear()
        out = cli_census("B3", 2, (), 2, False, form)
        assert made == [] and out.count("\n") >= n, form
