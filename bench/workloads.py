"""Workload definitions: the seeded query lists and how each query is run
and checked.

A query is one ``cli.run`` call or one group of library calls.  The seed
varies the query order within each root-system type and the random schemes
drawn, never the number of queries per stratum.  Library functions are looked up on their modules at
call time, so a tracer installed after import sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import shlex
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

CENSUS_TYPES = ("A3", "B3", "C3", "D4", "B4", "C4", "F4", "G2")
CENSUS_HEIGHTS = (1, 2, 3)
CENSUS_FORMATS = ("json", "csv", "text")
#: Hasse diagrams of 45 to 275 schemes (type, prime, max height; Borel)
HASSE_QUERIES = (
    ("C2", 2, 4), ("G2", 2, 5), ("B2", 2, 5), ("A3", 2, 3),
    ("D4", 3, 2), ("F4", 3, 2), ("A3", 3, 4), ("C3", 2, 3),
    ("B3", 2, 3), ("C4", 2, 2), ("F4", 2, 2), ("C3", 2, 4),
)

#: acceptance criterion 3: (type, max height) cells over every Levi subset
ORACLE_GRID = (
    ("A2", 3), ("B2", 3), ("C2", 3), ("G2", 3),
    ("A3", 1), ("B3", 1), ("C3", 1), ("D3", 1),
)
STREAM_TYPES = ("B4", "F4", "E6", "E7", "E8")
STREAM_PER_STRATUM = 5  # per (type, prime, mode)
STREAM_MAX_HEIGHT = 3

#: acceptance criterion 10
FANO_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "F4", "G2")
FANO_MAX_HEIGHT = 6
FIBRATION_TYPES = ("B3", "C3", "G2")
FIBRATION_MAX_HEIGHT = 3

PRIMES = (2, 3)

WORKLOADS = ("census-sweep", "oracle-validate", "fano-geometry")


def workload_types(workload: str) -> Tuple[str, ...]:
    """Root systems a workload uses; they are built during set-up."""
    if workload == "census-sweep":
        types = CENSUS_TYPES + tuple(t for t, _, _ in HASSE_QUERIES)
    elif workload == "oracle-validate":
        types = tuple(t for t, _ in ORACLE_GRID) + STREAM_TYPES
    elif workload == "fano-geometry":
        types = FANO_TYPES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tuple(dict.fromkeys(types))


def _levis(rank: int, proper: bool) -> List[Tuple[int, ...]]:
    top = rank if proper else rank + 1
    return [I for k in range(top) for I in itertools.combinations(range(1, rank + 1), k)]


def _rank(label: str) -> int:
    return int(label[1:])


def _levi_arg(levi) -> str:
    return ",".join(str(i) for i in levi)


@dataclass(frozen=True)
class Query:
    key: str
    kind: str  # cli | oracle | stream | fibration
    payload: tuple


def cli_queries(workload: str) -> List[Query]:
    """The fixed CLI query set of a workload, in canonical order."""
    out: List[Query] = []
    if workload == "census-sweep":
        cells = [
            (t, p, I, M)
            for t in CENSUS_TYPES for p in PRIMES
            for I in _levis(_rank(t), proper=True) for M in CENSUS_HEIGHTS
        ]
        for n, (t, p, I, M) in enumerate(cells):
            argv = ["census", "--type", t, "--prime", str(p), "--levi", _levi_arg(I),
                    "--max-height", str(M), "--format", CENSUS_FORMATS[n % 3]]
            out.append(Query(shlex.join(argv), "cli", tuple(argv)))
        for t, p, M in HASSE_QUERIES:
            argv = ["census", "--type", t, "--prime", str(p), "--levi", "",
                    "--max-height", str(M), "--format", "dot"]
            out.append(Query(shlex.join(argv), "cli", tuple(argv)))
    elif workload == "fano-geometry":
        for t in FANO_TYPES:
            for p in PRIMES:
                for I in _levis(_rank(t), proper=False):
                    argv = ["fano", "--normalized", "--max-height", str(FANO_MAX_HEIGHT),
                            "--format", "csv", "--type", t, "--prime", str(p),
                            "--levi", _levi_arg(I)]
                    out.append(Query(shlex.join(argv), "cli", tuple(argv)))
    return out


def _stream_queries(rng: random.Random, systems: Dict[str, object]) -> List[Query]:
    from parabolics.phi import edge_hypothesis

    out: List[Query] = []
    for t in STREAM_TYPES:
        rs = systems[t]
        for p in PRIMES:
            kinds = ["standard"] + (["very_special"] if edge_hypothesis(rs, p) else [])
            for mode in ("blocks", "uniform"):
                for n in range(STREAM_PER_STRATUM):
                    # a fixed Levi size per type keeps the work per stratum steady
                    levi = sorted(rng.sample(range(1, rs.rank + 1), rs.rank // 3))
                    nodes = [a for a in range(1, rs.rank + 1) if a not in levi]
                    if mode == "blocks":
                        # catalog ranges: Standard(0..M), VerySpecial(0..M-1)
                        picks = []
                        for a in nodes:
                            kind = rng.choice(kinds)
                            top = STREAM_MAX_HEIGHT + 1 if kind == "standard" else STREAM_MAX_HEIGHT
                            picks.append((a, kind, rng.randrange(top)))
                        data = tuple(picks)
                    else:
                        domain = [g for g in rs.positive_roots if not g.support() <= set(levi)]
                        data = tuple(
                            (g, rng.randint(0, STREAM_MAX_HEIGHT)) for g in domain
                        )
                    key = f"stream {t} p={p} {mode} #{n}"
                    out.append(Query(key, "stream", (t, p, tuple(levi), mode, data)))
    return out


def build_queries(workload: str, seed: int, systems: Dict[str, object]) -> List[Query]:
    """The seeded query list of a workload; ``systems`` maps each label of
    ``workload_types`` to its root system."""
    rng = random.Random(seed)
    queries = cli_queries(workload)
    if workload == "oracle-validate":
        for t, top in ORACLE_GRID:
            for p in PRIMES:
                for I in _levis(_rank(t), proper=False):
                    for M in range(top + 1):
                        key = f"oracle {t} p={p} levi={_levi_arg(I)} M={M}"
                        queries.append(Query(key, "oracle", (t, p, I, M)))
        queries += _stream_queries(rng, systems)
    elif workload == "fano-geometry":
        for t in FIBRATION_TYPES:
            for p in PRIMES:
                for I in _levis(_rank(t), proper=True):
                    key = f"fibrations {t} p={p} levi={_levi_arg(I)} M={FIBRATION_MAX_HEIGHT}"
                    queries.append(Query(key, "fibration", (t, p, I, FIBRATION_MAX_HEIGHT)))
    # Types run in a fixed order, as in a sweep script, and the seed shuffles
    # the queries within each type.  The heavy queries of a type then meet
    # about the same live state (caches, collector generations) whatever the
    # seed, which keeps their cost, and so the tail latencies, steady.
    by_type: Dict[str, List[Query]] = {}
    for q in queries:
        label = q.payload[q.payload.index("--type") + 1] if q.kind == "cli" else q.payload[0]
        by_type.setdefault(label, []).append(q)
    ordered: List[Query] = []
    for group in by_type.values():
        rng.shuffle(group)
        ordered += group
    return ordered


# ---------------------------------------------------------------------------
# Running and checking one query


class Sink:
    """``out`` object for ``cli.run``: keeps the chunks and the time of the
    first write."""

    __slots__ = ("chunks", "first")

    def __init__(self) -> None:
        self.chunks: List[str] = []
        self.first: Optional[float] = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Outcome:
    ok: bool
    latency_s: float
    first_s: float  # time to the first output write, or to the first result
    digest: str
    bytes_out: int = 0
    error: str = ""


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs queries against the package, checking each answer."""

    def __init__(self, digests: Dict[str, str], systems: Dict[str, object]) -> None:
        from parabolics import census, cli, errors, geometry, phi

        self.census, self.cli, self.geometry, self.phi = census, cli, geometry, phi
        self.errors = errors
        self.digests = digests
        self.systems = systems

    def _query(self, label: str, p: int, levi, M: int, normalized: bool = False):
        return self.census.CensusQuery(
            self.systems[label].rtype, p, frozenset(levi), M, normalized_only=normalized,
        )

    def run(self, q: Query) -> Outcome:
        try:
            return getattr(self, "_run_" + q.kind)(q)
        except Exception as exc:  # any escape is a failed query, not a crash
            return Outcome(False, 0.0, 0.0, "", error=f"{type(exc).__name__}: {exc}")

    def _run_cli(self, q: Query) -> Outcome:
        sink = Sink()
        t0 = perf_counter()
        rc = self.cli.run(list(q.payload), sink)
        t1 = perf_counter()
        text = "".join(sink.chunks)
        digest = sha256_hex(text)
        ok = rc == 0 and self.digests.get(q.key) == digest
        first = (sink.first if sink.first is not None else t1) - t0
        error = "" if ok else f"exit {rc}, digest {digest[:12]}"
        return Outcome(ok, t1 - t0, first, digest, len(text.encode()), error)

    def _run_oracle(self, q: Query) -> Outcome:
        t, p, levi, M = q.payload
        cq = self._query(t, p, levi, M)
        t0 = perf_counter()
        fast = self.census.enumerate_parabolics(cq)
        t1 = perf_counter()
        slow = self.census.brute_force_enumerate(cq)
        t2 = perf_counter()
        fast_set = {P.canonical_json() for P in fast}
        ok = fast_set == {P.canonical_json() for P in slow} and len(fast_set) == len(fast)
        return Outcome(ok, t2 - t0, t1 - t0, sha256_hex("\n".join(sorted(fast_set))),
                       error="" if ok else "fast set differs from brute force")

    def _run_stream(self, q: Query) -> Outcome:
        t, p, levi, mode, data = q.payload
        phi = self.phi
        rs = self.systems[t]
        t0 = perf_counter()
        if mode == "blocks":
            make = {"standard": phi.standard_block, "very_special": phi.very_special_block}
            P = phi.intersect_all(
                rs, p, [phi.block_phi(rs, p, make[kind](a, m)) for a, kind, m in data]
            )
        else:
            P = phi.ParabolicScheme(rs, p, levi, dict(data))
        valid = phi.is_valid(P)
        t1 = perf_counter()
        R = phi.reconstruct(P)
        bad = phi.enne_check(P)
        t2 = perf_counter()
        checks = [
            phi.reconstruct(R) == R,  # reconstruction is idempotent
            not bad or not valid,  # a commutator violation rules validity out
            valid or mode != "blocks",  # block intersections are genuine
        ]
        ok = all(checks)
        digest = sha256_hex(f"{valid}|{R.canonical_json()}|{[tuple(map(str, v)) for v in bad]}")
        return Outcome(ok, t2 - t0, t1 - t0, digest,
                       error="" if ok else f"checks {checks}")

    def _run_fibration(self, q: Query) -> Outcome:
        t, p, levi, M = q.payload
        geometry = self.geometry
        cq = self._query(t, p, levi, M, normalized=True)
        t0 = perf_counter()
        schemes = self.census.enumerate_parabolics(cq)
        t1 = perf_counter()
        results = []
        for P in schemes:
            try:
                results.append((P, geometry.fibration_sequence(P)))
            except self.errors.NoSmoothContraction as exc:
                results.append((P, exc))  # an expected domain answer
        t2 = perf_counter()
        ok = bool(schemes)
        parts = []
        for P, steps in results:
            if isinstance(steps, Exception):
                parts.append(type(steps).__name__)
                continue
            # the tower's bases exhaust the space, one base per Picard rank
            ok = ok and sum(s.base_dimension for s in steps) == geometry.dimension(P)
            ok = ok and len(steps) == geometry.picard_rank(P)
            parts.append(";".join(f"{s.target_type}:{s.target_alpha}:{s.base_dimension}"
                                  for s in steps))
        return Outcome(ok, t2 - t0, t1 - t0, sha256_hex("\n".join(parts)),
                       error="" if ok else "fibration tower does not add up")
