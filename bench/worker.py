"""One benchmark pass in a fresh interpreter.

Usage (from ``run.py``; the checkout root is the working directory)::

    python3 bench/worker.py --workload census-sweep --seed 1 --trace 0 \\
        --spawned-at <time.perf_counter() of the parent just before spawning>

Set-up is import plus ``build_root_system`` for the workload's types; it
ends at the ``setup_end`` timestamp, which the parent compares with the
moment it spawned this process (``perf_counter`` is the system-wide
monotonic clock on Linux).  The reference snippet of ``hostspeed`` is then
timed a few times, for the host's speed at set-up.  Input generation
follows and is not timed.  The pass then runs every query once, timing the
reference snippet before each, checks each answer, and prints one JSON
line.  With ``--trace 1`` the tracer is installed before
set-up and the per-span self times are reported as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
# the checkout's own package, never an installed copy
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from hostspeed import reference, setup_reference  # noqa: E402
from workloads import Runner, build_queries, workload_types  # noqa: E402

MAX_ERRORS_SHOWN = 5


def load_digests() -> Dict[str, str]:
    return json.loads(DIGESTS.read_text())


def setup(workload: str) -> Dict[str, object]:
    """Import the package and build the workload's root systems."""
    import parabolics
    import parabolics.cli  # noqa: F401  (the CLI layer is part of set-up)
    from parabolics import rootsys

    if not Path(parabolics.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported parabolics from {parabolics.__file__}, not {ROOT / 'src'}")
    return {
        t: rootsys.build_root_system(rootsys.RootSystemType.parse(t))
        for t in workload_types(workload)
    }


def run_pass(workload: str, seed: int, trace: bool,
             digests: Optional[Dict[str, str]] = None,
             limit: Optional[int] = None,
             spans_path: Optional[Path] = None) -> dict:
    """Set up, run the seeded query list (its first ``limit`` queries when
    given) and report timings, checks and, when tracing, span self times."""
    tracer = counters = None
    if trace:
        from parabolics import census
        from counters import Counters
        from tracer import Tracer

        tracer = Tracer()
        counters = Counters(census.rank_one_catalog)
        tracer.install(counters.hooks())
    span = tracer.span if tracer else (lambda name: nullcontext())
    try:
        t0 = perf_counter()
        with span("bench.setup"):
            systems = setup(workload)
        setup_end = perf_counter()
        build_s = setup_end - t0
        setup_ref_s = setup_reference()

        runner = Runner(load_digests() if digests is None else digests, systems)
        queries = build_queries(workload, seed, systems)[:limit]
        outcomes, query_s, ref_s = [], [], []
        t0 = perf_counter()
        with span("bench.pass"):
            for qid, q in enumerate(queries):
                if tracer:
                    tracer.query_id = qid
                ref_s.append(reference())
                t_query = perf_counter()
                with span("bench.query"):
                    outcomes.append(runner.run(q))
                query_s.append(perf_counter() - t_query)
        wall_s = perf_counter() - t0
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer:
            tracer.uninstall()

    failures = [f"{q.key}: {o.error}" for q, o in zip(queries, outcomes) if not o.ok]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_end": setup_end,
        "build_s": build_s,
        "wall_s": wall_s,
        "query_s": query_s,  # each query with its check
        "ref_s": ref_s,  # the reference snippet, timed before each query
        "setup_ref_s": setup_ref_s,
        "latency_s": [o.latency_s for o in outcomes],
        "first_s": [o.first_s for o in outcomes],
        "digests": [o.digest for o in outcomes],
        "attempted": len(outcomes),
        "failed": len(failures),
        "errors": failures[:MAX_ERRORS_SHOWN],
        "peak_rss_kib": peak_rss_kib,
        "bytes_out": sum(o.bytes_out for o in outcomes),
    }
    if tracer:
        spans = tracer.self_times()
        result["spans"] = len(tracer.name)
        result["self"] = spans
        result["counters"] = counters.metrics({k: v[0] for k, v in spans.items()})
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (extra set-up samples)")
    ap.add_argument("--spans", type=Path, default=None, help="where to write the spans")
    args = ap.parse_args(argv)
    if args.setup_only:
        setup(args.workload)
        result = {"setup_end": perf_counter(), "setup_ref_s": setup_reference()}
    else:
        result = run_pass(args.workload, args.seed, bool(args.trace), spans_path=args.spans)
        del result["digests"]
    result["setup_s"] = result["setup_end"] - args.spawned_at
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
