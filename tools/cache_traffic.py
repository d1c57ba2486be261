"""Hits and misses of every functools cache in `parabolics` after one
benchmark pass.

    python3 tools/cache_traffic.py --seed 11                             # all workloads
    python3 tools/cache_traffic.py --seed 11 --workload oracle-validate  # one workload

Run from anywhere; the checkout is the directory above this file.  Each
workload runs one untraced pass of `bench/worker.run_pass` (which it only
imports) in a fresh interpreter, so the caches start cold as in the
benchmark.  The table has one row per cache, with hits/misses per workload;
a `*` marks a cache with no hit on any workload run, and the script then
names those caches on stderr and exits 1.  A cache one workload never hits
may be hit by another, so a run of fewer workloads can fail where all pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census-sweep", "oracle-validate", "fano-geometry")


def traffic(workload: str, seed: int) -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of each cache after one pass of `workload` in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import parabolics
    from worker import run_pass

    result = run_pass(workload, seed, trace=False)
    if result["failed"]:
        raise SystemExit(f"{workload}: {result['failed']} queries failed: {result['errors']}")
    out = {}
    for info in pkgutil.iter_modules(parabolics.__path__):
        module = importlib.import_module(f"parabolics.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                stats = obj.cache_info()
                out[f"{info.name}.{name}"] = (stats.hits, stats.misses)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--json", action="store_true",
                    help="print one workload's raw counts as JSON, in this process")
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if args.json:
        print(json.dumps(traffic(workloads[0], args.seed)))
        return 0
    columns = {}
    for w in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--json", "--seed", str(args.seed), "--workload", w],
            capture_output=True, text=True, check=True,
        )
        columns[w] = json.loads(proc.stdout.splitlines()[-1])
    names = sorted(set().union(*columns.values()))
    width = max(map(len, names))
    print(f"{'cache':<{width}}  " + "  ".join(f"{w:>17}" for w in workloads))
    unhit = []
    for name in names:
        cells = [columns[w].get(name, (0, 0)) for w in workloads]
        mark = " " if any(h for h, _ in cells) else "*"
        if mark == "*":
            unhit.append(name)
        print(f"{name:<{width}}{mark} " + "  ".join(f"{f'{h}/{m}':>17}" for h, m in cells))
    if unhit:
        print(f"no hit on any workload run: {', '.join(unhit)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
