"""Benchmark of the parabolics package: one workload, one seed, one run.

    python3 bench/run.py --workload census-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  A run spawns passes (``worker.py``), each
a fresh interpreter that sets up, runs the workload's whole query list once
and checks every answer, for about ``--seconds``.  It tops up set-up samples
with set-up-only interpreters, prints each metric with its unit, sample
count and raw value, writes the full result to ``.bench_out/``, and prints
one JSON line last.  Timings are in seconds of the nominal host: each is
divided by the host's speed around it, from the reference snippet the
passes time (``hostspeed.py``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from hostspeed import REFERENCE_S, host_factors, normalise
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: every run must end well inside the 180 s a run is allowed
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "first_output_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: functions whose calls and self time are reported, by layer
REPORTED_FUNCTIONS = {
    "rootsys": ("build_root_system", "levi_positive_roots", "levi_components",
                "find_incidence_root", "very_special_dual"),
    "chevalley": ("vanishes_mod_p", "structure_constant_magnitude"),
    "phi": ("ParabolicScheme", "block_phi", "intersect", "intersect_all", "contains",
            "anchored_candidates", "generated_block", "reconstruct", "is_valid",
            "enne_check", "normalize", "is_normalized", "full_group_scheme",
            "vsi_pushforward"),
    "geometry": ("incidence_threshold", "not_fano_certificate", "anticanonical_character",
                 "is_fano", "fibration_sequence", "smooth_contraction_roots"),
    "census": ("rank_one_catalog", "enumerate_parabolics", "brute_force_enumerate",
               "hasse_diagram", "fano_census", "schemes_to_jsonl", "schemes_to_csv",
               "hasse_to_dot", "fano_to_csv", "phi_hash"),
    "cli": ("run", "build_parser"),
}
COUNTER_UNITS = {
    "census.tuples_tried": "count",
    "census.distinct_ratio": "ratio",
    "census.brute.candidates": "count",
    "census.brute.valid_ratio": "ratio",
    "census.hasse.pairs": "count",
    "phi.block_phi.repeat_ratio": "ratio",
    "geometry.incidence_threshold.repeat_ratio": "ratio",
    "geometry.certificate_ratio": "ratio",
    "geometry.chi_max_bits": "bits",
    "cli.bytes_out": "bytes",
}
#: the harness (query loop and checks) and the tracer's counter hooks
EXTRA_LAYERS = ("bench", "trace")


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer, fns in REPORTED_FUNCTIONS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for layer in EXTRA_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    units["trace.spans"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


class Spawner:
    """Spawns worker interpreters within the run's time limit."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.t_start = time.perf_counter()

    def spawn(self, *extra: str) -> dict:
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        if remaining <= 0:
            raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")
        spawned_at = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--spawned-at", repr(spawned_at), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_time(r: dict, normalised: bool) -> float:
    """Set-up time; normalised by the reference timed right after set-up."""
    return r["setup_s"] * REFERENCE_S / r["setup_ref_s"] if normalised else r["setup_s"]


def pass_wall(r: dict, normalised: bool) -> float:
    """The queries' time, checks included, without the reference snippet."""
    return sum(r["query_n"] if normalised else r["query_s"])


def end_to_end(passes: List[dict], setups: List[dict],
               normalised: bool = True) -> Dict[str, tuple]:
    """metric -> (value, sample count); times in seconds of the nominal
    host (``hostspeed``), or raw when ``normalised`` is false."""
    suffix = "_n" if normalised else "_s"
    latency = [x for r in passes for x in r["latency" + suffix]]
    first = [x for r in passes for x in r["first" + suffix]]
    return {
        "setup_s": (statistics.median(setup_time(r, normalised) for r in setups),
                    len(setups)),
        "wall_s": (statistics.median(pass_wall(r, normalised) for r in passes), len(passes)),
        "query_p50_ms": (1e3 * percentile(latency, 50), len(latency)),
        "query_p90_ms": (1e3 * percentile(latency, 90), len(latency)),
        "first_output_p50_ms": (1e3 * percentile(first, 50), len(first)),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] for r in passes) / 1024,
                         len(passes)),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, tuple]:
    """metric -> (value, sample count); medians over the traced passes."""
    samples: Dict[str, List[float]] = {
        name: [] for name in per_layer_units() if name != "trace.overhead_ratio"
    }
    for r in traced:
        layer_calls: Dict[str, int] = {}
        layer_self: Dict[str, float] = {}
        for name, (calls, own) in r["self"].items():
            layer = name.split(".", 1)[0]
            layer_calls[layer] = layer_calls.get(layer, 0) + calls
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        values = dict(r["counters"])
        values["cli.bytes_out"] = r["bytes_out"]
        values["trace.spans"] = r["spans"]
        for layer in list(REPORTED_FUNCTIONS) + list(EXTRA_LAYERS):
            values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
            values[f"{layer}.calls"] = layer_calls.get(layer, 0)
            for fn in REPORTED_FUNCTIONS.get(layer, ()):
                calls, own = r["self"].get(f"{layer}.{fn}", (0, 0.0))
                values[f"{layer}.{fn}.calls"] = calls
                values[f"{layer}.{fn}.self_s"] = own
        for name in samples:
            samples[name].append(values[name])
    out = {name: (statistics.median(v), len(v)) for name, v in samples.items()}
    # raw times: the two kinds of pass alternate, so they meet the same host,
    # and the reference snippet would be timed among the tracer's own state
    ratio = (statistics.median(pass_wall(r, False) for r in traced)
             / statistics.median(pass_wall(r, False) for r in untraced))
    out["trace.overhead_ratio"] = (ratio, len(traced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parabolics benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "parabolics" / "__init__.py").is_file():
        print(f"no parabolics sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = environment()
    spawner = Spawner(args.workload, args.seed)
    modes = [False, True] if args.trace else [False]
    passes: Dict[bool, List[dict]] = {False: [], True: []}
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    try:
        t0 = time.perf_counter()
        rounds: List[float] = []
        # Whole rounds of modes.  Another round starts only if it would end
        # nearer to the measuring time than stopping now, so that a run lasts
        # about --seconds whatever the length of a pass.
        while not rounds or (time.perf_counter() - t0
                             + statistics.median(rounds) / 2 < args.seconds):
            t_round = time.perf_counter()
            for traced in modes:
                extra = ["--trace", "1", "--spans", str(spans_path)] if traced else []
                passes[traced].append(spawner.spawn(*extra))
            rounds.append(time.perf_counter() - t_round)
        setups = list(passes[False])
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawner.spawn("--setup-only"))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    all_passes = passes[False] + passes[True]
    for r in all_passes:
        r["host"] = host_factors(r["ref_s"])
        for key in ("latency", "first", "query"):
            r[key + "_n"] = normalise(r[key + "_s"], r["host"])
    attempted = sum(r["attempted"] for r in all_passes)
    failed = sum(r["failed"] for r in all_passes)
    raw: Dict[str, tuple] = {}
    if args.trace:
        measured, units = per_layer(passes[False], passes[True]), per_layer_units()
    else:
        measured, units = end_to_end(passes[False], setups), END_TO_END
        raw = end_to_end(passes[False], setups, normalised=False)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  commit {env['commit']}  nproc {env['nproc']}  "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"passes {len(passes[False])} untraced, {len(passes[True])} traced; "
          f"queries attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f}")
    for r in all_passes:
        for err in r["errors"]:
            print(f"FAILED {err}")
    for name, (value, n) in measured.items():
        note = f"  raw {raw[name][0]:.6g}" if name in raw else ""
        print(f"  {name:48s} {value:14.6g} {units[name]:6s} (n={n}){note}")

    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in measured.items()}
    OUT.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in measured.items()},
        "raw_metrics": {k: v for k, (v, _) in raw.items()},
        "host_factor": statistics.median(f for r in all_passes for f in r["host"]),
        "self": passes[True][-1]["self"] if passes[True] else None,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
