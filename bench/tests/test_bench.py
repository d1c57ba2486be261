"""Tests of the benchmark itself:  python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts the checkout's src on sys.path)
from hostspeed import REFERENCE_S, host_factors, normalise  # noqa: E402
from tracer import load_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL_BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
SMALL = 12  # queries per workload in the in-process tests


@pytest.fixture(scope="module", params=WORKLOADS)
def passes(request, tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "spans.bin"
    plain = worker.run_pass(request.param, 7, trace=False, limit=SMALL)
    traced = worker.run_pass(request.param, 7, trace=True, limit=SMALL, spans_path=spans)
    return plain, traced, spans


def test_traced_and_untraced_answers_agree(passes):
    plain, traced, _ = passes
    assert plain["attempted"] == traced["attempted"] == SMALL
    assert plain["failed"] == traced["failed"] == 0, plain["errors"] + traced["errors"]
    assert plain["digests"] == traced["digests"]


def test_tracer_uninstalls():
    import parabolics
    from parabolics import census, phi

    worker.run_pass("census-sweep", 7, trace=True, limit=2)
    for fn in (parabolics.enumerate_parabolics, census.enumerate_parabolics,
               census.block_phi, phi.block_phi):
        assert not hasattr(fn, "__wrapped__")


def test_self_times_sum_to_traced_wall(passes):
    _, traced, _ = passes
    total = sum(own for _, own in traced["self"].values())
    traced_wall = traced["build_s"] + traced["wall_s"]
    assert abs(total - traced_wall) <= WALL_BOUND * traced_wall


def test_spans_file_round_trips(passes):
    _, traced, path = passes
    names, cols = load_spans(path)
    assert len(cols["start"]) == traced["spans"]
    calls = {}
    for nid in cols["name"]:
        calls[names[nid]] = calls.get(names[nid], 0) + 1
    assert calls == {name: c for name, (c, _) in traced["self"].items() if c}
    assert all(e >= s for s, e in zip(cols["start"], cols["end"]))


def test_timings_are_divided_by_the_local_host_factor():
    ref = [REFERENCE_S] * 20 + [2 * REFERENCE_S] * 20
    factors = host_factors(ref)
    assert factors[0] == factors[10] == 1.0
    assert factors[-1] == factors[-10] == 2.0
    assert normalise([3.0, 3.0], [factors[0], factors[-1]]) == [3.0, 1.5]


def test_corrupted_digest_counts_as_failure():
    digests = worker.load_digests()
    first = worker.build_queries("census-sweep", 7, worker.setup("census-sweep"))[0]
    digests[first.key] = "0" * 64
    result = worker.run_pass("census-sweep", 7, trace=False, digests=digests, limit=3)
    assert result["failed"] == 1
    assert result["errors"][0].startswith(first.key)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-sweep", "--seed", "5",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
