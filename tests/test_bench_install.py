"""The traced benchmark under bench/ still installs on this package.

The benchmark's tracer wraps every public function of each layer, and its
counters hook named functions, so a rename or deletion in the package breaks
`bench/run.py --trace 1`.  The benchmark's own tests run outside this suite;
this test catches the break here.  It only reads bench/.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_traced_benchmark_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    counters = importlib.import_module("counters")
    tracer = importlib.import_module("tracer")
    from parabolics import census

    hooks = counters.Counters(census.rank_one_catalog).hooks()
    targets = [(importlib.import_module(f"parabolics.{name.split('.')[0]}"),
                name.split(".")[1]) for name in hooks]
    originals = [getattr(module, fn) for module, fn in targets]
    t = tracer.Tracer()
    t.install(hooks)
    try:
        for (module, fn), original in zip(targets, originals):
            assert getattr(module, fn).__wrapped__ is original, fn
    finally:
        t.uninstall()
    assert [getattr(module, fn) for module, fn in targets] == originals
    for layer in tracer.LAYERS:
        importlib.import_module(f"parabolics.{layer}")
    assert callable(census.block_phi)
