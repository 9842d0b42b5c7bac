"""The benchmark's traced self-check, one pass per declared workload.

`bench/run.py --trace 1` marks a run incorrect when its tracer leaves a
library name unwrapped or when a span that a workload lists in `exercises`
is never called. This runs the same check on one pass of each workload that
BENCHMARK.json declares, so a library change that renames, inlines or stops
calling an exercised function fails here first. The bench sources are only
imported, never changed.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
BENCH_MODULES = ("oracles", "tracing", "workloads")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.path.remove(str(BENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", DECLARED)
def test_traced_pass_calls_every_exercised_span(bench, name):
    tracing, workloads = bench
    wl = workloads.WORKLOADS[name](1)
    wl.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missed = tracer.unpatched_bindings()
        for call in wl.calls(0):
            wl.execute(call)
    finally:
        tracer.uninstall()
    assert missed == []
    summary = tracer.summary()
    assert [n for n in wl.exercises if summary.get(n, {}).get("calls", 0) == 0] == []
