"""Self-test of the benchmark's traced run.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload traced twice with the same seed (about a minute in all)
and checks what count-based claims will rest on: the per-layer call counts
repeat exactly, every listed per-layer metric is fed on some workload, and
the rebinding misses no copy of a traced function.
"""

from __future__ import annotations

import sys
import types

import pytest

from perfbench import run as bench

bench._import_package()

from perfbench import spans  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, workload in WORKLOADS.items():
        runs = []
        for _ in range(2):
            run = bench.Run(workload, SEED, 0.0, trace=True)
            result = run.execute()
            assert result is not None and result["correct"], run.problems
            runs.append((run, result["metrics"]))
        out[name] = runs
    return out


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def test_call_counts_repeat_across_runs(traced):
    for name, ((run1, m1), (run2, m2)) in traced.items():
        assert run1.calls == run2.calls, name
        assert _counts(m1) == _counts(m2), name


def _traced_function(metric: str) -> str | None:
    names = [".".join((m.removeprefix("dadt."), a)) for m, a in spans.TRACED_FUNCTIONS]
    names += [".".join((m.removeprefix("dadt."), c, a)) for m, c, a in spans.TRACED_METHODS]
    hits = [n for n in names if metric.startswith(n + ".")]
    return max(hits, key=len) if hits else None


def test_every_per_layer_metric_is_fed(traced):
    runs = [run for pair in traced.values() for run, _ in pair]
    metrics = [m for pair in traced.values() for _, m in pair]
    for name, _unit in spans.PER_LAYER_METRICS:
        if name.startswith("trace."):
            continue
        fn = _traced_function(name)
        assert fn is not None, f"{name} names no traced function"
        assert any(run.calls.get(fn, 0) > 0 for run in runs), f"{fn} is never called"
        if name.endswith(".calls"):
            assert any(m[name]["value"] > 0 for m in metrics), f"{name} is 0 everywhere"


def test_predict_calls_per_scored_row(traced):
    for _run, metrics in traced["score"]:
        assert metrics["tree.predict.per_scored_row"]["value"] == 7


def test_no_knowledge_spans_without_knowledge(traced):
    for run, _ in traced["mixed-train"]:
        assert run.knowledge_spans["train_s.ntdk"] == 0
        assert run.knowledge_spans["train_s.ftdk"] > 0
    for run, _ in traced["score"]:
        assert spans.layer_spans_in(run.tracer, "knowledge.", lambda s: True) == 0


def test_rebinding_reaches_every_alias():
    import dadt.stats
    original = dadt.stats.freq_fraction
    alias = types.ModuleType("dadt.perfbench_alias")
    alias.freq_fraction = original
    sys.modules[alias.__name__] = alias
    try:
        with spans.Tracer().scope(1, "probe", "-"):
            assert alias.freq_fraction is dadt.stats.freq_fraction is not original
    finally:
        del sys.modules[alias.__name__]
    assert alias.freq_fraction is dadt.stats.freq_fraction is original


def test_rebinding_refuses_an_alias_it_cannot_reach():
    import dadt.stats
    stray = types.ModuleType("perfbench.stray_alias")
    stray.freq_fraction = dadt.stats.freq_fraction
    sys.modules[stray.__name__] = stray
    try:
        with pytest.raises(RuntimeError, match="untraced original"):
            with spans.Tracer().scope(1, "probe", "-"):
                pass
    finally:
        del sys.modules[stray.__name__]
    assert dadt.stats.freq_fraction is stray.freq_fraction
