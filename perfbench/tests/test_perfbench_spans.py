"""Span accounting of the benchmark's tracer."""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracer as tracing  # noqa: E402
from repro.experiments.harness import ExperimentHarness  # noqa: E402
from repro.experiments.scenario import ScenarioSpec  # noqa: E402
from repro.sim.engine import SimulationEngine  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_span_minus_children_on_nested_calls():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: _busy(0.002), "apps.leaf")

    def middle():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap(middle, "cluster.middle")

    def outer():
        _busy(0.001)
        middle()
        leaf()

    tracer.wrap(outer, "sim.outer")()
    names, parents, starts, ends = tracer.columns()
    assert [tracer.names[i] for i in names] == [
        "sim.outer", "cluster.middle", "apps.leaf", "apps.leaf", "apps.leaf"
    ]
    assert parents.tolist() == [-1, 0, 1, 1, 0]
    durations = ends - starts
    expected = durations.copy()
    expected[0] -= durations[1] + durations[4]
    expected[1] -= durations[2] + durations[3]
    self_s = tracing.self_times(parents, starts, ends)
    np.testing.assert_allclose(self_s, expected, rtol=0, atol=1e-12)
    # Self times tile the root span exactly, and busy work lands where it ran.
    assert self_s.sum() == pytest.approx(durations[0], abs=1e-9)
    assert self_s[0] >= 0.001 and self_s[1] >= 0.001
    assert all(self_s[i] >= 0.002 for i in (2, 3, 4))


def test_self_times_on_hand_built_spans():
    parents = np.asarray([-1, 0, 1, 0, -1], dtype=np.int32)
    starts = np.asarray([0.0, 1.0, 2.0, 5.0, 10.0])
    ends = np.asarray([9.0, 4.0, 3.0, 6.0, 11.0])
    self_s = tracing.self_times(parents, starts, ends)
    assert self_s.tolist() == [9.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0, 1.0]


def test_layer_of_module_groups_packages():
    assert tracing.layer_of_module("repro.cluster.node") == "cluster"
    assert tracing.layer_of_module("repro.cluster.telemetry") == "telemetry"
    assert tracing.layer_of_module("repro.core.firm") == "controllers"
    assert tracing.layer_of_module("repro.baselines.aimd") == "controllers"
    assert tracing.layer_of_module("repro.experiments.harness") == "other"
    assert tracing.layer_of_module("numpy") == "other"
    assert tracing.layer_of_module(None) == "other"


def test_owner_module_sees_through_methods_and_partials():
    engine = SimulationEngine()
    assert tracing.owner_module(engine.run_until) == "repro.sim.engine"
    assert tracing.owner_module(functools.partial(engine.run_until, 1.0)) == "repro.sim.engine"
    assert tracing.owner_module(lambda eng: None) == __name__


def _tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        application="hotel_reservation", seed=3, duration_s=3.0, load_rps=20.0
    )


def _run(spec: ScenarioSpec):
    harness = ExperimentHarness.from_spec(spec)
    harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    return harness


def test_engine_callbacks_are_attributed_to_their_owning_module():
    tracer = tracing.install(tracing.Tracer())
    try:
        harness = _run(_tiny_spec())
    finally:
        tracer.uninstall()
    names, _, _, _ = tracer.columns()
    counts = {tracer.names[i]: int(n) for i, n in enumerate(np.bincount(names))}
    # Every arrival event is the workload generator's own callback ...
    assert counts["workload.callback"] == harness.workload.generated_requests > 0
    # ... span completions are the cluster's, telemetry sampling is the
    # collector's, and the harness's sampler is outside the layer table.
    assert counts["cluster.callback"] > 0
    assert counts["telemetry.callback"] > 0
    assert counts["other.callback"] > 0
    # The instance completions handed to the cluster run the app's code.
    assert counts["apps.callback"] > 0


def test_uninstall_restores_every_patched_attribute():
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for cls, attr, original in patched:
            assert cls.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for cls, attr, original in patched:
        assert cls.__dict__[attr] is original
    assert not hasattr(SimulationEngine.__dict__["schedule"], "__wrapped__")

    # An untraced run after uninstalling records nothing.
    before = len(tracer.span_names)
    _run(_tiny_spec())
    assert len(tracer.span_names) == before
