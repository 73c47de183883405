"""The per-layer table of one traced run.

Times come from the tracer's spans (self time = span minus its child
spans); counts come from the number of spans at each entry point, except
the admission counters, which are the gate's own ``snapshot()``.

Layers that sit idle on some workload (admission, controllers, anomaly)
report their time as shares of the traced wall time only: an idle
layer's time is exactly 0 on every run, and a time that never changes
reads like a constant rather than a measurement.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from tracer import (
    LAYERS,
    OTHER_LAYER,
    PRESSURE_WRITES,
    STATE_WRITES,
    Tracer,
    self_times,
)

#: Per-layer metric -> unit, in report order.
METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "sim.events_per_request": "events/req",
    "workload.arrivals": "count",
    "workload.self_s": "s",
    "apps.requests": "count",
    "apps.attempts": "count",
    "apps.self_s": "s",
    "cluster.dispatches": "count",
    "cluster.self_s": "s",
    "cluster.contention_calls": "count",
    "cluster.contention_s": "s",
    "cluster.containers_per_contention_call": "containers",
    "cluster.state_writes": "count",
    "cluster.contention_calls_per_write": "calls/write",
    "routing.picks": "count",
    "routing.self_s": "s",
    "routing.ns_per_pick": "ns",
    "routing.view_refreshes": "count",
    "routing.replicas_per_pick": "replicas",
    "admission.submitted": "count",
    "admission.attempts": "count",
    "admission.shed": "count",
    "admission.retries": "count",
    "admission.hedges": "count",
    "admission.success_per_attempt": "ratio",
    "tracing.spans": "count",
    "tracing.traces": "count",
    "tracing.self_s": "s",
    "tracing.query_calls": "count",
    "tracing.query_s": "s",
    "telemetry.samples": "count",
    "telemetry.self_s": "s",
    "controllers.rounds": "count",
    "controllers.round_pct": "%",
    "controllers.rl_train_steps": "count",
    "controllers.rl_train_pct": "%",
    "controllers.actions": "count",
    "anomaly.pressure_changes": "count",
    "other.self_s": "s",
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
    "coverage_pct": "%",
    "unattributed_s": "s",
    "trace_overhead_pct": "%",
}

#: Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS: Tuple[str, ...] = tuple(
    name for name, unit in METRICS.items() if unit == "count"
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_table(tracer: Tracer, harness, wall_s: float, events: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace_overhead_pct`` (which needs
    an untraced run to compare with)."""
    name_ids, parents, starts, ends = tracer.columns()
    names = tracer.names
    durations = ends - starts
    self_s = self_times(parents, starts, ends)

    def ids(*wanted: str) -> np.ndarray:
        return np.asarray([i for i, name in enumerate(names) if name in wanted], dtype=np.int32)

    def mask(*wanted: str) -> np.ndarray:
        return np.isin(name_ids, ids(*wanted))

    def outermost(*wanted: str) -> np.ndarray:
        """Spans of ``wanted`` not directly inside another of them."""
        group = mask(*wanted)
        parent_in_group = np.zeros_like(group)
        nested = parents >= 0
        parent_in_group[nested] = group[parents[nested]]
        return group & ~parent_in_group

    def count(*wanted: str) -> int:
        return int(mask(*wanted).sum())

    def share(seconds: float) -> float:
        """``seconds`` as a percentage of the traced wall time."""
        return 100.0 * _ratio(float(seconds), wall_s)

    layer_of_name = np.asarray(
        [name.split(".", 1)[0] for name in names] or [""], dtype=object
    )
    span_layers = layer_of_name[name_ids] if len(name_ids) else np.asarray([], dtype=object)
    layer_self = {
        layer: float(self_s[span_layers == layer].sum()) for layer in (*LAYERS, OTHER_LAYER)
    }
    attributed = float(self_s.sum())

    submitted = sum(tenant.workload.generated_requests for tenant in harness.tenants)
    gates = [t.runtime.admission for t in harness.tenants if t.runtime.admission is not None]
    snapshots = [gate.snapshot() for gate in gates]

    def admission(key: str) -> int:
        return sum(int(snap[key]) for snap in snapshots)

    rounds = outermost("controllers.control_round")
    picks = count("routing.route")
    contention_calls = count("cluster.contention_factors")
    writes = int(outermost(*STATE_WRITES).sum())
    selects = count("routing.select")
    table = {
        "sim.events": events,
        "sim.self_s": layer_self["sim"],
        "sim.ns_per_event": 1e9 * _ratio(layer_self["sim"], events),
        "sim.events_per_request": _ratio(events, submitted),
        "workload.arrivals": count("workload.callback"),
        "workload.self_s": layer_self["workload"],
        "apps.requests": count("apps.submit_request"),
        "apps.attempts": count("apps.submit_attempt"),
        "apps.self_s": layer_self["apps"],
        "cluster.dispatches": count("cluster.submit"),
        "cluster.self_s": layer_self["cluster"],
        "cluster.contention_calls": contention_calls,
        "cluster.contention_s": float(durations[mask("cluster.contention_factors")].sum()),
        "cluster.containers_per_contention_call": _ratio(
            tracer.measures.get("cluster.contention_factors", 0.0), contention_calls
        ),
        "cluster.state_writes": writes,
        "cluster.contention_calls_per_write": _ratio(contention_calls, writes),
        "routing.picks": picks,
        "routing.self_s": layer_self["routing"],
        "routing.ns_per_pick": 1e9 * _ratio(layer_self["routing"], picks),
        "routing.view_refreshes": count("routing.refresh"),
        "routing.replicas_per_pick": _ratio(tracer.measures.get("routing.select", 0.0), selects),
        "admission.submitted": admission("submitted"),
        "admission.attempts": admission("attempts"),
        "admission.shed": admission("shed"),
        "admission.retries": admission("retries"),
        "admission.hedges": admission("hedges"),
        "admission.success_per_attempt": _ratio(admission("succeeded"), admission("attempts")),
        "tracing.spans": count("tracing.record_span"),
        "tracing.traces": count("tracing.begin_trace"),
        "tracing.self_s": layer_self["tracing"],
        "tracing.query_calls": count("tracing.query"),
        "tracing.query_s": float(durations[outermost("tracing.query")].sum()),
        "telemetry.samples": count("telemetry.sample_all"),
        "telemetry.self_s": layer_self["telemetry"],
        "controllers.rounds": int(rounds.sum()),
        "controllers.round_pct": share(durations[rounds].sum()),
        "controllers.rl_train_steps": count("controllers.train_step"),
        "controllers.rl_train_pct": share(durations[outermost("controllers.train_step")].sum()),
        "controllers.actions": int(outermost("controllers.action").sum()),
        "anomaly.pressure_changes": count(*PRESSURE_WRITES),
        "other.self_s": layer_self[OTHER_LAYER],
    }
    for layer in LAYERS:
        table[f"{layer}.share_pct"] = share(layer_self[layer])
    table["coverage_pct"] = share(sum(layer_self[layer] for layer in LAYERS))
    table["unattributed_s"] = wall_s - attributed
    return table
