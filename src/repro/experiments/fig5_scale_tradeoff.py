"""Fig. 5 — scale-up vs scale-out trade-off across load and resource type.

Insight 3 of the paper: the better mitigation (scale up = more resources to
the existing container, vs scale out = another replica) depends jointly on
the offered load, the contended resource (CPU- vs memory-bound), and the
application.  At low load scale-up wins; at high load scale-out wins for
CPU-bound contention while scale-up keeps winning for memory-bound
contention, with application-dependent crossover points.

The experiment sweeps offered load for Social Network and Train-Ticket
under CPU-bound and memory-bound contention of a hot service, measuring the
median end-to-end latency after applying each mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.cluster.resources import ResourceVector
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec
from repro.metrics.latency import LatencyStats

#: Which service is stressed per application and bound type.
TARGETS: Dict[str, Dict[str, str]] = {
    "social_network": {"cpu": "composePost", "memory": "post-storage-memcached"},
    "train_ticket": {"cpu": "preserve", "memory": "order-store-memcached"},
}


@dataclass
class Fig5Point:
    """One (application, bound, load, mitigation) measurement."""

    application: str
    bound: str
    load_rps: float
    mitigation: str
    latency: LatencyStats


@dataclass
class Fig5Result:
    """All points of the Fig. 5 sweep."""

    points: List[Fig5Point] = field(default_factory=list)

    def series(self, application: str, bound: str, mitigation: str) -> List[Tuple[float, float]]:
        """(load, median latency) series for one curve of the figure."""
        selected = [
            (point.load_rps, point.latency.median)
            for point in self.points
            if point.application == application
            and point.bound == bound
            and point.mitigation == mitigation
        ]
        return sorted(selected)

    def winner(self, application: str, bound: str, load_rps: float) -> str:
        """Which mitigation gives the lower median latency at one load point."""
        candidates = {
            point.mitigation: point.latency.median
            for point in self.points
            if point.application == application
            and point.bound == bound
            and point.load_rps == load_rps
        }
        if not candidates:
            raise KeyError(f"no data for {application}/{bound}@{load_rps}")
        return min(candidates, key=lambda key: candidates[key])


def _run_point(
    application: str,
    bound: str,
    load_rps: float,
    mitigation: str,
    duration_s: float,
    intensity: float,
    seed: int,
) -> Fig5Point:
    """Run one configuration of the sweep."""
    target = TARGETS[application][bound]
    anomaly_type = (
        AnomalyType.CPU_UTILIZATION if bound == "cpu" else AnomalyType.MEMORY_BANDWIDTH
    )
    campaign = AnomalyCampaign(f"fig5:{application}:{bound}")
    campaign.add(
        AnomalySpec(
            anomaly_type=anomaly_type,
            target_service=target,
            start_s=5.0,
            duration_s=duration_s - 5.0,
            intensity=intensity,
        )
    )
    harness = ExperimentHarness.from_spec(
        ScenarioSpec(
            application=application,
            seed=seed,
            duration_s=duration_s,
            load_rps=load_rps,
            controller="none",
            campaign=campaign,
        )
    )

    # Apply the mitigation up front (the figure studies steady-state payoff).
    replicas = harness.cluster.replicas_of(target)
    if mitigation == "scale_up" and replicas:
        instance = replicas[0]
        boosted = instance.container.limits * 2.0
        harness.orchestrator.set_resource_limits(instance, ResourceVector(dict(boosted.values)))
    elif mitigation == "scale_out":
        harness.orchestrator.scale_out(target)

    harness.run(load_rps=load_rps)
    latencies = [
        trace.end_to_end_latency_ms
        for trace in harness.coordinator.store.completed_traces()
        if (trace.arrival_time or 0.0) >= 10.0
    ]
    return Fig5Point(
        application=application,
        bound=bound,
        load_rps=load_rps,
        mitigation=mitigation,
        latency=LatencyStats.from_samples(latencies),
    )


def run_fig5(
    applications: Tuple[str, ...] = ("social_network", "train_ticket"),
    loads_rps: Tuple[float, ...] = (50.0, 150.0, 300.0),
    bounds: Tuple[str, ...] = ("cpu", "memory"),
    duration_s: float = 45.0,
    intensity: float = 0.7,
    seed: int = 13,
) -> Fig5Result:
    """Reproduce the Fig. 5 sweep (scaled-down load axis for simulation)."""
    result = Fig5Result()
    for application in applications:
        for bound in bounds:
            for load in loads_rps:
                for mitigation in ("scale_up", "scale_out"):
                    result.points.append(
                        _run_point(
                            application, bound, load, mitigation,
                            duration_s=duration_s, intensity=intensity, seed=seed,
                        )
                    )
    return result
