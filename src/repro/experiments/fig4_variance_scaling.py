"""Fig. 4 — scaling the highest-variance service beats the highest-median one.

Insight 2 of the paper: the service with the largest latency on the
critical path is not necessarily the root cause of SLO violations.  In the
Social Network post-compose path, ``composePost`` has the higher median
latency but ``text`` (under contention) has the higher variance; scaling
``text`` improves end-to-end latency much more than scaling
``composePost``.

The experiment injects CPU contention on ``text``, then measures the
end-to-end latency distribution (a) unmodified, (b) after scaling
``composePost`` (highest median) to two replicas, and (c) after scaling
``text`` (highest variance) to two replicas, reproducing both panels of
Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec
from repro.metrics.latency import LatencyStats


@dataclass
class Fig4Result:
    """Latency statistics for the three configurations of Fig. 4 (right)."""

    before: LatencyStats
    scale_compose: LatencyStats
    scale_text: LatencyStats
    #: Per-service sojourn-time statistics before scaling (Fig. 4, left).
    text_individual: LatencyStats
    compose_individual: LatencyStats

    @property
    def text_beats_compose(self) -> bool:
        """Whether scaling the high-variance service gives the lower tail latency."""
        return self.scale_text.p99 <= self.scale_compose.p99

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports."""
        return {
            "before_p99_ms": self.before.p99,
            "scale_compose_p99_ms": self.scale_compose.p99,
            "scale_text_p99_ms": self.scale_text.p99,
            "text_individual_std_ms": self.text_individual.std,
            "compose_individual_std_ms": self.compose_individual.std,
            "text_individual_median_ms": self.text_individual.median,
            "compose_individual_median_ms": self.compose_individual.median,
        }


def _run_configuration(
    scale_service: str | None,
    duration_s: float,
    load_rps: float,
    intensity: float,
    seed: int,
) -> ExperimentHarness:
    """Run one configuration (optionally pre-scaling one service to 2 replicas)."""
    campaign = AnomalyCampaign("fig4")
    campaign.add(
        AnomalySpec(
            anomaly_type=AnomalyType.CPU_UTILIZATION,
            target_service="text",
            start_s=5.0,
            duration_s=duration_s - 5.0,
            intensity=intensity,
        )
    )
    spec = ScenarioSpec(
        application="social_network",
        seed=seed,
        duration_s=duration_s,
        load_rps=load_rps,
        request_mix=[("post-compose", 1.0)],
        controller="none",
        campaign=campaign,
    )
    harness = ExperimentHarness.from_spec(spec)
    if scale_service is not None:
        profile = harness.cluster.profile_of(scale_service)
        harness.cluster.deploy_service(profile, replicas=1)
    harness.run(load_rps=load_rps)
    return harness


def run_fig4(
    duration_s: float = 60.0,
    load_rps: float = 40.0,
    intensity: float = 0.8,
    seed: int = 5,
) -> Fig4Result:
    """Reproduce Fig. 4: before vs scale-composePost vs scale-text."""
    before = _run_configuration(None, duration_s, load_rps, intensity, seed)
    scaled_compose = _run_configuration("composePost", duration_s, load_rps, intensity, seed)
    scaled_text = _run_configuration("text", duration_s, load_rps, intensity, seed)

    def _latencies(harness: ExperimentHarness) -> List[float]:
        return [
            trace.end_to_end_latency_ms
            for trace in harness.coordinator.store.completed_traces("post-compose")
            if (trace.arrival_time or 0.0) >= 10.0
        ]

    per_service = before.coordinator.per_service_latencies_ms(duration_s)
    return Fig4Result(
        before=LatencyStats.from_samples(_latencies(before)),
        scale_compose=LatencyStats.from_samples(_latencies(scaled_compose)),
        scale_text=LatencyStats.from_samples(_latencies(scaled_text)),
        text_individual=LatencyStats.from_samples(per_service.get("text", [])),
        compose_individual=LatencyStats.from_samples(per_service.get("composePost", [])),
    )
