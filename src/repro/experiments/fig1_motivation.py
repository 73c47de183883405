"""Fig. 1 — motivation: latency spikes under memory-bandwidth contention.

The paper's opening figure shows a 99th-percentile latency spike caused by
memory-bandwidth contention that the Kubernetes autoscaler cannot mitigate
(its heuristics only watch CPU utilization, which does not change), while
FIRM scales the right fine-grained resource and keeps the tail flat.

The experiment injects a memory-bandwidth anomaly against a
cache-tier service in Social Network while recording a per-interval
99th-percentile latency timeline with and without FIRM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec


@dataclass
class Fig1Result:
    """Timeline of tail latency with and without FIRM."""

    times_s: List[float]
    p99_without_firm_ms: List[float]
    p99_with_firm_ms: List[float]
    anomaly_start_s: float
    anomaly_end_s: float
    slo_ms: float

    def peak_without_firm(self) -> float:
        """Highest tail latency observed without FIRM during the anomaly."""
        return max(self._during(self.p99_without_firm_ms), default=0.0)

    def peak_with_firm(self) -> float:
        """Highest tail latency observed with FIRM during the anomaly."""
        return max(self._during(self.p99_with_firm_ms), default=0.0)

    def _during(self, series: List[float]) -> List[float]:
        return [
            value
            for time, value in zip(self.times_s, series)
            # Allow detection/actuation lag: look slightly past the window.
            if self.anomaly_start_s <= time <= self.anomaly_end_s + 20.0
        ]

    def improvement_factor(self) -> float:
        """Peak tail latency without FIRM divided by peak with FIRM."""
        with_firm = self.peak_with_firm()
        if with_firm <= 0:
            return 0.0
        return self.peak_without_firm() / with_firm

    def rows(self) -> List[Dict[str, float]]:
        """Timeline rows for reports (one per sampling interval)."""
        return [
            {
                "time_s": time,
                "p99_without_firm_ms": without,
                "p99_with_firm_ms": with_firm,
            }
            for time, without, with_firm in zip(
                self.times_s, self.p99_without_firm_ms, self.p99_with_firm_ms
            )
        ]


def _run_timeline(
    with_firm: bool,
    duration_s: float,
    load_rps: float,
    anomaly_start_s: float,
    anomaly_duration_s: float,
    intensity: float,
    target_service: str,
    seed: int,
    sample_period_s: float,
) -> List[float]:
    """Run one scenario and return the per-interval p99 latency series."""
    campaign = AnomalyCampaign("fig1")
    # The paper's Fig. 1 stresses memory bandwidth on the server hosting the
    # cache tier; we hit the nodes hosting the read-path caches so that the
    # contention is visible end-to-end.
    for target in (target_service, "user-timeline-memcached", "user-memcached"):
        campaign.add(
            AnomalySpec(
                anomaly_type=AnomalyType.MEMORY_BANDWIDTH,
                target_service=target,
                start_s=anomaly_start_s,
                duration_s=anomaly_duration_s,
                intensity=intensity,
            )
        )
    spec = ScenarioSpec(
        application="social_network",
        seed=seed,
        duration_s=duration_s,
        load_rps=load_rps,
        controller="firm" if with_firm else "none",
        campaign=campaign,
    )
    harness = ExperimentHarness.from_spec(spec)

    p99_series: List[float] = []

    def _sample(engine) -> None:
        p99_series.append(
            harness.coordinator.latency_percentile_ms(99.0, sample_period_s)
        )

    harness.engine.schedule_recurring(sample_period_s, _sample, name="fig1-sample")
    harness.run(load_rps=load_rps)
    return p99_series


def run_fig1(
    duration_s: float = 120.0,
    load_rps: float = 60.0,
    anomaly_start_s: float = 40.0,
    anomaly_duration_s: float = 40.0,
    intensity: float = 0.95,
    target_service: str = "post-storage-memcached",
    seed: int = 7,
    sample_period_s: float = 5.0,
) -> Fig1Result:
    """Reproduce Fig. 1: the same anomaly with and without FIRM."""
    without = _run_timeline(
        False, duration_s, load_rps, anomaly_start_s, anomaly_duration_s,
        intensity, target_service, seed, sample_period_s,
    )
    with_firm = _run_timeline(
        True, duration_s, load_rps, anomaly_start_s, anomaly_duration_s,
        intensity, target_service, seed, sample_period_s,
    )
    length = min(len(without), len(with_firm))
    times = [sample_period_s * (index + 1) for index in range(length)]
    slo = 150.0
    return Fig1Result(
        times_s=times,
        p99_without_firm_ms=without[:length],
        p99_with_firm_ms=with_firm[:length],
        anomaly_start_s=anomaly_start_s,
        anomaly_end_s=anomaly_start_s + anomaly_duration_s,
        slo_ms=slo,
    )
