"""Fig. 3 — latency distributions of minimum vs maximum critical paths.

For each of the four benchmark applications the paper plots the CDF of
end-to-end latency for the CP (grouped by service signature) with the
lowest and the highest latency, observing roughly 1.6x spread in median
latency and up to 2.5x in the 99th percentile.  The experiment runs each
application under a random anomaly campaign, extracts every request's CP,
groups CPs by signature, and reports the latency distributions of the
fastest and slowest groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from repro.apps.catalog import APPLICATIONS
from repro.core.critical_path import CriticalPathExtractor
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec, random_campaign_builder
from repro.metrics.latency import LatencyStats, cdf_points


@dataclass
class CPDistribution:
    """Min-CP vs max-CP latency distributions for one application."""

    application: str
    min_cp: LatencyStats
    max_cp: LatencyStats
    min_cp_samples: List[float]
    max_cp_samples: List[float]

    @property
    def median_ratio(self) -> float:
        """Max-CP median divided by min-CP median (paper reports ≈1.6x)."""
        if self.min_cp.median <= 0:
            return 0.0
        return self.max_cp.median / self.min_cp.median

    @property
    def p99_ratio(self) -> float:
        """Max-CP p99 divided by min-CP p99 (paper reports up to ≈2.5x)."""
        if self.min_cp.p99 <= 0:
            return 0.0
        return self.max_cp.p99 / self.min_cp.p99

    def cdf(self, points: int = 50) -> Dict[str, List]:
        """CDF points for both groups (the series plotted in Fig. 3)."""
        return {
            "min_cp": cdf_points(self.min_cp_samples, points),
            "max_cp": cdf_points(self.max_cp_samples, points),
        }


def run_fig3_for_application(
    application: str,
    duration_s: float = 90.0,
    load_rps: float = 60.0,
    seed: int = 11,
) -> CPDistribution:
    """Collect min/max-CP latency distributions for one application."""
    spec = ScenarioSpec(
        application=application,
        seed=seed,
        duration_s=duration_s,
        load_rps=load_rps,
        controller="none",
        campaign_builder=partial(
            random_campaign_builder, duration_s=duration_s, rate_per_s=0.15
        ),
    )
    harness = ExperimentHarness.from_spec(spec)
    harness.run(load_rps=load_rps)

    extractor = CriticalPathExtractor()
    traces = harness.coordinator.store.completed_traces()
    paths = extractor.extract_all(traces)
    split = extractor.min_max_signature_latencies(paths)
    return CPDistribution(
        application=application,
        min_cp=LatencyStats.from_samples(split["min_cp"]),
        max_cp=LatencyStats.from_samples(split["max_cp"]),
        min_cp_samples=split["min_cp"],
        max_cp_samples=split["max_cp"],
    )


def run_fig3(
    applications: List[str] = None,
    duration_s: float = 90.0,
    load_rps: float = 60.0,
    seed: int = 11,
) -> Dict[str, CPDistribution]:
    """Reproduce Fig. 3 for all (or a subset of) the benchmark applications."""
    if applications is None:
        applications = list(APPLICATIONS)
    return {
        application: run_fig3_for_application(
            application, duration_s=duration_s, load_rps=load_rps, seed=seed
        )
        for application in applications
    }
