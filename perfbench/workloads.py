"""The benchmark's workloads, each built as a ScenarioSpec from a seed.

Every workload is an open loop in simulated time: Poisson arrivals at a
fixed rate per tenant.  The program only ever receives the spec built
here; the seed is the spec's master seed.  One benchmark run executes
``scenarios`` specs of a workload, on seeds derived from the run's seed
(:func:`scenario_seeds`), so a run's simulated outcome is a median over
several independent scenarios rather than one draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, List

from repro.experiments.interference import aggressor_victim
from repro.experiments.metastable import MetastableCase, metastable_scenario_spec
from repro.experiments.scenario import ScenarioSpec, random_campaign_builder
from repro.sim.rng import SeededRNG

#: Seconds at the start of every scenario left out of SLO accounting.
WARMUP_S = 2.0

#: A seed never used while the benchmark or a change is tuned; confirm a
#: claimed gain on it before accepting the claim.
HELD_OUT_SEED = 7919

#: Seed of firm_campaign's anomaly schedule.  The schedule is part of the
#: workload's definition, like a recorded trace: the run seed varies the
#: arrivals, service times and FIRM's exploration, not where anomalies
#: land.  Per-seed schedules make the run's p99 swing from 80 ms to 5 s.
FIRM_CAMPAIGN_SEED = 0


def colocated_tenants(seed: int) -> ScenarioSpec:
    """Victim (hotel_reservation, 15 rps) beside an aggressor
    (social_network, 200 rps) on one node; no controller, no anomaly.

    The preset's 300 rps aggressor sits on a metastable edge: some seeds
    collapse into an unbounded queue and others never do.  At 200 rps no
    seed collapses, and every dispatch still scans all co-located
    containers."""
    return aggressor_victim(
        duration_s=10.0, seed=seed, aggressor_load_rps=200.0
    ).with_overrides(warmup_s=WARMUP_S)


def firm_campaign(seed: int) -> ScenarioSpec:
    """The Fig. 10 setting: social_network at 60 rps on the 9+6 cluster,
    FIRM (one-for-all agent, online training), random resource anomalies.

    45 s lets FIRM's 30 s right-sizing act for the last third of the run."""
    duration_s = 45.0
    return ScenarioSpec(
        application="social_network",
        seed=seed,
        duration_s=duration_s,
        load_rps=60.0,
        controller="firm",
        campaign_builder=partial(
            _fixed_campaign,
            duration_s=duration_s,
            rate_per_s=0.33,
            min_intensity=0.7,
            resource_only=True,
        ),
        warmup_s=WARMUP_S,
    )


def _fixed_campaign(harness, **campaign):
    """``random_campaign_builder`` drawing from FIRM_CAMPAIGN_SEED."""
    fixed = SimpleNamespace(app=harness.app, rng=SeededRNG(FIRM_CAMPAIGN_SEED))
    return random_campaign_builder(fixed, **campaign)


def dispatch_survival(seed: int) -> ScenarioSpec:
    """Replicated social_network behind three stale-JIQ dispatchers with
    the survival-kit gate and a transient entry-service anomaly.

    140 rps is above the kit's 120 rps token bucket, so the gate sheds
    on every seed."""
    case = MetastableCase(
        seed=seed,
        duration_s=20.0,
        load_rps=140.0,
        admission="survival_kit",
        dispatchers=3,
        dispatch_variant="jiq",
        replicas_per_service=3,
    )
    return metastable_scenario_spec(case).with_overrides(warmup_s=WARMUP_S)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], ScenarioSpec]
    #: Scenarios (distinct seeds) one benchmark run executes.
    scenarios: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("colocated_tenants", colocated_tenants, scenarios=4),
        Workload("firm_campaign", firm_campaign, scenarios=7),
        Workload("dispatch_survival", dispatch_survival, scenarios=5),
    )
}


def scenario_seeds(workload: str, seed: int) -> List[int]:
    """The scenario seeds one run with ``seed`` executes."""
    return [seed * 1000 + index for index in range(WORKLOADS[workload].scenarios)]
