"""Metastable-failure scenarios: transient anomalies meeting retry storms.

A *metastable failure* (Bronson et al., HotOS'21) is a self-sustaining
overload: a transient trigger (here, an injected resource anomaly) pushes
a service past its capacity knee, clients respond with retries, the retry
amplification keeps the service saturated after the trigger clears, and
the system stays degraded until something sheds load.  This module turns
that failure shape into a first-class, scored scenario family on top of
the admission subsystem (:mod:`repro.admission`), the distributed
dispatchers (:mod:`repro.routing.dispatchers`), and the resilience
scoring machinery (:mod:`repro.experiments.resilience`):

* :class:`MetastableCase` — one cell: application, seed, load, admission
  policy, dispatcher topology, and the transient anomaly (start,
  duration, intensity), as pure picklable data;
* :func:`run_metastable_case` — runs the cell end to end and scores it
  the resilience way (SLO-violation seconds, time-to-mitigate,
  windowed localization precision/recall via
  :class:`~repro.experiments.resilience.LocalizationScorer`) plus the
  admission axis (shed/retry/hedge counts, request amplification);
* three campaigns:

  - ``retry_storm`` — the same transient anomaly under ``none`` /
    ``naive_retries`` / ``survival_kit`` admission, showing naive
    retries amplifying the trigger and the survival kit damping it;
  - ``shed_vs_violate`` — a rate-limit sweep mapping the tradeoff
    between shedding requests and violating SLOs on the survivors;
  - ``staleness_grid`` — dispatcher count × view staleness, showing
    how stale partial views degrade tail latency under pressure;

* :func:`metastable_macro_spec` — the ``dispatch_admission`` perf macro
  scenario (dispatchers + survival kit + transient anomaly, end to end).

The CLI front ends are ``repro.cli run metastable --campaign ...`` and
``repro.cli sweep --admission ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admission.config import (
    ADMISSION_PRESETS,
    AdmissionConfig,
    resolve_admission_config,
)
from repro.anomaly.anomalies import AnomalyScope, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign, single_anomaly_sweep
from repro.apps.catalog import build_application
from repro.experiments.resilience import LocalizationScorer, WindowScore
from repro.experiments.scenario import ScenarioSpec

#: The campaign kinds ``run_metastable_campaign`` knows.
METASTABLE_CAMPAIGNS: Tuple[str, ...] = (
    "retry_storm",
    "shed_vs_violate",
    "staleness_grid",
)


@dataclass
class MetastableCase:
    """One metastable-failure cell, as pure picklable data.

    Attributes
    ----------
    application / controller / seed / load_rps:
        As on :class:`~repro.experiments.scenario.ScenarioSpec`.
    duration_s:
        Scenario duration (the anomaly is transient; everything after
        ``anomaly_start_s + anomaly_duration_s`` measures whether the
        system *recovers* or stays metastable).
    admission:
        Admission preset name (see
        :data:`~repro.admission.config.ADMISSION_PRESETS`).
    rate_limit_rps:
        Optional override of the preset's token-bucket rate — the
        shed-vs-violate sweep's moving part.
    dispatchers / dispatch_variant / dispatch_staleness_s:
        Distributed-dispatch knobs, as on the spec.
    anomaly_start_s / anomaly_duration_s / anomaly_intensity:
        The transient trigger: one service-wide anomaly of the given
        intensity over ``[start, start + duration)``.
    anomaly_target:
        Target service (None = the application's entry-most service,
        where pressure hurts every request type).
    window_s / significant_intensity:
        Localization scoring knobs (see
        :class:`~repro.experiments.resilience.ResilienceCase`).
    replicas_per_service:
        Initial replicas for every service (>1 gives dispatchers a
        replica set to disagree about).
    cluster_nodes:
        Optional (x86, ppc64) topology override.
    """

    application: str = "social_network"
    controller: str = "none"
    seed: int = 0
    load_rps: float = 70.0
    duration_s: float = 30.0
    admission: str = "none"
    rate_limit_rps: Optional[float] = None
    dispatchers: int = 1
    dispatch_variant: str = "jiq"
    dispatch_staleness_s: float = 0.25
    anomaly_start_s: float = 5.0
    anomaly_duration_s: float = 8.0
    anomaly_intensity: float = 0.9
    anomaly_target: Optional[str] = None
    window_s: float = 5.0
    significant_intensity: float = 0.5
    replicas_per_service: int = 2
    cluster_nodes: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.admission not in ADMISSION_PRESETS:
            known = ", ".join(sorted(ADMISSION_PRESETS))
            raise ValueError(
                f"unknown admission preset {self.admission!r}; known: {known}"
            )
        if self.anomaly_duration_s <= 0.0:
            raise ValueError(
                f"anomaly_duration_s must be > 0, got {self.anomaly_duration_s}"
            )

    @property
    def case_id(self) -> str:
        """Stable human-readable identity (keys campaign scoreboards)."""
        parts = [
            f"metastable[{self.application}/{self.controller}"
            f"/admission={self.admission}]",
            f"seed={self.seed}",
            f"load={self.load_rps:g}",
        ]
        if self.rate_limit_rps is not None:
            parts.append(f"rate={self.rate_limit_rps:g}")
        if self.dispatchers > 1:
            parts.append(
                f"dispatchers={self.dispatchers}:{self.dispatch_variant}"
                f"@{self.dispatch_staleness_s:g}"
            )
        return "/".join(parts)

    def with_overrides(self, **overrides) -> "MetastableCase":
        """A copy of this case with the given fields replaced."""
        return replace(self, **overrides)

    def resolved_admission(self) -> Optional[AdmissionConfig]:
        """The case's admission config with the rate override applied."""
        config = resolve_admission_config(self.admission)
        if self.rate_limit_rps is None:
            return config
        base = config if config is not None else ADMISSION_PRESETS[self.admission]
        return base.with_overrides(
            name=f"{base.name}@{self.rate_limit_rps:g}rps",
            rate_limit_rps=float(self.rate_limit_rps),
        )


@dataclass
class MetastableOutcome:
    """Scored result of one metastable case."""

    case: MetastableCase
    windows: List[WindowScore] = field(default_factory=list)
    precision: float = 1.0
    recall: float = 1.0
    #: Total seconds the SLO was in violation.
    slo_violation_seconds: float = 0.0
    #: Mean violation-episode duration.
    time_to_mitigate_s: float = 0.0
    #: Seconds the SLO stayed in violation *after* the trigger cleared —
    #: the metastability signal (a recovering system drives this to ~0;
    #: a metastable one accrues it for the rest of the run).
    post_trigger_violation_s: float = 0.0
    #: Headline SLO numbers.
    summary: Dict[str, float] = field(default_factory=dict)
    #: The admission gate's ``snapshot()`` (None with admission off).
    admission: Optional[Dict[str, object]] = None
    #: Physical attempts per admitted logical request (1.0 = no
    #: amplification; the retry-storm fuel gauge).
    amplification: float = 1.0

    @property
    def case_id(self) -> str:
        return self.case.case_id

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly row (used by the CLI and scoreboards)."""
        return {
            "case_id": self.case_id,
            "application": self.case.application,
            "controller": self.case.controller,
            "admission": self.case.admission,
            "rate_limit_rps": self.case.rate_limit_rps,
            "dispatchers": self.case.dispatchers,
            "dispatch_variant": self.case.dispatch_variant,
            "dispatch_staleness_s": self.case.dispatch_staleness_s,
            "seed": self.case.seed,
            "precision": self.precision,
            "recall": self.recall,
            "windows_scored": len(self.windows),
            "slo_violation_seconds": self.slo_violation_seconds,
            "time_to_mitigate_s": self.time_to_mitigate_s,
            "post_trigger_violation_s": self.post_trigger_violation_s,
            "amplification": self.amplification,
            "summary": dict(self.summary),
            "admission_stats": dict(self.admission) if self.admission else None,
        }


# ---------------------------------------------------------------------------
# Case construction and execution
# ---------------------------------------------------------------------------

def build_metastable_campaign(case: MetastableCase) -> AnomalyCampaign:
    """The case's transient trigger: one service-wide anomaly burst."""
    target = case.anomaly_target
    if target is None:
        target = build_application(case.application).service_names()[0]
    return single_anomaly_sweep(
        AnomalyType.CPU_UTILIZATION,
        target,
        intensities=(case.anomaly_intensity,),
        step_duration_s=case.anomaly_duration_s,
        gap_s=0.0,
        start_s=case.anomaly_start_s,
        scope=AnomalyScope.SERVICE_WIDE,
    )


def metastable_scenario_spec(case: MetastableCase) -> ScenarioSpec:
    """Expand one case into the scenario spec the harness builds from."""
    from repro.experiments.routing import replicated_services

    replicas = (
        replicated_services(case.application, case.replicas_per_service)
        if case.replicas_per_service > 1
        else None
    )
    return ScenarioSpec(
        application=case.application,
        seed=case.seed,
        duration_s=case.duration_s,
        load_rps=case.load_rps,
        controller=case.controller,
        campaign=build_metastable_campaign(case),
        replicas=replicas,
        cluster_nodes=case.cluster_nodes,
        dispatchers=case.dispatchers,
        dispatch_variant=case.dispatch_variant,
        dispatch_staleness_s=case.dispatch_staleness_s,
        admission=case.resolved_admission(),
    )


def run_metastable_case(
    case: MetastableCase, observability: bool = False
) -> MetastableOutcome:
    """Run one metastable cell end to end and score it.

    Scoring combines the resilience axes (windowed localization
    precision/recall, SLO-violation seconds, time-to-mitigate) with the
    admission axis (shed/retry/hedge counts and request amplification)
    and the metastability signal itself: SLO-violation seconds accrued
    *after* the transient trigger cleared.

    ``observability=True`` additionally runs with the PR 8 obs bundle so
    the returned harness result carries the event journal
    (``admission_decision`` / ``retry`` / ``breaker_transition`` records
    included) — the CLI's ``--obs-dir`` uses it to write a run record.
    """
    outcome, _, _ = _run_metastable_case_with_result(case, observability)
    return outcome


def _run_metastable_case_with_result(
    case: MetastableCase, observability: bool = False
):
    """Run + score one case, also returning the raw result and harness.

    Returns ``(outcome, result, harness)`` — the CLI's ``--obs-dir`` path
    needs the live harness so the run record's trace export can reach
    the span stores.
    """
    spec = metastable_scenario_spec(case)
    if observability:
        spec = spec.with_overrides(observability=True)
    from repro.experiments.harness import ExperimentHarness

    harness = ExperimentHarness.from_spec(spec)
    scorer = LocalizationScorer(
        harness,
        harness.tenants[0],
        window_s=case.window_s,
        significant_intensity=case.significant_intensity,
    )
    scorer.attach(until_s=spec.duration_s, name="metastable-evaluate")
    result = harness.run()

    trigger_end = case.anomaly_start_s + case.anomaly_duration_s
    post_trigger = 0.0
    for episode in result.mitigation.episodes:
        end = episode.end_s if episode.end_s is not None else case.duration_s
        overlap = end - max(episode.start_s, trigger_end)
        if overlap > 0.0:
            post_trigger += overlap

    precision, recall = scorer.micro_averages()
    admission = result.admission
    amplification = 1.0
    if admission is not None:
        amplification = float(admission.get("amplification") or 1.0)
    outcome = MetastableOutcome(
        case=case,
        windows=scorer.windows,
        precision=precision,
        recall=recall,
        slo_violation_seconds=float(sum(result.mitigation.mitigation_times_s())),
        time_to_mitigate_s=result.mitigation.mean_mitigation_time_s(),
        post_trigger_violation_s=post_trigger,
        summary=result.summary(),
        admission=admission,
        amplification=amplification,
    )
    return outcome, result, harness


def _run_one_metastable(case: MetastableCase) -> MetastableOutcome:
    """Worker entry point (module-level so it pickles across processes)."""
    return run_metastable_case(case)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

#: Admission presets the retry-storm campaign compares, in severity order.
RETRY_STORM_PRESETS: Tuple[str, ...] = ("none", "naive_retries", "survival_kit")

#: Rate limits (rps) the shed-vs-violate sweep walks.
SHED_VS_VIOLATE_RATES: Tuple[float, ...] = (40.0, 60.0, 80.0, 100.0, 120.0)

#: (dispatchers, staleness_s) grid of the staleness campaign.
STALENESS_GRID: Tuple[Tuple[int, float], ...] = (
    (1, 0.0),
    (2, 0.05),
    (2, 0.5),
    (4, 0.05),
    (4, 0.5),
)


def retry_storm_cases(
    seed: int = 0,
    presets: Sequence[str] = RETRY_STORM_PRESETS,
    base: Optional[MetastableCase] = None,
) -> List[MetastableCase]:
    """The retry-storm comparison: one trigger, N admission policies."""
    template = base if base is not None else MetastableCase(seed=seed)
    return [
        template.with_overrides(seed=seed, admission=preset) for preset in presets
    ]


def shed_vs_violate_cases(
    seed: int = 0,
    rates: Sequence[float] = SHED_VS_VIOLATE_RATES,
    base: Optional[MetastableCase] = None,
) -> List[MetastableCase]:
    """The shed-vs-violate sweep: shedding rate limit as the knob."""
    template = base if base is not None else MetastableCase(seed=seed)
    return [
        template.with_overrides(
            seed=seed, admission="shed_only", rate_limit_rps=float(rate)
        )
        for rate in rates
    ]


def staleness_grid_cases(
    seed: int = 0,
    grid: Sequence[Tuple[int, float]] = STALENESS_GRID,
    variant: str = "jiq",
    base: Optional[MetastableCase] = None,
) -> List[MetastableCase]:
    """The dispatcher-staleness grid (dispatchers × view staleness)."""
    template = base if base is not None else MetastableCase(seed=seed)
    return [
        template.with_overrides(
            seed=seed,
            dispatchers=int(dispatchers),
            dispatch_variant=variant,
            dispatch_staleness_s=float(staleness),
        )
        for dispatchers, staleness in grid
    ]


def metastable_campaign_cases(
    campaign: str, seed: int = 0, quick: bool = False, **case_overrides
) -> List[MetastableCase]:
    """Expand one named campaign into its case list.

    ``quick`` shrinks durations and grids for smoke runs (CI's
    failure-smoke job): shorter scenarios, the same trigger, fewer
    sweep points.  Extra keyword arguments override fields on the base
    case (after the quick-mode shrink), e.g. ``load_rps=90.0``.
    """
    if campaign not in METASTABLE_CAMPAIGNS:
        known = ", ".join(METASTABLE_CAMPAIGNS)
        raise ValueError(f"unknown metastable campaign {campaign!r}; known: {known}")
    base = MetastableCase(seed=seed)
    if quick:
        base = base.with_overrides(
            duration_s=15.0, anomaly_start_s=2.5, anomaly_duration_s=5.0
        )
    if case_overrides:
        base = base.with_overrides(**case_overrides)
    if campaign == "retry_storm":
        return retry_storm_cases(seed=seed, base=base)
    if campaign == "shed_vs_violate":
        rates = (50.0, 80.0, 110.0) if quick else SHED_VS_VIOLATE_RATES
        return shed_vs_violate_cases(seed=seed, rates=rates, base=base)
    grid = ((1, 0.0), (2, 0.5), (4, 0.5)) if quick else STALENESS_GRID
    return staleness_grid_cases(seed=seed, grid=grid, base=base)


def run_metastable_campaign(
    campaign: str,
    seed: int = 0,
    quick: bool = False,
    workers: int = 1,
    progress=None,
    **case_overrides,
) -> Dict[str, object]:
    """Run one named campaign and assemble its scoreboard payload.

    Returns a JSON-serializable dict: the campaign name, the per-case
    scored rows (in case order), and a campaign-level verdict comparing
    the rows along the campaign's axis (admission policy, rate limit, or
    staleness).
    """
    from repro.experiments.sweep import run_parallel

    cases = metastable_campaign_cases(campaign, seed=seed, quick=quick, **case_overrides)
    outcomes = run_parallel(
        cases, _run_one_metastable, workers=workers, progress=progress
    )
    rows = [outcome.as_dict() for outcome in outcomes]
    return {
        "campaign": campaign,
        "seed": seed,
        "quick": quick,
        "cases": rows,
        "verdict": _campaign_verdict(campaign, outcomes),
    }


def _campaign_verdict(
    campaign: str, outcomes: Sequence[MetastableOutcome]
) -> Dict[str, object]:
    """Campaign-level comparison along the campaign's axis."""
    if campaign == "retry_storm":
        by_preset = {o.case.admission: o for o in outcomes}
        naive = by_preset.get("naive_retries")
        kit = by_preset.get("survival_kit")
        return {
            "axis": "admission",
            "violation_seconds": {
                name: o.slo_violation_seconds for name, o in by_preset.items()
            },
            "post_trigger_violation_s": {
                name: o.post_trigger_violation_s for name, o in by_preset.items()
            },
            "amplification": {
                name: o.amplification for name, o in by_preset.items()
            },
            "kit_damps_storm": (
                naive is not None
                and kit is not None
                and kit.post_trigger_violation_s <= naive.post_trigger_violation_s
            ),
        }
    if campaign == "shed_vs_violate":
        curve = []
        for outcome in outcomes:
            stats = outcome.admission or {}
            submitted = float(stats.get("submitted") or 0.0)
            shed = float(stats.get("shed") or 0.0)
            curve.append(
                {
                    "rate_limit_rps": outcome.case.rate_limit_rps,
                    "shed_fraction": shed / submitted if submitted else 0.0,
                    "violation_rate": outcome.summary.get("violation_rate", 0.0),
                    "violation_seconds": outcome.slo_violation_seconds,
                }
            )
        return {"axis": "rate_limit_rps", "tradeoff_curve": curve}
    cells = [
        {
            "dispatchers": outcome.case.dispatchers,
            "staleness_s": outcome.case.dispatch_staleness_s,
            "p99_ms": outcome.summary.get("p99_ms", 0.0),
            "violation_seconds": outcome.slo_violation_seconds,
        }
        for outcome in outcomes
    ]
    return {"axis": "dispatchers x staleness", "grid": cells}


# ---------------------------------------------------------------------------
# Admission sweep grid (the ``sweep --admission`` front end)
# ---------------------------------------------------------------------------

def metastable_sweep_grid(
    presets: Sequence[str],
    seeds: Sequence[int] = (0,),
    base: Optional[MetastableCase] = None,
    **case_overrides,
) -> List[MetastableCase]:
    """Expand the admission-preset × seed cross product.

    ``base`` supplies defaults for every field the grid does not set;
    extra keyword arguments override fields on every case.  Preset-major
    order, mirroring :func:`repro.experiments.sweep.sweep_grid`.
    """
    for preset in presets:
        if preset not in ADMISSION_PRESETS:
            known = ", ".join(sorted(ADMISSION_PRESETS))
            raise ValueError(f"unknown admission preset {preset!r}; known: {known}")
    template = base if base is not None else MetastableCase()
    if case_overrides:
        template = template.with_overrides(**case_overrides)
    return [
        template.with_overrides(admission=preset, seed=int(seed))
        for preset in presets
        for seed in seeds
    ]


def run_metastable_sweep(
    cases: Sequence[MetastableCase],
    workers: int = 1,
    progress=None,
) -> List[MetastableOutcome]:
    """Run every case, optionally across ``workers`` spawned processes.

    Returns outcomes **in the input order** regardless of worker finish
    order; every stochastic stream derives from the case's own seed, so
    the parallel sweep is bit-identical to the serial one.
    """
    from repro.experiments.sweep import run_parallel

    return run_parallel(cases, _run_one_metastable, workers=workers, progress=progress)


# ---------------------------------------------------------------------------
# The dispatch_admission perf macro
# ---------------------------------------------------------------------------

def metastable_macro_spec(duration_s: float, seed: int = 0) -> ScenarioSpec:
    """The distributed-dispatch + admission perf macro (see :mod:`repro.perf`).

    A replicated social network behind three stale-JIQ dispatchers with
    the full survival kit attached and a transient anomaly early in the
    run: every request crosses the dispatcher views and the admission
    gate, failures exercise the retry/hedge paths, and the breaker and
    token-bucket bookkeeping run hot — the new subsystems' end-to-end
    cost, timed against the classic router baseline.
    """
    case = MetastableCase(
        seed=seed,
        duration_s=duration_s,
        admission="survival_kit",
        dispatchers=3,
        dispatch_variant="jiq",
        # Arrivals must hit the anomaly inside even the 5 s quick-mode
        # window, or the CI perf gate would time an anomaly-free run.
        anomaly_start_s=0.5,
        anomaly_duration_s=min(5.0, duration_s / 3.0),
    )
    return metastable_scenario_spec(case)
