"""Sharded scenario execution: one event shard per tenant subset.

The classic harness runs every tenant of a multi-tenant scenario on one
shared :class:`~repro.sim.engine.SimulationEngine`.  This module splits
the scenario into *shards* — disjoint tenant subsets, each with its own
engine, heap, RNG family, and cluster replica — and advances them under
the conservative time-window barrier of
:mod:`repro.sim.sync`.  Tenants never call each other's services, so the
only cross-shard coupling is node-level resource contention; at every
window barrier each shard publishes its per-node demand digest and
absorbs the other shards' summed demand as remote node pressure
(:meth:`repro.cluster.cluster.Cluster.apply_remote_pressure`).

Determinism contract (two tiers)
--------------------------------
* ``shards == 1`` **bypasses** this module entirely
  (:func:`run_sharded_scenario` calls
  :func:`~repro.experiments.scenario.run_scenario`), so the unsharded
  path stays byte-identical to the classic engine.
* ``shards >= 2`` pins its own contract: same seed + same shard count
  gives identical results, whether shards run serially in one process
  (``mode="inprocess"``) or across spawned worker processes
  (``mode="process"``).  Everything order-dependent is fixed: the
  round-robin tenant partition, the barrier schedule, the ascending
  shard-index digest merge, and per-shard request-id counters (so an
  in-process shard numbers requests exactly like a fresh process would).

Sharded results are *not* byte-identical to the unsharded run of the
same spec: remote demand is exchanged at window granularity instead of
instantaneously.  The window is sized by
:func:`~repro.sim.shard.conservative_window_s` so the approximation
stays within the fidelity the unsharded engine itself offers (contention
already feeds a slow queueing-delay term sampled at telemetry cadence).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.catalog import build_application
from repro.cluster.resources import Resource
from repro.experiments.harness import ExperimentResult, RunSession
from repro.experiments.scenario import ScenarioSpec, run_scenario
from repro.experiments.sweep import WorkerTeam
from repro.metrics.latency import LatencyStats
from repro.metrics.slo import MitigationTracker, merge_slo_trackers
from repro.obs.journal import EventJournal, merge_journal_records
from repro.obs.registry import merge_registries
from repro.sim.shard import (
    ShardDigest,
    conservative_window_s,
    merge_telemetry_digests,
    partition_round_robin,
)
from repro.sim.sync import ConservativeWindowSync, SyncStats


# --------------------------------------------------------------------- plan
@dataclass
class ShardPlan:
    """The deterministic decomposition of one scenario into shards.

    Attributes
    ----------
    spec:
        The full (multi-tenant) scenario.
    shards:
        Shard count (>= 2; ``shards == 1`` never builds a plan).
    window_s:
        Conservative barrier spacing shared by every shard.
    sub_specs:
        One :class:`ScenarioSpec` per shard: the full spec with
        ``tenants`` narrowed to that shard's round-robin subset.  Seed,
        duration, topology, and routing stay scenario-wide, so a tenant's
        RNG family (spawned as ``tenant:<name>`` from the master seed) is
        identical to its unsharded one.
    """

    spec: ScenarioSpec
    shards: int
    window_s: float
    sub_specs: List[ScenarioSpec] = field(default_factory=list)

    @property
    def tenant_names(self) -> List[str]:
        """Tenant names in global (spec) order — the merge order."""
        return [tenant.name for tenant in self.spec.tenants]


def _min_service_time_s(spec: ScenarioSpec) -> float:
    """Smallest base service time across every tenant's application."""
    minimum_ms: Optional[float] = None
    for tenant in spec.tenants:
        app = build_application(tenant.application)
        for node in app.services.values():
            base_ms = node.profile.base_service_time_ms
            if minimum_ms is None or base_ms < minimum_ms:
                minimum_ms = base_ms
    if minimum_ms is None or minimum_ms <= 0:
        return 0.001
    return minimum_ms / 1000.0


def plan_shards(spec: ScenarioSpec, shards: int) -> ShardPlan:
    """Partition ``spec`` into a :class:`ShardPlan` (requires tenants).

    Raises
    ------
    ValueError
        For non-multi-tenant specs (there is nothing to shard: the
        decomposition unit is the tenant), ``shards < 2``, or more shards
        than tenants.
    """
    if not spec.tenants:
        raise ValueError(
            "sharded execution requires a multi-tenant scenario "
            "(the shard unit is the tenant); run shards=1 instead"
        )
    if shards < 2:
        raise ValueError(f"plan_shards needs shards >= 2, got {shards}")
    partition = partition_round_robin(list(spec.tenants), shards)
    window_s = conservative_window_s(
        _min_service_time_s(spec), sample_period_s=spec.sample_period_s
    )
    sub_specs = [spec.with_overrides(tenants=subset) for subset in partition]
    return ShardPlan(spec=spec, shards=shards, window_s=window_s, sub_specs=sub_specs)


# ------------------------------------------------------------------- worker
@dataclass
class ShardOutcome:
    """Picklable result of one shard's finished run."""

    shard_index: int
    result: ExperimentResult
    violation_samples: List[Tuple[float, bool]]
    processed_events: int


class ShardWorker:
    """The actor driving one shard — in-process or inside a team member.

    Lifecycle: :meth:`prepare` (build harness, start the run session),
    then alternating :meth:`advance` / :meth:`apply_remote` under the
    window synchronizer, then :meth:`finish`.
    """

    def __init__(self, sub_spec: ScenarioSpec, shard_index: int) -> None:
        self.sub_spec = sub_spec
        self.shard_index = shard_index
        self._session: Optional[RunSession] = None
        self._harness = None

    def prepare(self) -> None:
        """Build the shard's harness and set its run session up."""
        from repro.experiments.harness import ExperimentHarness

        # A per-shard request-id counter: ids never influence results, but
        # this makes in-process shard sessions indistinguishable from
        # freshly spawned worker processes (whose module-global counter
        # starts at 1), keeping the two execution modes identical.
        self._harness = ExperimentHarness.from_spec(
            self.sub_spec, request_counter=itertools.count(1)
        )
        if self._harness.obs is not None:
            # Stamp the shard identity on exported journal records so the
            # driver's (t, shard, seq) merge is deterministic.
            self._harness.obs.journal.shard_index = self.shard_index
        self._session = self._harness.begin_run()

    def advance(self, barrier_time: float) -> ShardDigest:
        """Run this shard's events up to the barrier; publish its digest."""
        session = self._require_session()
        session.advance_to(barrier_time)
        harness = self._harness
        return ShardDigest(
            shard_index=self.shard_index,
            time=harness.engine.now,
            node_pressure=harness.cluster.node_demand_snapshot(),
            next_event_time=harness.engine.next_event_time(),
            processed_events=harness.engine.processed_events,
        )

    def apply_remote(self, pressure: Dict[str, Dict[Resource, float]]) -> None:
        """Install the other shards' merged demand as remote node pressure."""
        self._harness.cluster.apply_remote_pressure(pressure)

    def finish(self) -> ShardOutcome:
        """Close the shard's accounting and return its picklable outcome."""
        session = self._require_session()
        result = session.finish()
        return ShardOutcome(
            shard_index=self.shard_index,
            result=result,
            violation_samples=list(session.violation_samples),
            processed_events=self._harness.engine.processed_events,
        )

    def abort(self) -> None:
        """Tear down without results (driver-side failure path)."""
        if self._session is not None:
            self._session.abort()

    def _require_session(self) -> RunSession:
        if self._session is None:
            raise RuntimeError("ShardWorker.prepare() has not been called")
        return self._session


def _shard_worker_factory(sub_specs: List[ScenarioSpec], index: int) -> ShardWorker:
    """Module-level (picklable) actor factory for :class:`WorkerTeam`."""
    return ShardWorker(sub_specs[index], index)


# ----------------------------------------------------------------- channels
class InProcessShardChannel:
    """Shard channel over a :class:`ShardWorker` living in this process.

    ``begin_*`` records the request and ``collect_*`` performs it, so the
    two-phase synchronizer drives in-process shards strictly serially —
    slower than processes on multi-core hosts but identical in results,
    which is exactly what the determinism tests exercise.
    """

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self._pending_barrier: Optional[float] = None
        self._pending_pressure: Optional[Dict[str, Dict[Resource, float]]] = None

    def begin_advance(self, barrier_time: float) -> None:
        self._pending_barrier = barrier_time

    def collect_digest(self) -> ShardDigest:
        barrier_time = self._pending_barrier
        self._pending_barrier = None
        return self.worker.advance(barrier_time)

    def begin_apply(self, pressure: Dict[str, Dict[Resource, float]]) -> None:
        self._pending_pressure = pressure

    def collect_apply(self) -> None:
        pressure = self._pending_pressure
        self._pending_pressure = None
        self.worker.apply_remote(pressure)


class TeamShardChannel:
    """Shard channel over one :class:`WorkerTeam` member.

    ``begin_*`` sends the method call down the member's pipe and returns
    immediately, so every shard process advances its window concurrently;
    ``collect_*`` blocks on the reply.
    """

    def __init__(self, team: WorkerTeam, member: int) -> None:
        self.team = team
        self.member = member

    def begin_advance(self, barrier_time: float) -> None:
        self.team.send(self.member, "advance", barrier_time)

    def collect_digest(self) -> ShardDigest:
        return self.team.recv(self.member)

    def begin_apply(self, pressure: Dict[str, Dict[Resource, float]]) -> None:
        self.team.send(self.member, "apply_remote", pressure)

    def collect_apply(self) -> None:
        self.team.recv(self.member)


# -------------------------------------------------------------------- merge
def _merge_cluster_mitigation(
    outcomes: Sequence[ShardOutcome], end_time: float
) -> MitigationTracker:
    """Rebuild the cluster-level mitigation timeline across shards.

    Every shard samples at the same cadence (the scenario-wide sample
    period, scheduled identically from t=0), so tick ``k`` has the same
    timestamp in every shard; the cluster is violating at a tick when
    *any* shard's tenants are — the same OR the unsharded harness folds
    over its tenants.
    """
    tracker = MitigationTracker()
    tick_count = max((len(o.violation_samples) for o in outcomes), default=0)
    for tick in range(tick_count):
        time_s: Optional[float] = None
        violating = False
        for outcome in outcomes:
            samples = outcome.violation_samples
            if tick < len(samples):
                sample_time, sample_violating = samples[tick]
                time_s = sample_time if time_s is None else time_s
                violating = violating or sample_violating
        if time_s is not None:
            tracker.update(time_s, violating)
    tracker.close(end_time)
    return tracker


def _sum_elementwise(series: Sequence[List[float]]) -> List[float]:
    """Element-wise sum of per-shard sample series (ragged-tail safe)."""
    length = max((len(samples) for samples in series), default=0)
    totals = [0.0] * length
    for samples in series:
        for index, value in enumerate(samples):
            totals[index] += value
    return totals


def _mean_elementwise(series: Sequence[List[float]]) -> List[float]:
    """Element-wise mean of per-shard sample series (ragged-tail safe)."""
    length = max((len(samples) for samples in series), default=0)
    totals = [0.0] * length
    counts = [0] * length
    for samples in series:
        for index, value in enumerate(samples):
            totals[index] += value
            counts[index] += 1
    return [
        totals[index] / counts[index] if counts[index] else 0.0
        for index in range(length)
    ]


def merge_shard_results(plan: ShardPlan, outcomes: Sequence[ShardOutcome]) -> ExperimentResult:
    """Fold per-shard outcomes into one cluster-level result.

    Per-tenant results are taken verbatim from the owning shard and
    re-ordered into the *global* tenant order, so every order-sensitive
    aggregate (merged SLO counts, concatenated latency samples, the
    ``app+app`` labels) matches what the unsharded harness would produce
    for the same per-tenant data.
    """
    by_index = {outcome.shard_index: outcome for outcome in outcomes}
    ordered_outcomes = [by_index[index] for index in range(plan.shards)]

    tenant_results = {}
    for name in plan.tenant_names:
        for outcome in ordered_outcomes:
            if name in outcome.result.tenant_results:
                tenant_results[name] = outcome.result.tenant_results[name]
                break
        else:
            raise RuntimeError(f"tenant {name!r} missing from every shard outcome")

    merged_slo = merge_slo_trackers([tenant_results[n].slo for n in plan.tenant_names])
    end_time = plan.spec.duration_s
    result = ExperimentResult(
        application="+".join(tenant_results[n].application for n in plan.tenant_names),
        controller="+".join(tenant_results[n].controller for n in plan.tenant_names),
        duration_s=plan.spec.duration_s,
        slo=merged_slo,
        latency=LatencyStats.from_samples(merged_slo.latencies_ms),
        mitigation=_merge_cluster_mitigation(ordered_outcomes, end_time),
        requested_cpu_samples=_sum_elementwise(
            [o.result.requested_cpu_samples for o in ordered_outcomes]
        ),
        cluster_cpu_utilization_samples=_mean_elementwise(
            [o.result.cluster_cpu_utilization_samples for o in ordered_outcomes]
        ),
        dropped_requests=sum(o.result.dropped_requests for o in ordered_outcomes),
    )
    result.tenant_results = tenant_results
    # Per-shard telemetry digests fold in ascending shard order; the bins
    # merge by integer addition, so the merged sketch is independent of the
    # shard grouping (and None when the run used raw telemetry mode).
    result.telemetry_digest = merge_telemetry_digests(
        [o.result.telemetry_digest for o in ordered_outcomes]
    )
    # Observability state folds the same way: journals merge by
    # (t, shard, seq) and registries in ascending shard order, so the
    # merged run record is identical for inprocess and process modes.
    shard_journals = [getattr(o.result, "journal", None) for o in ordered_outcomes]
    if any(journal is not None for journal in shard_journals):
        result.journal = merge_journal_records(shard_journals)
    result.metrics = merge_registries(
        getattr(o.result, "metrics", None) for o in ordered_outcomes
    )
    return result


# ------------------------------------------------------------------- driver
class ShardedScenarioRunner:
    """Drive one sharded scenario with an explicit prepare/execute split.

    The perf harness times :meth:`execute` alone, so process spawn and
    harness construction (pure setup, amortized across long runs) stay
    out of the measured window — mirroring how the unsharded macro times
    ``harness.run()`` but not ``from_spec()``.

    Parameters
    ----------
    spec:
        Multi-tenant scenario to run.
    shards:
        Shard count (>= 2; use :func:`run_sharded_scenario` for the
        transparent ``shards=1`` bypass).
    mode:
        ``"process"`` fans shards across spawned worker processes via
        :class:`~repro.experiments.sweep.WorkerTeam`; ``"inprocess"``
        runs them serially in this process (identical results, used by
        the determinism tests and useful under debuggers).
    """

    def __init__(self, spec: ScenarioSpec, shards: int, mode: str = "process") -> None:
        if mode not in ("process", "inprocess"):
            raise ValueError(f"unknown sharded execution mode {mode!r}")
        self.plan = plan_shards(spec, shards)
        self.mode = mode
        self.sync_stats: Optional[SyncStats] = None
        self.processed_events = 0
        self._team: Optional[WorkerTeam] = None
        self._workers: Optional[List[ShardWorker]] = None
        self._channels = None

    def prepare(self) -> None:
        """Spawn/build every shard worker and its run session (untimed)."""
        plan = self.plan
        if self.mode == "process":
            self._team = WorkerTeam(
                partial(_shard_worker_factory, plan.sub_specs), size=plan.shards
            )
            self._channels = [
                TeamShardChannel(self._team, member) for member in range(plan.shards)
            ]
            self._team.call_all("prepare")
        else:
            self._workers = [
                _shard_worker_factory(plan.sub_specs, index)
                for index in range(plan.shards)
            ]
            for worker in self._workers:
                worker.prepare()
            self._channels = [InProcessShardChannel(worker) for worker in self._workers]

    def execute(self) -> ExperimentResult:
        """Run the window-barrier loop to completion and merge results."""
        if self._channels is None:
            self.prepare()
        # With observability on, the driver keeps its own journal of
        # barrier advances (shard_index -1, so at equal times its records
        # sort ahead of shard records) and folds it into the merged
        # journal — identical for inprocess and process modes.
        driver_journal: Optional[EventJournal] = None
        observer = None
        if self.plan.spec.observability:
            driver_journal = EventJournal(shard_index=-1)

            def observer(index: int, target: float, stats: SyncStats) -> None:
                driver_journal.record(
                    target,
                    "shard_barrier",
                    "sync",
                    barrier=index,
                    skipped_windows=stats.skipped_windows,
                )

        sync = ConservativeWindowSync(
            self._channels,
            start_time=0.0,
            end_time=self.plan.spec.duration_s,
            window_s=self.plan.window_s,
            observer=observer,
        )
        self.sync_stats = sync.run()
        if driver_journal is not None:
            driver_journal.record(
                self.plan.spec.duration_s,
                "sync_stats",
                "sync",
                barriers=self.sync_stats.barriers,
                skipped_windows=self.sync_stats.skipped_windows,
                window_s=self.sync_stats.window_s,
            )
        if self._team is not None:
            outcomes = self._team.call_all("finish")
        else:
            outcomes = [worker.finish() for worker in self._workers]
        self.processed_events = sum(o.processed_events for o in outcomes)
        merged = merge_shard_results(self.plan, outcomes)
        if driver_journal is not None:
            merged.journal = merge_journal_records(
                [merged.journal, driver_journal.as_dicts()]
            )
        return merged

    def close(self) -> None:
        """Release worker processes (idempotent; in-process mode is a no-op)."""
        if self._team is not None:
            self._team.close()
            self._team = None
        self._workers = None
        self._channels = None


def run_sharded_scenario(
    spec: ScenarioSpec, shards: int = 1, mode: str = "process"
) -> ExperimentResult:
    """Run ``spec`` across ``shards`` event shards.

    ``shards == 1`` falls through to the classic
    :func:`~repro.experiments.scenario.run_scenario` — byte-identical to
    the unsharded engine.  ``shards >= 2`` requires a multi-tenant spec
    and runs the conservative window loop (see the module docstring for
    the determinism contract).
    """
    if shards <= 1:
        return run_scenario(spec)
    runner = ShardedScenarioRunner(spec, shards, mode=mode)
    try:
        runner.prepare()
        return runner.execute()
    finally:
        runner.close()


__all__ = [
    "InProcessShardChannel",
    "ShardOutcome",
    "ShardPlan",
    "ShardWorker",
    "ShardedScenarioRunner",
    "TeamShardChannel",
    "merge_shard_results",
    "plan_shards",
    "run_sharded_scenario",
]
