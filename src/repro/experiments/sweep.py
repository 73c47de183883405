"""Parallel scenario sweeps.

Low-latency cloud-service studies get their results from large
seed x load x policy grids (cf. the Distributed Join-the-Idle-Queue
evaluation in PAPERS.md).  This module makes that experiment shape cheap:

* :func:`sweep_grid` expands the cross product of applications,
  controllers, seeds, and loads into a list of
  :class:`~repro.experiments.scenario.ScenarioSpec`;
* :func:`tenant_sweep_grid` expands a consolidation grid of multi-tenant
  specs (N identical co-located tenants x seeds);
* :func:`routing_sweep_grid` crosses load-balancing policies x controllers
  x tenant counts, so routing regimes are evaluated against every scaling
  policy instead of only the default balancer;
* :func:`run_sweep` runs any list of specs (single- or multi-tenant)
  either serially or fanned out over ``multiprocessing`` workers,
  returning one :class:`SweepOutcome` per spec **in the input order**
  regardless of which worker finished first.

Each spec carries its own master seed, and every stochastic subsystem
derives named substreams from it, so a scenario's result is a pure
function of its spec: the parallel sweep is bit-identical to the serial
one.  Workers are started with the ``spawn`` method so no parent-process
state (RNG, request-id counters) leaks into the runs.

The process fan-out is built on :class:`WorkerTeam`, a persistent pool of
*actor* processes driven over pipes.  Unlike ``multiprocessing.Pool``,
team members hold state between calls and expose a split send/receive
API, which is what the sharded engine
(:mod:`repro.experiments.sharded`) needs: every shard worker keeps a
live simulation between window barriers and all shards must advance
concurrently (send to all, then collect from all).  :func:`run_parallel`
is rebased on the same pool, keeping its contract — input-order results
and in-order progress callbacks — unchanged.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.experiments.scenario import (
    ScenarioSpec,
    random_campaign_builder,
    run_scenario,
)


@dataclass
class SweepOutcome:
    """Result of one scenario of a sweep: its spec plus headline numbers.

    Multi-tenant scenarios additionally carry ``tenant_summaries`` (one
    headline dict per tenant, in tenant order); single-tenant rows are
    unchanged.
    """

    spec: ScenarioSpec
    summary: Dict[str, float] = field(default_factory=dict)
    tenant_summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly row (used by the CLI and reports)."""
        row: Dict[str, Any] = {
            "application": self.spec.application,
            "controller": self.spec.controller,
            "seed": self.spec.seed,
            "load_rps": self.spec.load_rps,
            "duration_s": self.spec.duration_s,
            **self.summary,
        }
        if self.spec.routing:
            row["routing"] = self.spec.routing
        if self.spec.tenants:
            row["application"] = "+".join(t.application for t in self.spec.tenants)
            row["controller"] = "+".join(t.controller for t in self.spec.tenants)
            # Total constant offered load across tenants (pattern-driven
            # tenants contribute no constant rate and are excluded).
            row["load_rps"] = sum(
                t.load_rps for t in self.spec.tenants if t.pattern is None
            )
            row["tenant_count"] = len(self.spec.tenants)
            row["tenants"] = dict(self.tenant_summaries)
        return row


def sweep_grid(
    applications: Sequence[str] = ("social_network",),
    controllers: Sequence[str] = ("firm", "aimd", "k8s"),
    seeds: Sequence[int] = (0,),
    loads_rps: Sequence[float] = (50.0,),
    duration_s: float = 60.0,
    anomaly_rate_per_s: float = 0.0,
    min_intensity: float = 0.5,
    base: Optional[ScenarioSpec] = None,
) -> List[ScenarioSpec]:
    """Expand a grid of scenarios into specs (application-major order).

    ``anomaly_rate_per_s > 0`` adds a seed-derived random anomaly campaign
    to every scenario.  ``base`` supplies defaults for every field the grid
    does not set (warmup, sample period, request mix, ...).
    """
    template = base if base is not None else ScenarioSpec()
    campaign_builder: Optional[Callable] = None
    if anomaly_rate_per_s > 0:
        campaign_builder = partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=anomaly_rate_per_s,
            min_intensity=min_intensity,
        )
    specs: List[ScenarioSpec] = []
    for application in applications:
        for load in loads_rps:
            for controller in controllers:
                for seed in seeds:
                    specs.append(
                        template.with_overrides(
                            application=application,
                            seed=int(seed),
                            duration_s=duration_s,
                            load_rps=float(load),
                            controller=controller,
                            campaign_builder=campaign_builder,
                            campaign=None,
                        )
                    )
    return specs


def tenant_sweep_grid(
    tenant_counts: Sequence[int] = (1, 2, 4),
    application: str = "hotel_reservation",
    controller: str = "none",
    seeds: Sequence[int] = (0,),
    load_rps: float = 25.0,
    duration_s: float = 30.0,
    cluster_nodes: Optional[tuple] = (1, 0),
    placement: Optional[str] = None,
    node_quota: Optional[int] = None,
    anomaly_rate_per_s: float = 0.0,
) -> List[ScenarioSpec]:
    """Expand a consolidation grid: N identical co-located tenants x seeds.

    Each spec hosts ``n`` identical tenants (same application, load, and
    controller — the controller runs once *per tenant*, scoped to that
    tenant's services) on one shared cluster, so sweeping ``tenant_counts``
    traces how per-tenant SLO statistics degrade as consolidation grows.
    ``anomaly_rate_per_s`` adds a per-tenant random resource-anomaly
    campaign, as in :func:`sweep_grid`.

    Note the default topology is a deliberately small single-node cluster
    (``cluster_nodes=(1, 0)``) so consolidation pressure is visible at few
    tenants; pass ``cluster_nodes=None`` for the paper's 15-node default
    when comparing against single-tenant sweeps.
    """
    from repro.experiments.interference import identical_tenants

    specs: List[ScenarioSpec] = []
    for count in tenant_counts:
        for seed in seeds:
            specs.append(
                identical_tenants(
                    int(count),
                    application=application,
                    load_rps=load_rps,
                    controller=controller,
                    duration_s=duration_s,
                    seed=int(seed),
                    cluster_nodes=cluster_nodes,
                    placement=placement,
                    node_quota=node_quota,
                    anomaly_rate_per_s=anomaly_rate_per_s,
                )
            )
    return specs


def routing_sweep_grid(
    policies: Sequence[str] = (
        "least_in_flight",
        "round_robin",
        "power_of_two_choices",
        "join_the_idle_queue",
    ),
    controllers: Sequence[str] = ("none", "aimd"),
    tenant_counts: Sequence[int] = (1, 2),
    application: str = "hotel_reservation",
    seeds: Sequence[int] = (0,),
    load_rps: float = 25.0,
    duration_s: float = 30.0,
    cluster_nodes: Optional[tuple] = (3, 0),
    placement: Optional[str] = None,
    anomaly_rate_per_s: float = 0.25,
    replicas_per_service: int = 3,
) -> List[ScenarioSpec]:
    """Expand a routing grid: policies x controllers x tenant counts x seeds.

    Every scenario is the :func:`~repro.experiments.interference.identical_tenants`
    consolidation shape with the spec-level ``routing`` field set, so each
    load-balancing policy is evaluated under every scaling policy and
    consolidation level (policy-major order: all scenarios of one policy
    are adjacent, mirroring :func:`sweep_grid`'s controller-major order).

    By default every tenant's services are replicated
    (``replicas_per_service``) over a small multi-node cluster and hit by
    per-tenant resource anomalies, so replicas of one service run at
    different speeds and the routing policy has real choices to make —
    the regime where policies separate (see :mod:`repro.experiments.routing`).
    Routing draws come from dedicated RNG substreams, so scenarios of
    different policies still share identical arrivals, service times, and
    campaigns — and the parallel sweep stays bit-identical to the serial
    one.
    """
    from repro.experiments.interference import identical_tenants
    from repro.experiments.routing import replicated_services
    from repro.routing.base import resolve_policy_name

    replicas = (
        replicated_services(application, replicas_per_service)
        if replicas_per_service > 1
        else None
    )
    specs: List[ScenarioSpec] = []
    for policy in policies:
        canonical = resolve_policy_name(policy)
        for controller in controllers:
            for count in tenant_counts:
                for seed in seeds:
                    spec = identical_tenants(
                        int(count),
                        application=application,
                        load_rps=load_rps,
                        controller=controller,
                        duration_s=duration_s,
                        seed=int(seed),
                        cluster_nodes=cluster_nodes,
                        placement=placement,
                        anomaly_rate_per_s=anomaly_rate_per_s,
                    )
                    if replicas:
                        spec = spec.with_overrides(
                            tenants=[
                                tenant.with_overrides(replicas=dict(replicas))
                                for tenant in spec.tenants
                            ]
                        )
                    specs.append(spec.with_overrides(routing=canonical))
    return specs


def _run_one(spec: ScenarioSpec) -> SweepOutcome:
    """Worker entry point: run one spec and return its headline summary."""
    result = run_scenario(spec)
    return SweepOutcome(
        spec=spec,
        summary=result.summary(),
        tenant_summaries=result.per_tenant_summary(),
    )


class WorkerError(RuntimeError):
    """An actor method raised inside a worker process.

    The remote traceback is embedded in the message; the original
    exception object stays in the worker (it may not be picklable).
    """


def _team_member_main(conn, actor_factory: Callable[[int], Any], index: int) -> None:
    """Worker-process loop: build the actor, then serve method calls.

    Protocol (one request, one response, strictly alternating per pipe):
    parent sends ``(method_name, args_tuple)``; worker replies
    ``("ok", result)`` or ``("error", formatted_traceback)``.  The
    ``"__stop__"`` method exits the loop without a reply.
    """
    try:
        actor = actor_factory(index)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        method, args = message
        if method == "__stop__":
            # No reply: the parent closes its pipe end right after sending
            # the stop, so an acknowledgement would hit a broken pipe.
            break
        try:
            result = getattr(actor, method)(*args)
        except BaseException:
            conn.send(("error", traceback.format_exc()))
        else:
            conn.send(("ok", result))
    conn.close()


class WorkerTeam:
    """A persistent team of actor processes controlled over pipes.

    Each member is a ``spawn``-started process hosting one actor built by
    ``actor_factory(member_index)`` (the factory must be picklable, e.g.
    a module-level class or :func:`functools.partial` thereof).  Spawn
    keeps parent-process state (RNG, request-id counters) out of the
    workers, matching the sweep's determinism contract.

    The API is deliberately split into :meth:`send` and :meth:`recv` so
    callers can fan a call out to every member before collecting any
    reply — the two-phase shape both the dynamic sweep dispatcher and the
    sharded engine's window barrier need.  Each pipe strictly alternates
    one request with one response; interleave sends to *different*
    members freely, but never send twice to one member without receiving.
    """

    def __init__(self, actor_factory: Callable[[int], Any], size: int) -> None:
        if size < 1:
            raise ValueError(f"team size must be >= 1, got {size}")
        context = multiprocessing.get_context("spawn")
        self._pipes = []
        self._processes = []
        self._closed = False
        try:
            for index in range(size):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_team_member_main,
                    args=(child_end, actor_factory, index),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._pipes.append(parent_end)
                self._processes.append(process)
            # Collect the construction acknowledgement from every member so
            # a factory that blows up surfaces here, not at first use.
            for index in range(size):
                self.recv(index)
        except BaseException:
            self.close(graceful=False)
            raise

    @property
    def size(self) -> int:
        return len(self._processes)

    def send(self, member: int, method: str, *args: Any) -> None:
        """Dispatch ``method(*args)`` to ``member`` without waiting."""
        self._pipes[member].send((method, args))

    def recv(self, member: int) -> Any:
        """Collect the pending reply from ``member`` (blocking)."""
        try:
            status, payload = self._pipes[member].recv()
        except EOFError:
            raise WorkerError(f"worker {member} exited without replying")
        if status == "error":
            raise WorkerError(f"worker {member} raised:\n{payload}")
        return payload

    def call(self, member: int, method: str, *args: Any) -> Any:
        """Synchronous convenience: send to one member and await the reply."""
        self.send(member, method, *args)
        return self.recv(member)

    def call_all(self, method: str, *args: Any) -> List[Any]:
        """Fan ``method`` out to every member, collect replies in member order."""
        for member in range(self.size):
            self.send(member, method, *args)
        return [self.recv(member) for member in range(self.size)]

    def wait(self, members: Sequence[int]) -> List[int]:
        """Block until at least one of ``members`` has a reply ready."""
        index_of = {self._pipes[member]: member for member in members}
        ready = _wait_connections(list(index_of))
        return [index_of[conn] for conn in ready]

    def close(self, graceful: bool = True) -> None:
        """Stop every member and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if graceful:
            for pipe, process in zip(self._pipes, self._processes):
                if not process.is_alive():
                    continue
                try:
                    pipe.send(("__stop__", ()))
                except (BrokenPipeError, OSError):
                    pass
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)

    def __enter__(self) -> "WorkerTeam":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(graceful=exc_info[0] is None)


class _FunctionActor:
    """Adapter: expose a plain ``worker(item)`` callable as a team actor."""

    def __init__(self, worker: Callable, index: int) -> None:
        self._worker = worker

    def run(self, item: Any) -> Any:
        return self._worker(item)


def run_parallel(
    items: Iterable,
    worker: Callable,
    workers: int = 1,
    progress: Optional[Callable[[int, int, Any], None]] = None,
) -> List:
    """Run ``worker(item)`` for every item, optionally across processes.

    The generic engine behind :func:`run_sweep` (and the resilience
    sweep): results come back **in input order** regardless of which
    worker finished first, and ``progress(done_count, total, outcome)``
    fires in the parent process as each item completes (in input order).
    ``worker`` must be a picklable module-level callable; workers use the
    ``spawn`` start method (via :class:`WorkerTeam`) so no parent-process
    state (RNG, request-id counters) leaks into the runs.
    """
    item_list = list(items)
    total = len(item_list)
    outcomes: List = []
    if workers <= 1 or total <= 1:
        for index, item in enumerate(item_list):
            outcome = worker(item)
            outcomes.append(outcome)
            if progress is not None:
                progress(index + 1, total, outcome)
        return outcomes

    results: List = [None] * total
    completed = [False] * total
    next_to_emit = 0
    with WorkerTeam(partial(_FunctionActor, worker), size=min(workers, total)) as team:
        busy: Dict[int, int] = {}
        next_item = 0
        for member in range(team.size):
            team.send(member, "run", item_list[next_item])
            busy[member] = next_item
            next_item += 1
        while busy:
            for member in team.wait(sorted(busy)):
                item_index = busy.pop(member)
                results[item_index] = team.recv(member)
                completed[item_index] = True
                if next_item < total:
                    team.send(member, "run", item_list[next_item])
                    busy[member] = next_item
                    next_item += 1
            while next_to_emit < total and completed[next_to_emit]:
                if progress is not None:
                    progress(next_to_emit + 1, total, results[next_to_emit])
                next_to_emit += 1
    return results


def run_sweep(
    specs: Iterable[ScenarioSpec],
    workers: int = 1,
    progress: Optional[Callable[[int, int, SweepOutcome], None]] = None,
) -> List[SweepOutcome]:
    """Run every spec, optionally across ``workers`` processes.

    Returns one :class:`SweepOutcome` per spec, in the order the specs were
    given.  ``progress(done_count, total, outcome)`` is invoked in the
    parent process as each scenario finishes (in input order).
    """
    return run_parallel(specs, _run_one, workers=workers, progress=progress)
