"""Span tracer that times calls into each layer of the simulator.

The tracer patches the public entry points of every ``src/repro/``
package from the outside (nothing in the program itself is edited) and
records one span per call: name, start, end, and the index of the
enclosing span.  Spans stay in memory as four flat arrays and are
written out once the traced run ends.

A span's name is ``<layer>.<call>``.  Layers are named after the
``repro`` package that owns the code, with two groupings: the
controller packages (``core``, ``baselines``, ``controllers``) form the
``controllers`` layer, and ``repro.cluster.telemetry`` (the
``TelemetryCollector``) belongs to ``telemetry``.

Engine callbacks mostly call private methods, so the callbacks handed
to ``SimulationEngine.schedule`` / ``schedule_recurring`` and the
completion callbacks handed to ``MicroserviceInstance.submit`` are
wrapped too, each attributed to the layer of the module that owns its
code.  Self time is a span's duration minus the time its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: repro package -> layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "sim": "sim",
    "workload": "workload",
    "apps": "apps",
    "cluster": "cluster",
    "routing": "routing",
    "admission": "admission",
    "tracing": "tracing",
    "telemetry": "telemetry",
    "core": "controllers",
    "baselines": "controllers",
    "controllers": "controllers",
    "anomaly": "anomaly",
}

#: Modules whose layer differs from their package's.
MODULE_LAYERS: Dict[str, str] = {"repro.cluster.telemetry": "telemetry"}

#: The layers of the per-layer table, in report order.
LAYERS: Tuple[str, ...] = (
    "sim",
    "workload",
    "apps",
    "cluster",
    "routing",
    "admission",
    "tracing",
    "telemetry",
    "controllers",
    "anomaly",
)

#: Layer for code outside the table (harness, metrics, obs, non-repro).
OTHER_LAYER = "other"


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning code defined in ``module``."""
    if not module:
        return OTHER_LAYER
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return OTHER_LAYER
    return PACKAGE_LAYERS.get(parts[1], OTHER_LAYER)


def owner_module(callback: Callable) -> Optional[str]:
    """The module defining ``callback``'s code (functions, bound methods,
    partials, and callable objects)."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None)
    if module is None:
        module = type(callback).__module__
    return module


class Tracer:
    """In-memory span recorder plus the method patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: name -> summed per-call value from a wrapper's ``measure``.
        self.measures: Dict[str, float] = {}
        self._patches: List[Tuple[type, str, object]] = []
        self._callback_ids: Dict[Optional[str], int] = {}
        self._record = self._callback_recorder()

    # ------------------------------------------------------------ recording
    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(
        self,
        fn: Callable,
        name: str,
        measure: Optional[Callable[..., float]] = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``measure(*args)``, when given, is summed per call into
        ``measures[name]`` (e.g. the containers one contention scan covers).
        """
        name_id = self.name_id(name)
        span_names = self.span_names
        parents = self.parents
        starts = self.starts
        ends = self.ends
        stack = self._stack
        clock = perf_counter
        if measure is not None:
            self.measures.setdefault(name, 0.0)
        measures = self.measures

        def traced(*args, **kwargs):
            if measure is not None:
                measures[name] += measure(*args)
            index = len(span_names)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _callback_recorder(self) -> Callable:
        """``record(name_id, fn, *args)``: call ``fn`` inside one span.

        Callbacks are wrapped once per scheduling, so they get this shared
        recorder bound through a C-level ``partial`` instead of a fresh
        closure each time.
        """
        span_names = self.span_names
        parents = self.parents
        starts = self.starts
        ends = self.ends
        stack = self._stack
        clock = perf_counter

        def record(name_id, fn, *args):
            index = len(span_names)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return record

    def wrap_callback(self, callback: Callable) -> Callable:
        """``callback`` traced as ``<owner layer>.callback``."""
        module = owner_module(callback)
        name_id = self._callback_ids.get(module)
        if name_id is None:
            name_id = self._callback_ids[module] = self.name_id(
                f"{layer_of_module(module)}.callback"
            )
        return functools.partial(self._record, name_id, callback)

    # -------------------------------------------------------------- patching
    def patch(
        self,
        cls: type,
        attr: str,
        name: str,
        measure: Optional[Callable[..., float]] = None,
    ) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by a traced copy."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, measure))

    def patch_with(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` by ``make(original)``."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, functools.update_wrapper(make(original), original))

    def patch_family(self, base: type, attr: str, name: str, measure=None) -> None:
        """Patch ``attr`` on ``base`` and every subclass that defines it."""
        for cls in _family(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, name, measure)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    # --------------------------------------------------------------- queries
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent index, start, end) arrays of every span."""
        return (
            np.frombuffer(self.span_names, dtype=np.int32),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
        )

    def save(self, path: str) -> None:
        """Write every span (and the name table) to ``path`` as ``.npz``."""
        names, parents, starts, ends = self.columns()
        np.savez_compressed(
            path,
            name=names,
            parent=parents,
            start=starts,
            end=ends,
            names=np.asarray(self.names, dtype=object).astype(str),
        )


def _family(base: type) -> Iterable[type]:
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each span's duration minus the duration of its direct children.

    Spans nest strictly (one thread, synchronous calls), so the direct
    children of a span are disjoint and lie inside it; subtracting their
    durations removes exactly the part of the span they cover.
    """
    durations = ends - starts
    has_parent = parents >= 0
    child_time = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=len(durations)
    )
    return durations - child_time


# ---------------------------------------------------------------------------
# The layer entry points
# ---------------------------------------------------------------------------

#: Span names of cluster state writes (node/container state a cached
#: contention model would have to invalidate on).
STATE_WRITES = (
    "cluster.set_limit",
    "cluster.set_limits",
    "cluster.inject_pressure",
    "cluster.remove_pressure",
    "cluster.clear_pressure",
    "cluster.deploy_service",
    "cluster.remove_instance",
)
PRESSURE_WRITES = STATE_WRITES[2:5]
TRACING_QUERIES = (
    "has_slo_violation",
    "latency_percentile_ms",
    "instance_features",
    "slo_violation_ratio",
    "slo_violations",
    "arrival_rate",
    "request_composition",
    "per_service_latencies_ms",
    "per_instance_latencies_ms",
    "recent_traces",
)
TELEMETRY_QUERIES = (
    "latest",
    "window",
    "windowed_peak_usage",
    "cpu_utilization_p99",
    "service_utilization",
)
ORCHESTRATOR_ACTIONS = (
    "set_resource_limit",
    "set_resource_limits",
    "scale_up",
    "scale_down",
    "scale_out",
    "scale_in",
)


def install(tracer: Tracer) -> Tracer:
    """Patch every layer's entry points to record spans into ``tracer``."""
    from repro.admission.gate import AdmissionGate
    from repro.anomaly.injector import PerformanceAnomalyInjector
    from repro.apps.runtime import ApplicationRuntime
    from repro.baselines.base import ResourceController
    from repro.cluster.cluster import Cluster
    from repro.cluster.container import Container
    from repro.cluster.instance import MicroserviceInstance
    from repro.cluster.node import Node
    from repro.cluster.orchestrator import Orchestrator
    from repro.cluster.telemetry import TelemetryCollector
    from repro.core.rl.ddpg import DDPGAgent
    from repro.routing.base import RoutingPolicy
    from repro.routing.dispatchers import DispatcherView
    from repro.routing.router import RequestRouter
    from repro.sim.engine import SimulationEngine
    from repro.tracing.coordinator import TracingCoordinator

    # Importing the harness registers every controller and routing policy,
    # so the subclass walks below see the whole family.
    import repro.experiments.harness  # noqa: F401

    wrap_callback = tracer.wrap_callback

    # sim: the event loop, plus every callback handed to the engine.
    tracer.patch(SimulationEngine, "run_until", "sim.run_until")

    def traced_schedule(schedule):
        def schedule_traced(self, time, callback, **kwargs):
            return schedule(self, time, wrap_callback(callback), **kwargs)

        return schedule_traced

    def traced_recurring(schedule_recurring):
        def schedule_recurring_traced(self, interval, callback, **kwargs):
            return schedule_recurring(self, interval, wrap_callback(callback), **kwargs)

        return schedule_recurring_traced

    tracer.patch_with(SimulationEngine, "schedule", traced_schedule)
    tracer.patch_with(SimulationEngine, "schedule_recurring", traced_recurring)

    # apps
    tracer.patch(ApplicationRuntime, "submit_request", "apps.submit_request")
    tracer.patch(ApplicationRuntime, "submit_attempt", "apps.submit_attempt")

    # cluster: dispatch (with its completion callback), contention, writes.
    def traced_submit(original):
        submit = tracer.wrap(original, "cluster.submit")

        def submit_traced(self, request_id, span_name, on_complete, *args, **kwargs):
            return submit(
                self, request_id, span_name, wrap_callback(on_complete), *args, **kwargs
            )

        return submit_traced

    tracer.patch_with(MicroserviceInstance, "submit", traced_submit)
    tracer.patch(
        Node,
        "contention_factors",
        "cluster.contention_factors",
        measure=lambda node, *_: len(node.containers),
    )
    tracer.patch(Container, "total_slowdown", "cluster.total_slowdown")
    for cls, attr in (
        (Container, "set_limit"),
        (Container, "set_limits"),
        (Node, "inject_pressure"),
        (Node, "remove_pressure"),
        (Node, "clear_pressure"),
        (Cluster, "deploy_service"),
        (Cluster, "remove_instance"),
    ):
        tracer.patch(cls, attr, f"cluster.{attr}")

    # routing
    tracer.patch(RequestRouter, "route", "routing.route")
    tracer.patch_family(
        RoutingPolicy, "select", "routing.select", measure=lambda _, replicas: len(replicas)
    )
    tracer.patch_family(RoutingPolicy, "observe_completion", "routing.observe_completion")
    tracer.patch(DispatcherView, "refresh", "routing.refresh")

    # admission
    tracer.patch(AdmissionGate, "submit", "admission.submit")
    tracer.patch(AdmissionGate, "snapshot", "admission.snapshot")

    # tracing
    for attr in ("begin_trace", "record_span", "complete_trace", "drop_trace"):
        tracer.patch(TracingCoordinator, attr, f"tracing.{attr}")
    for attr in TRACING_QUERIES:
        tracer.patch(TracingCoordinator, attr, "tracing.query")

    # telemetry
    tracer.patch(TelemetryCollector, "sample_all", "telemetry.sample_all")
    for attr in TELEMETRY_QUERIES:
        tracer.patch(TelemetryCollector, attr, "telemetry.query")

    # controllers
    tracer.patch_family(ResourceController, "control_round", "controllers.control_round")
    tracer.patch(DDPGAgent, "train_step", "controllers.train_step")
    for attr in ORCHESTRATOR_ACTIONS:
        tracer.patch(Orchestrator, attr, "controllers.action")

    # anomaly
    tracer.patch(PerformanceAnomalyInjector, "schedule", "anomaly.schedule")
    return tracer
