"""Controller stages: the named per-window sensing reads of a control round.

Every FIRM-style control round begins with the same sensing work —
the SLO verdict, critical-path extraction, SVM localization, the
admission gate's pressure signals, per-service utilization.  Each piece
is a plain function here, registered by name in :data:`STAGES`, and
controllers reach them through their :class:`StageBinding` with
``self.stages.pull(name, **params)``.  Every pull computes: there is no
cache, so a stage runs exactly where and when its caller asks.

Stages are **pure reads** of the coordinator/cluster state: no RNG
draws, no engine scheduling, no cluster mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.cluster.resources import Resource


@dataclass
class StageBinding:
    """What a stage sees: one tenant's observation surface.

    ``runtime`` is the owning ``TenantRuntime`` when there is one
    (admission signals live there); ``providers`` lets a controller
    donate long-lived stateful helpers — e.g. FIRM provides its
    online-trained :class:`~repro.core.extractor.Extractor` so the
    detection stage runs the *same* SVM the agent trains.
    """

    coordinator: Any
    view: Any
    runtime: Any = None
    providers: Dict[Tuple, Any] = field(default_factory=dict)

    def pull(self, name: str, **params):
        """Compute stage ``name`` for this tenant now."""
        try:
            stage = STAGES[name]
        except KeyError:
            known = ", ".join(sorted(STAGES))
            raise ValueError(f"unknown controller stage {name!r}; registered: {known}")
        return stage(self, **params)

    def provide(self, key: Tuple, value: Any) -> Any:
        """Donate a helper under ``key``; first provider wins."""
        return self.providers.setdefault(key, value)

    def extractor_for(self, window_s: float, percentile: float):
        """The tenant's Extractor for this (window, percentile) config.

        Returns the provided one when a controller donated it (FIRM's,
        with its online-trained SVM); otherwise lazily creates and keeps
        a default so repeated pulls share state.
        """
        key = ("extractor", float(window_s), float(percentile))
        extractor = self.providers.get(key)
        if extractor is None:
            from repro.core.extractor import Extractor

            extractor = Extractor(
                self.coordinator,
                window_s=window_s,
                detection_percentile=percentile,
            )
            self.providers[key] = extractor
        return extractor

    def path_extractor(self):
        """The shared critical-path extractor (stateless, one per tenant)."""
        key = ("path_extractor",)
        extractor = self.providers.get(key)
        if extractor is None:
            from repro.core.critical_path import CriticalPathExtractor

            extractor = CriticalPathExtractor()
            self.providers[key] = extractor
        return extractor


def slo_verdict(binding: StageBinding, window_s: float, percentile: float = 99.0) -> bool:
    """Whether any request type's tail latency currently violates its SLO.

    Exactly the coordinator query FIRM's detector and AIMD's "violating"
    test issue (:meth:`TracingCoordinator.has_slo_violation`).
    """
    return binding.coordinator.has_slo_violation(window_s, percentile=percentile)


def comfortable(
    binding: StageBinding, window_s: float, percentile: float, slack_threshold: float
) -> bool:
    """True when every request type's tail latency is well inside its SLO.

    The AIMD "decrease" predicate: a request type blocks comfort when its
    windowed tail exceeds ``slack_threshold`` times its SLO; empty windows
    (tail <= 0) don't count.
    """
    coordinator = binding.coordinator
    slos = coordinator.slo_latency_ms
    if not slos:
        return False
    for request_type, slo in slos.items():
        tail = coordinator.latency_percentile_ms(percentile, window_s, request_type)
        if tail <= 0:
            continue
        if tail > slack_threshold * slo:
            return False
    return True


def critical_path(binding: StageBinding, window_s: float):
    """Recent traces plus their extracted critical paths.

    Returns ``(traces, critical_paths)`` for the window; with no retained
    traces both are empty and no extraction runs.
    """
    traces = binding.coordinator.recent_traces(window_s)
    if not traces:
        return [], []
    return traces, binding.path_extractor().extract_all(traces)


def detection(
    binding: StageBinding, window_s: float, percentile: float = 99.0, force: bool = False
):
    """The full detect -> extract -> localize round (modules 2-3).

    Reads the SLO verdict, and only on violation (or ``force``) the
    critical paths, then hands both to the tenant's
    :class:`~repro.core.extractor.Extractor` for SVM candidate selection —
    the same object FIRM trains online, provided through the binding so
    detection and training share one SVM.  Result is an
    :class:`~repro.core.extractor.ExtractionResult`.
    """
    violated = slo_verdict(binding, window_s=window_s, percentile=percentile)
    extractor = binding.extractor_for(window_s, percentile)
    if not violated and not force:
        return extractor.localize(violated, force=force, traces=[], paths=[])
    traces, paths = critical_path(binding, window_s=window_s)
    return extractor.localize(violated, force=force, traces=traces, paths=paths)


def admission_signals(binding: StageBinding) -> Dict[str, object]:
    """The tenant's admission-gate pressure signals as detection features.

    Surfaces the survival kit's live state — cumulative shed rate and
    per-service circuit-breaker states — so controllers can treat
    admission stress as a detection feature (e.g. the composed policy
    falls back to its heuristic member while a breaker is open).  Tenants
    without a gate report the quiet baseline (``available: False``).
    """
    runtime = binding.runtime
    gate = getattr(runtime, "admission", None) if runtime is not None else None
    if gate is None:
        return {
            "available": False,
            "shed_rate": 0.0,
            "shed": 0,
            "submitted": 0,
            "breakers": {},
            "breakers_open": 0,
        }
    submitted = int(gate.stats["submitted"])
    shed = int(gate.stats["shed"])
    breakers = {service: breaker.state for service, breaker in sorted(gate._breakers.items())}
    return {
        "available": True,
        "shed_rate": (shed / submitted) if submitted else 0.0,
        "shed": shed,
        "submitted": submitted,
        "breakers": breakers,
        "breakers_open": sum(1 for state in breakers.values() if state == "open"),
    }


def service_cpu_utilization(binding: StageBinding, service: str):
    """Replica count and mean CPU utilization of one service.

    The HPA's observation.  Returns ``(replica_count,
    mean_cpu_utilization)`` or None for services with no replicas.
    """
    replicas = binding.view.replicas_of(service)
    if not replicas:
        return None
    utilizations = [replica.utilization()[Resource.CPU] for replica in replicas]
    return len(replicas), sum(utilizations) / len(utilizations)


#: Every stage by the name controllers pull it under.
STAGES: Dict[str, Callable[..., Any]] = {
    "slo_verdict": slo_verdict,
    "comfortable": comfortable,
    "critical_path": critical_path,
    "detection": detection,
    "admission_signals": admission_signals,
    "service_cpu_utilization": service_cpu_utilization,
}
