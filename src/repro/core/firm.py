"""The FIRM controller: the end-to-end multilevel ML control loop.

Ties together the pieces of the paper's Fig. 6 architecture:

1. the Tracing Coordinator collects spans and telemetry (module 1);
2. the Extractor detects SLO violations, extracts critical paths, and
   localizes critical microservice instances (modules 2-3);
3. the RL-based Resource Estimator proposes new fine-grained resource
   limits for each critical instance (module 4);
4. the Deployment Module validates and actuates the actions (module 5),
   replacing oversubscribing partitions with scale-out operations;
5. rewards are computed from the post-action SLO and utilization state and
   fed back into the DDPG agent's replay buffer for online learning.

The controller supports the paper's two agent granularities: a shared
"one-for-all" agent, or per-microservice "one-for-each" agents that may be
bootstrapped by transfer learning from the shared agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import dataclasses

import numpy as np

from repro.baselines.base import ResourceController, register_controller
from repro.cluster.cluster import Cluster
from repro.cluster.instance import MicroserviceInstance
from repro.cluster.orchestrator import Orchestrator
from repro.core.deployment import DeploymentModule
from repro.core.extractor import Extractor
from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.env import MicroserviceEnvironment, ResourceBounds
from repro.core.rl.reward import RewardConfig
from repro.core.rl.transfer import transfer_agent
from repro.core.svm import IncrementalSVM
from repro.sim.engine import SimulationEngine
from repro.tracing.coordinator import TracingCoordinator


@dataclass
class FIRMConfig:
    """Configuration of the FIRM controller.

    Attributes
    ----------
    control_interval_s:
        Period of the detect-localize-mitigate loop.
    window_s:
        Observation window for the Extractor and RL state.
    per_service_agents:
        False = one shared ("one-for-all") agent; True = a tailored
        ("one-for-each") agent per microservice.
    use_transfer_learning:
        When ``per_service_agents`` is on, bootstrap each new per-service
        agent from the shared agent's weights.
    train_online:
        Whether to store transitions and run DDPG updates during operation.
    scale_down_when_idle:
        Whether to reclaim resources (scale down limits) when no SLO
        violation is detected, which is how FIRM reduces the requested CPU.
    exploration:
        Whether action selection adds exploration noise (disable for pure
        evaluation of a trained policy).
    """

    control_interval_s: float = 2.0
    window_s: float = 5.0
    per_service_agents: bool = False
    use_transfer_learning: bool = True
    train_online: bool = True
    scale_down_when_idle: bool = True
    #: Right-sizing runs at most this often per container (seconds).
    reclaim_interval_s: float = 30.0
    #: Target limit = reclaim_headroom x the windowed peak usage.
    reclaim_headroom: float = 4.0
    #: Only shrink when the current limit exceeds this multiple of the
    #: windowed peak usage (avoids churn on already right-sized containers).
    reclaim_trigger_ratio: float = 6.0
    #: Usage window consulted for right-sizing (seconds).
    reclaim_window_s: float = 60.0
    #: Minimum telemetry samples before a container may be right-sized; a
    #: short history under-estimates the peak and over-shrinks.
    reclaim_min_samples: int = 30
    #: Instances whose utilization of any resource exceeds this are treated
    #: as mitigation candidates during violation rounds even when the SVM
    #: does not flag them (a saturated partition is unambiguously starved).
    saturation_threshold: float = 0.9
    exploration: bool = True
    #: Deployment-module action verification: partitions are never set below
    #: observed demand / this target utilization (0 disables the floor).
    demand_headroom: float = 0.7
    reward: RewardConfig = field(default_factory=RewardConfig)
    ddpg: DDPGConfig = field(default_factory=DDPGConfig)
    bounds: ResourceBounds = field(default_factory=ResourceBounds.default)


@dataclass
class ControlRoundRecord:
    """Audit record of one control-loop round."""

    time_s: float
    slo_violated: bool
    candidates: List[str]
    actions_applied: int
    mean_reward: float


@register_controller("firm", aliases=("firm_single",))
class FIRMController(ResourceController):
    """The full FIRM resource-management loop over a simulated cluster."""

    stage_subscriptions = ("slo_verdict", "critical_path", "detection")

    def __init__(
        self,
        cluster: Cluster,
        coordinator: TracingCoordinator,
        orchestrator: Orchestrator,
        engine: SimulationEngine,
        config: Optional[FIRMConfig] = None,
        shared_agent: Optional[DDPGAgent] = None,
        svm: Optional[IncrementalSVM] = None,
    ) -> None:
        self.config = config or FIRMConfig()
        super().__init__(
            cluster,
            coordinator,
            orchestrator,
            engine,
            control_interval_s=self.config.control_interval_s,
        )
        self.svm = svm if svm is not None else IncrementalSVM(input_dim=2)
        self.extractor = Extractor(
            coordinator, svm=self.svm, window_s=self.config.window_s
        )
        self.deployment = DeploymentModule(
            orchestrator, demand_headroom=self.config.demand_headroom
        )
        self.shared_agent = shared_agent if shared_agent is not None else DDPGAgent(self.config.ddpg)
        self._per_service_agents: Dict[str, DDPGAgent] = {}
        self._environments: Dict[str, MicroserviceEnvironment] = {}
        #: (state, action, env, agent, instance) awaiting their reward.
        self._pending: List[tuple] = []
        #: Last right-sizing time per container id (rate-limits reclaim).
        self._last_reclaim: Dict[str, float] = {}
        self.rounds: List[ControlRoundRecord] = []
        #: Mean critic TD-error (MSE) of the most recent training pass;
        #: None until any agent has run an update.  Composed policies gate
        #: on this as the critic-uncertainty signal.
        self.last_critic_loss: Optional[float] = None

    def bind_stages(self, binding) -> None:
        """Donate the online-trained Extractor so the shared detection
        stage runs the same SVM this controller trains."""
        super().bind_stages(binding)
        binding.provide(
            (
                "extractor",
                float(self.extractor.window_s),
                float(self.extractor.detection_percentile),
            ),
            self.extractor,
        )

    # ----------------------------------------------------------------- agents
    def agent_for(self, service_name: str) -> DDPGAgent:
        """The agent responsible for ``service_name`` under the configured mode."""
        if not self.config.per_service_agents:
            return self.shared_agent
        if service_name not in self._per_service_agents:
            if self.config.use_transfer_learning:
                self._per_service_agents[service_name] = transfer_agent(
                    self.shared_agent, config=self.config.ddpg
                )
            else:
                self._per_service_agents[service_name] = DDPGAgent(self.config.ddpg)
        return self._per_service_agents[service_name]

    def environment_for(self, instance: MicroserviceInstance) -> MicroserviceEnvironment:
        """The (cached) RL environment wrapper for one instance."""
        if instance.name not in self._environments:
            slo = self._slo_for_instance(instance)
            self._environments[instance.name] = MicroserviceEnvironment(
                instance,
                self.coordinator,
                slo_latency_ms=slo,
                bounds=self.config.bounds,
                observation_window_s=self.config.window_s,
                reward_config=self.config.reward,
            )
        return self._environments[instance.name]

    def _slo_for_instance(self, instance: MicroserviceInstance) -> float:
        """SLO applied to an instance: the tightest SLO among the request
        types actually routed through the instance's service, falling back
        to the global minimum when none match (e.g. SLOs registered
        without service lists)."""
        slos = self.coordinator.slo_latency_ms
        if not slos:
            return 500.0
        service = instance.profile.name
        matched = [
            slo
            for request_type, slo in slos.items()
            if service in self.coordinator.services_for_request_type(request_type)
        ]
        if matched:
            return min(matched)
        return min(slos.values())

    # ------------------------------------------------------------------ loop
    def control_round(self) -> ControlRoundRecord:
        """Run one detect -> localize -> estimate -> actuate round."""
        if self._stopped:
            # Loop was stopped; record a no-op round so rounds_executed
            # and len(self.rounds) stay consistent.
            record = ControlRoundRecord(self.engine.now, False, [], 0, 0.0)
            self.rounds.append(record)
            return record

        self._settle_pending_rewards()

        extraction = self.stages.pull(
            "detection",
            window_s=self.extractor.window_s,
            percentile=self.extractor.detection_percentile,
        )
        actions_applied = 0
        rewards: List[float] = []

        acted: set = set()
        if extraction.slo_violated:
            targets = self._mitigation_targets(extraction)
            for instance in targets:
                env = self.environment_for(instance)
                agent = self.agent_for(instance.profile.name)
                state = env.observe(is_culprit=True).as_vector()
                action = agent.act(state, explore=self.config.exploration)
                limits = self._verify_action_limits(instance, env.action_to_limits(action))
                self.deployment.apply_limits(instance, limits)
                actions_applied += 1
                acted.add(instance.name)
                self._pending.append((state, action, env, agent, instance))
        elif self.config.scale_down_when_idle and not extraction.slo_violated:
            rewards.append(self._reclaim_idle_resources())

        # Safety valve: a partition the controller itself tightened must
        # never stay saturated for more than one control interval, whether
        # or not the end-to-end SLO is currently violated (a starved
        # partition will violate it shortly).  Relief raises the limit to
        # twice the current demand through the normal validated path.
        actions_applied += self._relieve_saturated_partitions(acted)

        if self.config.train_online:
            self._train_agents()

        record = ControlRoundRecord(
            time_s=self.engine.now,
            slo_violated=extraction.slo_violated,
            candidates=extraction.candidate_instances,
            actions_applied=actions_applied,
            mean_reward=float(np.mean(rewards)) if rewards else 0.0,
        )
        self.rounds.append(record)
        if self.obs is not None:
            self.obs.journal.record(
                record.time_s,
                "control_round",
                self.obs_source,
                slo_violated=record.slo_violated,
                candidates=list(record.candidates),
                actions_applied=record.actions_applied,
                mean_reward=record.mean_reward,
            )
            self.obs.registry.counter(
                "control_rounds_total",
                controller=type(self).__name__,
                verdict="violated" if record.slo_violated else "ok",
            ).inc()
        return record

    # -------------------------------------------------------------- internals
    def _mitigation_targets(self, extraction) -> List[MicroserviceInstance]:
        """Instances to act on this round.

        The SVM's critical-component candidates come first; on top of those,
        any instance whose partition is saturated (utilization above the
        saturation threshold on a resource it is sensitive to) is included,
        because a starved partition is an unambiguous mitigation target even
        when its latency distribution fools the congestion-intensity
        feature (uniformly slow requests have a low p99/p50 ratio).
        """
        targets: List[MicroserviceInstance] = []
        seen: set = set()
        for feature in extraction.candidates:
            try:
                instance = self.cluster.instance_by_name(feature.instance)
            except KeyError:
                continue
            if instance.name not in seen:
                targets.append(instance)
                seen.add(instance.name)
        threshold = self.config.saturation_threshold
        for container in self.cluster.all_containers():
            instance = container.instance
            if instance is None or instance.name in seen:
                continue
            utilization = instance.utilization()
            weights = instance.profile.resource_weights
            saturated = any(
                utilization[resource] >= threshold and weights.get(resource, 0.0) > 0.2
                for resource in utilization
            )
            if saturated:
                targets.append(instance)
                seen.add(instance.name)
        return targets

    def _verify_action_limits(self, instance: MicroserviceInstance, limits):
        """Action verification: never partition below recent peak usage.

        The RL action space spans the whole feasible range; while the agent
        is still learning (or exploring), an action can request a partition
        below what the instance has recently needed, which would trade one
        violation for another.  The verified action is the element-wise
        maximum of the proposed limits and 1.2x the windowed peak usage
        (when telemetry history is available).
        """
        peak = self._windowed_peak_usage(instance.container, self.coordinator.telemetry)
        if peak is None:
            return limits
        raised = {
            resource: max(limits[resource], 1.2 * peak[resource])
            for resource in limits
        }
        return type(limits)(raised)

    def _relieve_saturated_partitions(self, already_acted: set) -> int:
        """Raise the limits of enforced partitions that are saturated.

        Returns the number of relief actions applied.  Only containers whose
        partitions were explicitly enforced are considered (best-effort
        containers are governed by node contention, not their caps).
        """
        threshold = self.config.saturation_threshold
        relieved = 0
        for container in self.cluster.all_containers():
            instance = container.instance
            if (
                instance is None
                or instance.name in already_acted
                or not container.partition_enforced
            ):
                continue
            utilization = instance.utilization()
            weights = instance.profile.resource_weights
            saturated = any(
                utilization[resource] >= threshold and weights.get(resource, 0.0) > 0.2
                for resource in utilization
            )
            if not saturated:
                continue
            relief = instance.resource_demand() * 2.0
            current = container.limits
            raised = {
                resource: max(relief[resource], current[resource])
                for resource in current
            }
            self.deployment.apply_limits(instance, type(current)(raised))
            relieved += 1
        return relieved

    def _settle_pending_rewards(self) -> None:
        """Compute rewards for actions taken last round and store transitions."""
        for state, action, env, agent, instance in self._pending:
            next_state = env.observe(is_culprit=True).as_vector()
            reward = env.reward(is_culprit=True)
            if self.config.train_online:
                agent.remember(state, action, reward, next_state, done=False)
        self._pending.clear()

    def _train_agents(self) -> None:
        """Run one DDPG update on every agent with enough replay data."""
        agents = [self.shared_agent] + list(self._per_service_agents.values())
        losses: List[float] = []
        for agent in agents:
            metrics = agent.train_step()
            if metrics is not None:
                losses.append(metrics["critic_loss"])
        if losses:
            self.last_critic_loss = float(np.mean(losses))

    def _reclaim_idle_resources(self) -> float:
        """Right-size over-provisioned containers when SLOs are met.

        This is how FIRM drives down the requested CPU (Fig. 10(b)) without
        hurting latency.  For each container the windowed *peak* usage from
        telemetry is consulted; only when the current limit exceeds
        ``reclaim_trigger_ratio`` times that peak is the limit shrunk, and
        then only to ``reclaim_headroom`` times the peak (never below the
        RL action lower bound).  Each container is right-sized at most once
        per ``reclaim_interval_s`` so transient idleness cannot race limits
        to the floor.
        """
        telemetry = self.coordinator.telemetry
        cfg = self.config
        now = self.engine.now
        reclaimed = 0.0
        for container in self.cluster.all_containers():
            instance = container.instance
            if instance is None:
                continue
            last = self._last_reclaim.get(container.id, -float("inf"))
            if now - last < cfg.reclaim_interval_s:
                continue
            peak = self._windowed_peak_usage(container, telemetry)
            if peak is None:
                continue
            lower = cfg.bounds.lower
            new_limits: Dict = {}
            shrink_needed = False
            for resource in container.limits:
                current = container.limits[resource]
                target = max(peak[resource] * cfg.reclaim_headroom, lower[resource])
                if current > cfg.reclaim_trigger_ratio * max(peak[resource], 1e-9) and current > target:
                    new_limits[resource] = target
                    shrink_needed = True
                else:
                    new_limits[resource] = current
            if shrink_needed:
                self.deployment.apply_limits(
                    instance, type(container.limits)(new_limits)
                )
                self._last_reclaim[container.id] = now
                reclaimed += 1.0
        return reclaimed

    def _windowed_peak_usage(self, container, telemetry):
        """Peak per-resource usage over the reclaim window (None if no data).

        Delegates to the collector, which answers from retained samples in
        raw mode (the historical fold, unchanged) or from the ring-buffer
        per-bucket maxima in sketch mode.
        """
        if telemetry is None:
            return None
        return telemetry.windowed_peak_usage(
            container.id,
            self.config.reclaim_window_s,
            self.config.reclaim_min_samples,
        )

    # --------------------------------------------------------------- training
    def train_svm_from_ground_truth(self, culprit_services: List[str]) -> float:
        """Expose the Extractor's online SVM training (used during campaigns)."""
        return self.extractor.train_svm(culprit_services)


@register_controller("firm_multi")
def _firm_one_for_each(
    cluster, coordinator, orchestrator, engine, config: Optional[FIRMConfig] = None, **kwargs
) -> FIRMController:
    """FIRM with per-microservice ("one-for-each") agents."""
    config = dataclasses.replace(config or FIRMConfig(), per_service_agents=True)
    return FIRMController(cluster, coordinator, orchestrator, engine, config=config, **kwargs)


_firm_one_for_each.stage_subscriptions = FIRMController.stage_subscriptions
