"""Composed controller policies: priority chains and SVM-gated RL.

The composition layer on top of the controller stages: a
:class:`ComposedController` owns a stack of member controllers (built
through the same registry, sharing the tenant's wiring and stage
binding) and decides each round which members act.

Two modes:

``priority_chain``
    Every member runs, in declared order, each round.  The value over
    running them as separate controllers is the shared stage binding:
    every member senses through the same Extractor, so FIRM's online
    SVM training is visible to the chain's own detection pull.

``svm_gated_rl``
    The paper's RL estimator guarded by a heuristic fallback.  The first
    FIRM-family member is the RL policy; the remaining members are the
    fallback chain.  Each round the gate pulls the shared SVM detection
    verdict and the tenant's admission signals, then routes the round to
    the RL member only while the critic looks trustworthy — its mean
    TD-error at or below ``td_error_threshold`` — and the admission gate
    is calm (no open circuit breakers, shed rate at or below
    ``shed_rate_threshold``).  Otherwise the fallback members act.
    Switches are journaled as ``policy_switch`` records.

``online_learning`` (default True) keeps the FIRM members' DDPG agents
fine-tuning while serving — the fig11 transfer-learning story extended
to continual operation; set it False to freeze the policy and serve
inference-only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baselines.base import ResourceController, register_controller
from repro.core.firm import FIRMController


@dataclass
class PolicySwitch:
    """Audit record of one gate decision change."""

    time_s: float
    from_policy: str
    to_policy: str
    reason: str
    td_error: Optional[float]
    shed_rate: float
    breakers_open: int


@dataclass
class ComposedRoundRecord:
    """Audit record of one composed round: who acted and why."""

    time_s: float
    active_policy: str
    slo_violated: bool
    reason: str


@register_controller("composed", aliases=("svm_gated_rl", "priority_chain"))
class ComposedController(ResourceController):
    """Composes member controllers: priority chains and SVM-gated RL with heuristic fallback.

    Parameters (as registry kwargs)
    -------------------------------
    members:
        Member controller names (or ``(name, kwargs)`` pairs), built via
        the registry with this controller's wiring.  Default
        ``("firm", "aimd")``.
    mode:
        ``"svm_gated_rl"`` (default) or ``"priority_chain"``.
    online_learning:
        Keep FIRM members' DDPG agents training while serving (default
        True); False freezes them for inference-only serving.
    td_error_threshold:
        Critic mean TD-error above which the RL member is distrusted.
    shed_rate_threshold:
        Admission shed rate above which the fallback chain takes over.
    """

    stage_subscriptions = ("detection", "admission_signals")

    def __init__(
        self,
        cluster,
        coordinator,
        orchestrator,
        engine,
        members: Sequence = ("firm", "aimd"),
        mode: str = "svm_gated_rl",
        online_learning: bool = True,
        td_error_threshold: float = 50.0,
        shed_rate_threshold: float = 0.5,
        control_interval_s: float = 2.0,
        **kwargs,
    ) -> None:
        super().__init__(
            cluster,
            coordinator,
            orchestrator,
            engine,
            control_interval_s=control_interval_s,
        )
        if mode not in ("svm_gated_rl", "priority_chain"):
            raise ValueError(f"unknown composed mode {mode!r}")
        if not members:
            raise ValueError("composed controller needs at least one member")
        self.mode = mode
        self.online_learning = bool(online_learning)
        self.td_error_threshold = float(td_error_threshold)
        self.shed_rate_threshold = float(shed_rate_threshold)
        self.members: List[ResourceController] = []
        self.member_names: List[str] = []
        for entry in members:
            name, member_kwargs = entry if isinstance(entry, (tuple, list)) else (entry, {})
            member = self._build_member(name, dict(member_kwargs), **kwargs)
            if member is None:
                raise ValueError(f"composed member {name!r} resolved to no controller")
            self.members.append(member)
            self.member_names.append(name)
        self.switches: List[PolicySwitch] = []
        self.rounds: List[ComposedRoundRecord] = []
        self.active_policy: Optional[str] = None

    def _build_member(self, name: str, member_kwargs: dict, **shared) -> ResourceController:
        from repro.baselines.base import create_controller

        merged = {**shared, **member_kwargs}
        member = create_controller(
            name,
            self.cluster,
            self.coordinator,
            self.orchestrator,
            self.engine,
            **merged,
        )
        if isinstance(member, FIRMController):
            member.config = dataclasses.replace(member.config, train_online=self.online_learning)
        return member

    # ------------------------------------------------------------- plumbing
    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value):
        # Base __init__ assigns obs before members exist; cascade once
        # they do so member rounds journal under their own sources.
        self._obs = value
        for member in getattr(self, "members", ()):
            member.obs = value

    def bind_stages(self, binding) -> None:
        """Share one stage binding (and thus one Extractor) across the
        gate and every member."""
        super().bind_stages(binding)
        for member in self.members:
            member.bind_stages(binding)

    @property
    def rl_member(self) -> Optional[FIRMController]:
        """The first FIRM-family member (the gated RL policy), if any."""
        for member in self.members:
            if isinstance(member, FIRMController):
                return member
        return None

    def _detection_params(self) -> Tuple[float, float]:
        rl = self.rl_member
        if rl is not None:
            return rl.extractor.window_s, rl.extractor.detection_percentile
        return self.control_interval_s, 99.0

    # ----------------------------------------------------------------- loop
    def control_round(self) -> ComposedRoundRecord:
        """One composed round: shared sensing, gate decision, member rounds."""
        window_s, percentile = self._detection_params()
        extraction = self.stages.pull("detection", window_s=window_s, percentile=percentile)
        if self.mode == "priority_chain":
            record = self._priority_chain_round(extraction)
        else:
            record = self._gated_round(extraction)
        self.rounds.append(record)
        if self.obs is not None:
            self.obs.journal.record(
                record.time_s,
                "composed_round",
                self.obs_source,
                active_policy=record.active_policy,
                slo_violated=record.slo_violated,
                reason=record.reason,
            )
        return record

    def _priority_chain_round(self, extraction) -> ComposedRoundRecord:
        for member in self.members:
            member.control_round()
        return ComposedRoundRecord(
            time_s=self.engine.now,
            active_policy="+".join(self.member_names),
            slo_violated=extraction.slo_violated,
            reason="priority_chain",
        )

    def _gated_round(self, extraction) -> ComposedRoundRecord:
        rl = self.rl_member
        if rl is None:
            raise ValueError("svm_gated_rl mode needs a FIRM-family member")
        signals = self.stages.pull("admission_signals")
        td_error = rl.last_critic_loss
        reason = "critic_trusted"
        use_rl = True
        if td_error is not None and td_error > self.td_error_threshold:
            use_rl, reason = False, "critic_uncertain"
        elif signals["breakers_open"] > 0:
            use_rl, reason = False, "breakers_open"
        elif signals["shed_rate"] > self.shed_rate_threshold:
            use_rl, reason = False, "shedding"
        fallback_names = [
            name
            for name, member in zip(self.member_names, self.members)
            if member is not rl
        ]
        policy = "rl" if use_rl else "+".join(fallback_names) or "rl"
        if policy != self.active_policy:
            switch = PolicySwitch(
                time_s=self.engine.now,
                from_policy=self.active_policy or "none",
                to_policy=policy,
                reason=reason,
                td_error=td_error,
                shed_rate=float(signals["shed_rate"]),
                breakers_open=int(signals["breakers_open"]),
            )
            self.switches.append(switch)
            if self.obs is not None:
                self.obs.journal.record(
                    switch.time_s,
                    "policy_switch",
                    self.obs_source,
                    from_policy=switch.from_policy,
                    to_policy=switch.to_policy,
                    reason=switch.reason,
                    td_error=switch.td_error,
                    shed_rate=switch.shed_rate,
                    breakers_open=switch.breakers_open,
                )
            self.active_policy = policy
        if use_rl or not fallback_names:
            rl.control_round()
        else:
            for member in self.members:
                if member is not rl:
                    member.control_round()
        return ComposedRoundRecord(
            time_s=self.engine.now,
            active_policy=policy,
            slo_violated=extraction.slo_violated,
            reason=reason,
        )
