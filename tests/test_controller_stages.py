"""Unit tests for the controller stages (:mod:`repro.controllers`).

Covers direct stage pulls (every pull computes), unknown stage names,
detection running the Extractor FIRM provides, the controller registry
description backing ``repro.cli controllers --list``, and the two FIRM
fixes that ride along the stage refactor (the stopped-loop bookkeeping
and the per-instance SLO selection).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.baselines.base import describe_controllers
from repro.cli import main
from repro.controllers import STAGES, StageBinding
from repro.core.firm import FIRMConfig, FIRMController


class CountingCoordinator:
    """Fake coordinator that counts has_slo_violation queries."""

    def __init__(self) -> None:
        self.calls = 0

    def has_slo_violation(self, window_s, percentile=99.0):
        self.calls += 1
        return False


# --------------------------------------------------------------- stages
class TestStages:
    def test_all_builtin_stages_registered(self):
        for expected in (
            "slo_verdict",
            "comfortable",
            "critical_path",
            "detection",
            "admission_signals",
            "service_cpu_utilization",
        ):
            assert expected in STAGES

    def test_every_pull_computes(self):
        coordinator = CountingCoordinator()
        binding = StageBinding(coordinator=coordinator, view=None)
        assert binding.pull("slo_verdict", window_s=2.0, percentile=99.0) is False
        assert binding.pull("slo_verdict", window_s=2.0, percentile=99.0) is False
        assert coordinator.calls == 2

    def test_unknown_stage_name_rejected(self):
        binding = StageBinding(coordinator=CountingCoordinator(), view=None)
        with pytest.raises(ValueError, match="unknown controller stage 'no_such_stage'") as info:
            binding.pull("no_such_stage")
        for name in STAGES:
            assert name in str(info.value)

    def test_detection_uses_firm_extractor(self, cluster, coordinator, orchestrator, engine):
        firm = FIRMController(
            cluster, coordinator, orchestrator, engine, config=FIRMConfig(train_online=False)
        )
        calls = []

        def localize(violated, force=False, traces=None, paths=None):
            calls.append((violated, force, traces, paths))
            return "firm-extraction"

        firm.extractor.localize = localize
        window_s = firm.extractor.window_s
        percentile = firm.extractor.detection_percentile
        assert firm.stages.extractor_for(window_s, percentile) is firm.extractor
        result = firm.stages.pull("detection", window_s=window_s, percentile=percentile)
        assert result == "firm-extraction"
        assert calls == [(False, False, [], [])]

    def test_composed_gate_shares_firm_extractor(self):
        from repro.experiments.composed import composed_stack_spec
        from repro.experiments.harness import ExperimentHarness

        harness = ExperimentHarness.from_spec(composed_stack_spec(duration_s=1.0))
        gate = harness.tenant("victim").controller
        rl = gate.rl_member
        assert gate.stages is rl.stages
        extractor = gate.stages.extractor_for(
            rl.extractor.window_s, rl.extractor.detection_percentile
        )
        assert extractor is rl.extractor


# ------------------------------------------------------------- registry
class TestControllerRegistry:
    def test_describe_controllers_rows(self):
        rows = {row["name"]: row for row in describe_controllers()}
        for expected in ("aimd", "composed", "firm", "kubernetes_hpa", "none"):
            assert expected in rows
        assert "svm_gated_rl" in rows["composed"]["aliases"]
        assert "priority_chain" in rows["composed"]["aliases"]
        assert "detection" in rows["firm"]["stages"]
        assert "service_cpu_utilization" in rows["kubernetes_hpa"]["stages"]
        assert rows["firm"]["summary"]

    def test_cli_controllers_list(self, capsys):
        assert main(["controllers", "--list"]) == 0
        out = capsys.readouterr().out
        assert "composed" in out
        assert "firm" in out
        assert "detection" in out


# ---------------------------------------------------- FIRM fixes riding
class TestFIRMStoppedRound:
    def test_stopped_loop_round_is_recorded(self):
        from repro.experiments.harness import ExperimentHarness

        harness = ExperimentHarness.build("social_network", seed=9)
        harness.attach_workload(load_rps=20.0)
        firm = harness.attach_firm(FIRMConfig(train_online=False))
        firm.stop()
        before = len(firm.rounds)
        record = firm.control_round()
        assert len(firm.rounds) == before + 1
        assert firm.rounds[-1] is record
        assert record.slo_violated is False
        assert record.actions_applied == 0

    def test_restart_clears_stopped_flag(self):
        from repro.experiments.harness import ExperimentHarness

        harness = ExperimentHarness.build("social_network", seed=9)
        harness.attach_workload(load_rps=20.0)
        firm = harness.attach_firm(FIRMConfig(train_online=False))
        firm.stop()
        assert firm._stopped
        firm.start()
        assert not firm._stopped


class TestSLOForInstance:
    @pytest.fixture
    def firm(self, cluster, coordinator, orchestrator, engine):
        return FIRMController(
            cluster, coordinator, orchestrator, engine,
            config=FIRMConfig(train_online=False),
        )

    @staticmethod
    def _instance(service):
        return SimpleNamespace(profile=SimpleNamespace(name=service))

    def test_no_slos_falls_back_to_default(self, firm):
        assert firm._slo_for_instance(self._instance("svcA")) == 500.0

    def test_tightest_matching_slo_wins(self, firm, coordinator):
        coordinator.register_slo("r1", 200.0, services=("svcA", "svcB"))
        coordinator.register_slo("r2", 100.0, services=("svcB",))
        coordinator.register_slo("r3", 50.0, services=("svcC",))
        # svcB serves r1 and r2: tightest among those, NOT the global min.
        assert firm._slo_for_instance(self._instance("svcB")) == 100.0
        assert firm._slo_for_instance(self._instance("svcC")) == 50.0

    def test_unmatched_service_uses_global_min(self, firm, coordinator):
        coordinator.register_slo("r1", 200.0, services=("svcA",))
        coordinator.register_slo("r2", 80.0, services=("svcB",))
        assert firm._slo_for_instance(self._instance("unrelated")) == 80.0

    def test_slos_without_service_lists_use_global_min(self, firm, coordinator):
        coordinator.register_slo("r1", 300.0)
        coordinator.register_slo("r2", 120.0)
        assert firm._slo_for_instance(self._instance("svcA")) == 120.0
