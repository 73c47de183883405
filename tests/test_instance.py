"""Unit tests for the microservice instance (queueing, service times)."""

from __future__ import annotations

import pytest

from repro.cluster.container import Container
from repro.cluster.instance import MicroserviceInstance, ServiceProfile
from repro.cluster.node import Node, NodeSpec
from repro.cluster.resources import (
    RESOURCE_TYPES,
    Resource,
    ResourceLimits,
    ResourceVector,
)
from repro.experiments.harness import ExperimentHarness
from repro.experiments.interference import aggressor_victim


def _make_instance(engine, rng, cpu_limit=4.0, base_ms=5.0, threads=8, cv=0.25):
    node = Node(NodeSpec(name="n0"))
    profile = ServiceProfile(
        name="svc",
        base_service_time_ms=base_ms,
        service_time_cv=cv,
        resource_weights={Resource.CPU: 1.0},
        demand_per_request=ResourceVector.from_kwargs(cpu=0.5),
        threads=threads,
    )
    container = Container("svc", limits=ResourceLimits.from_kwargs(
        cpu=cpu_limit, memory_bandwidth=10.0, llc=4.0, disk_io=200.0, network=1.0
    ))
    node.add_container(container)
    return MicroserviceInstance(profile, container, engine, rng)


class TestSubmission:
    def test_submit_completes_after_service_time(self, engine, rng):
        instance = _make_instance(engine, rng)
        completions = []
        instance.submit("r1", "svc", lambda eq, st, ft: completions.append((eq, st, ft)))
        engine.run_until(1.0)
        assert len(completions) == 1
        enqueue, start, finish = completions[0]
        assert enqueue == 0.0
        assert finish > start >= enqueue

    def test_completed_spans_counter(self, engine, rng):
        instance = _make_instance(engine, rng)
        for index in range(5):
            instance.submit(f"r{index}", "svc", lambda *a: None)
        engine.run_until(1.0)
        assert instance.completed_spans == 5

    def test_latency_recorded_in_recent_window(self, engine, rng):
        instance = _make_instance(engine, rng)
        instance.submit("r1", "svc", lambda *a: None)
        engine.run_until(1.0)
        assert len(instance.recent_latencies_ms) == 1
        assert instance.recent_latencies_ms[0] > 0

    def test_drain_latency_window_clears(self, engine, rng):
        instance = _make_instance(engine, rng)
        instance.submit("r1", "svc", lambda *a: None)
        engine.run_until(1.0)
        window = instance.drain_latency_window()
        assert len(window) == 1
        assert instance.recent_latencies_ms == []

    def test_queue_overflow_drops(self, engine, rng):
        instance = _make_instance(engine, rng)
        instance.max_queue_length = 3
        accepted = [instance.submit(f"r{i}", "svc", lambda *a: None) for i in range(10)]
        assert not all(accepted)
        assert instance.dropped_spans > 0

    def test_explicit_base_time_is_used(self, engine, rng):
        instance = _make_instance(engine, rng)
        finish_times = []
        instance.submit("r1", "svc", lambda eq, st, ft: finish_times.append(ft), base_time_ms=100.0)
        engine.run_until(1.0)
        assert finish_times[0] == pytest.approx(0.1, rel=0.05)


class TestConcurrencyAndQueueing:
    def test_concurrency_from_cpu_limit(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=2.0)
        assert instance.concurrency() == 2

    def test_concurrency_at_least_one(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=0.25)
        assert instance.concurrency() == 1

    def test_queueing_inflates_latency(self, engine, rng):
        """With concurrency 1, the Nth request waits for the previous N-1."""
        instance = _make_instance(engine, rng, cpu_limit=1.0, cv=0.01)
        finishes = []
        for index in range(4):
            instance.submit(f"r{index}", "svc", lambda eq, st, ft: finishes.append(ft - eq))
        engine.run_until(5.0)
        assert len(finishes) == 4
        assert finishes[-1] > finishes[0] * 2.5

    def test_parallel_when_concurrency_allows(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=8.0, cv=0.01)
        finishes = []
        for index in range(4):
            instance.submit(f"r{index}", "svc", lambda eq, st, ft: finishes.append(ft - eq))
        engine.run_until(5.0)
        # All four ran concurrently, so sojourn times are close to each other.
        assert max(finishes) < min(finishes) * 1.5

    def test_in_flight_counts_queue_and_service(self, engine, rng):
        instance = _make_instance(engine, rng, cpu_limit=1.0)
        for index in range(3):
            instance.submit(f"r{index}", "svc", lambda *a: None)
        assert instance.in_flight == 3
        assert instance.queue_length == 2


class TestServiceTimes:
    def test_service_time_positive(self, engine, rng):
        instance = _make_instance(engine, rng)
        draws = [instance._draw_service_time_ms() for _ in range(100)]
        assert all(draw > 0 for draw in draws)

    def test_service_time_mean_close_to_profile(self, engine, rng):
        instance = _make_instance(engine, rng, base_ms=10.0, cv=0.2)
        draws = [instance._draw_service_time_ms() for _ in range(2000)]
        assert sum(draws) / len(draws) == pytest.approx(10.0, rel=0.1)

    def test_slowdown_stretches_service_time(self, engine, rng):
        instance = _make_instance(engine, rng, cv=0.01)
        node = instance.container.node
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.95 * node.capacity[Resource.CPU]))
        finishes = []
        instance.submit("r1", "svc", lambda eq, st, ft: finishes.append(ft - eq), base_time_ms=10.0)
        engine.run_until(10.0)
        assert finishes[0] > 0.05  # 10 ms base stretched by > 5x

    def test_resource_demand_zero_when_idle(self, engine, rng):
        instance = _make_instance(engine, rng)
        assert instance.resource_demand().total() == 0.0

    def test_profile_dominant_resource(self):
        profile = ServiceProfile(
            name="x",
            resource_weights={Resource.CPU: 0.3, Resource.LLC: 0.9},
        )
        assert profile.dominant_resource() is Resource.LLC


class TestBusyTransitions:
    def test_submit_marks_busy_and_last_finish_marks_idle(self, engine, rng):
        instance = _make_instance(engine, rng)
        node = instance.container.node
        assert node._busy == []
        instance.submit("r1", "svc", lambda *a: None)
        instance.submit("r2", "svc", lambda *a: None)
        assert node._busy == [instance.container]
        engine.run_until(1.0)
        assert node._busy == []

    def test_dropped_submit_leaves_busy_set_alone(self, engine, rng):
        instance = _make_instance(engine, rng)
        instance.max_queue_length = 0
        assert not instance.submit("r1", "svc", lambda *a: None)
        assert instance.container.node._busy == []

    def test_finish_after_eviction_touches_no_node(self, engine, rng):
        instance = _make_instance(engine, rng)
        node = instance.container.node
        instance.submit("r1", "svc", lambda *a: None)
        node.remove_container(instance.container)
        assert node._busy == []
        engine.run_until(1.0)
        assert instance.completed_spans == 1
        assert node._busy == []


# --------------------------------------------------------------------------
# Full-scan reference of the five-resource contention model.  The simulator
# scans only busy containers and weighted resources; both shortcuts must be
# exact, so every dispatch is compared with ``==``.
# --------------------------------------------------------------------------


def _reference_dilution(node, resource):
    reservation = sum(c.limits[resource] for c in node.containers if c.partition_enforced)
    capacity = node.capacity[resource]
    if reservation <= capacity or reservation <= 0:
        return 1.0
    return capacity / reservation


def _reference_contention(node, container):
    queueing = Node._queueing_factor
    factors = {}
    if container.partition_enforced:
        demand = container.current_demand()
        for resource in RESOURCE_TYPES:
            capacity = node.capacity[resource]
            if capacity <= 0:
                factors[resource] = 1.0
                continue
            guarantee = container.limits[resource] * _reference_dilution(node, resource)
            if guarantee <= 0:
                factors[resource] = queueing(Node.MAX_UTILIZATION)
            else:
                factors[resource] = queueing(demand[resource] / guarantee)
        return factors
    has_enforced = any(c.partition_enforced for c in node.containers)
    pool_demand = {resource: 0.0 for resource in RESOURCE_TYPES}
    for hosted in node.containers:
        if not hosted.partition_enforced:
            demand = hosted.current_demand()
            for resource in RESOURCE_TYPES:
                pool_demand[resource] = pool_demand[resource] + demand[resource]
    for resource in RESOURCE_TYPES:
        pool_demand[resource] = pool_demand[resource] + node.injected_pressure[resource]
    if node._has_remote_pressure:
        for resource in RESOURCE_TYPES:
            pool_demand[resource] = pool_demand[resource] + node.remote_pressure[resource]
    for resource in RESOURCE_TYPES:
        capacity = node.capacity[resource]
        if capacity <= 0:
            factors[resource] = 1.0
            continue
        pool = capacity
        if has_enforced:
            protected = 0.0
            for hosted in node.containers:
                if hosted.partition_enforced:
                    guarantee = hosted.limits[resource] * _reference_dilution(node, resource)
                    protected += min(hosted.current_demand()[resource], guarantee)
            pool = max(capacity - min(protected, capacity), 0.05 * capacity)
        factors[resource] = queueing(pool_demand[resource] / pool)
    return factors


def _reference_slowdown(container):
    queueing = Node._queueing_factor
    instance = container.instance
    raw = instance.resource_demand()
    cap = {}
    for resource in RESOURCE_TYPES:
        limit = (
            container.effective_cpu_limit()
            if resource is Resource.CPU
            else container.limits[resource]
        )
        if raw[resource] <= 0:
            cap[resource] = 1.0
        elif limit <= 0:
            cap[resource] = queueing(Node.MAX_UTILIZATION)
        else:
            cap[resource] = queueing(raw[resource] / limit)
    if container.node is not None:
        node_factors = _reference_contention(container.node, container)
    else:
        node_factors = {resource: 1.0 for resource in RESOURCE_TYPES}
    slowdown = 1.0
    for resource in RESOURCE_TYPES:
        weight = instance.profile.resource_weights.get(resource, 0.0)
        factor = max(cap[resource], node_factors[resource])
        slowdown = max(slowdown, 1.0 + (factor - 1.0) * weight)
    return slowdown


class TestContentionExactness:
    @pytest.mark.parametrize("enforce_half", [False, True])
    def test_every_dispatch_matches_full_scan(self, monkeypatch, enforce_half):
        spec = aggressor_victim(duration_s=1.0, seed=0, aggressor_anomaly_rate_per_s=2.0)
        harness = ExperimentHarness.from_spec(spec)
        containers = harness.cluster.all_containers()
        if enforce_half:
            for container in containers[::2]:
                container.partition_enforced = True
        checked = []
        original = Container.total_slowdown

        def checked_total_slowdown(container):
            slowdown = original(container)
            node = container.node
            assert slowdown == _reference_slowdown(container)
            assert node.contention_factors(container) == _reference_contention(node, container)
            reference_demand = {resource: 0.0 for resource in RESOURCE_TYPES}
            for hosted in node.containers:
                for resource in RESOURCE_TYPES:
                    reference_demand[resource] = (
                        reference_demand[resource] + hosted.current_demand()[resource]
                    )
            assert node.demand().values == reference_demand
            checked.append(slowdown)
            return slowdown

        monkeypatch.setattr(Container, "total_slowdown", checked_total_slowdown)
        harness.run()
        assert len(checked) > 1000
        # The run exercised real contention, not only neutral factors.
        assert max(checked) > 1.0
