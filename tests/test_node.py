"""Unit tests for the node model (placement, pressure, contention)."""

from __future__ import annotations

import random

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


@pytest.fixture
def node() -> Node:
    return Node(NodeSpec(name="test-node"))


def _instance_on(node, engine, rng, profile=None, limits=None):
    """Helper: place a container+instance on a node."""
    if profile is None:
        profile = ServiceProfile(
            name="svc",
            base_service_time_ms=5.0,
            resource_weights={Resource.CPU: 1.0},
            demand_per_request=ResourceVector.from_kwargs(cpu=1.0),
        )
    container = Container(profile.name, limits=limits)
    node.add_container(container)
    return MicroserviceInstance(profile, container, engine, rng)


class TestPlacement:
    def test_add_container_sets_backlink(self, node):
        container = Container("svc")
        node.add_container(container)
        assert container.node is node
        assert container in node.containers

    def test_add_container_idempotent(self, node):
        container = Container("svc")
        node.add_container(container)
        node.add_container(container)
        assert node.containers.count(container) == 1

    def test_remove_container(self, node):
        container = Container("svc")
        node.add_container(container)
        node.remove_container(container)
        assert container.node is None
        assert container not in node.containers

    def test_allocated_limits_sums_containers(self, node):
        node.add_container(Container("a", limits=ResourceLimits.from_kwargs(cpu=2.0)))
        node.add_container(Container("b", limits=ResourceLimits.from_kwargs(cpu=3.0)))
        assert node.allocated_limits()[Resource.CPU] == pytest.approx(5.0)

    def test_can_fit_respects_capacity(self, node):
        huge = ResourceLimits.from_kwargs(cpu=node.capacity[Resource.CPU] + 1)
        assert not node.can_fit(huge)
        small = ResourceLimits.from_kwargs(cpu=1.0)
        assert node.can_fit(small)

    def test_architecture_label(self):
        assert Node(NodeSpec(name="p", architecture="ppc64")).architecture == "ppc64"


class TestPressure:
    def test_inject_and_remove_pressure(self, node):
        pressure = ResourceVector.from_kwargs(memory_bandwidth=50.0)
        node.inject_pressure(pressure)
        assert node.injected_pressure[Resource.MEMORY_BANDWIDTH] == pytest.approx(50.0)
        node.remove_pressure(pressure)
        assert node.injected_pressure[Resource.MEMORY_BANDWIDTH] == pytest.approx(0.0)

    def test_pressure_never_negative(self, node):
        node.remove_pressure(ResourceVector.from_kwargs(cpu=10.0))
        assert node.injected_pressure[Resource.CPU] == 0.0

    def test_clear_pressure(self, node):
        node.inject_pressure(ResourceVector.from_kwargs(cpu=10.0))
        node.clear_pressure()
        assert node.injected_pressure.total() == 0.0

    def test_pressure_accumulates(self, node):
        node.inject_pressure(ResourceVector.from_kwargs(cpu=10.0))
        node.inject_pressure(ResourceVector.from_kwargs(cpu=5.0))
        assert node.injected_pressure[Resource.CPU] == pytest.approx(15.0)


class TestContention:
    def test_no_pressure_no_contention(self, node):
        factors = node.contention_factors()
        assert all(factor == pytest.approx(1.0) for factor in factors.values())

    def test_queueing_factor_monotone(self):
        assert Node._queueing_factor(0.2) < Node._queueing_factor(0.5) < Node._queueing_factor(0.9)

    def test_queueing_factor_bounded_at_saturation(self):
        assert Node._queueing_factor(5.0) == Node._queueing_factor(1.0)

    def test_queueing_factor_at_zero_is_one(self):
        assert Node._queueing_factor(0.0) == pytest.approx(1.0)

    def test_high_pressure_creates_contention(self, node):
        capacity = node.capacity[Resource.MEMORY_BANDWIDTH]
        node.inject_pressure(ResourceVector.from_kwargs(memory_bandwidth=0.9 * capacity))
        factors = node.contention_factors()
        assert factors[Resource.MEMORY_BANDWIDTH] > 3.0
        assert factors[Resource.CPU] == pytest.approx(1.0)

    def test_enforced_container_isolated_from_pressure(self, node, engine, rng):
        instance = _instance_on(node, engine, rng)
        container = instance.container
        capacity = node.capacity[Resource.CPU]
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.95 * capacity))
        # Not enforced: suffers the pool contention.
        unprotected = node.contention_factors(container)[Resource.CPU]
        assert unprotected > 3.0
        # Enforced: isolated (demand is zero, so the factor collapses to ~1).
        container.partition_enforced = True
        protected = node.contention_factors(container)[Resource.CPU]
        assert protected == pytest.approx(1.0, abs=0.05)

    def test_best_effort_pool_shrinks_with_protected_usage(self, node, engine, rng):
        instance = _instance_on(
            node, engine, rng, limits=ResourceLimits.from_kwargs(cpu=8.0)
        )
        container = instance.container
        full_pool = node.best_effort_pool(Resource.CPU)
        container.partition_enforced = True
        # Give the instance some in-flight work so it has demand.
        instance.submit("r1", "svc", lambda *a: None)
        shrunk_pool = node.best_effort_pool(Resource.CPU)
        assert shrunk_pool <= full_pool

    def test_best_effort_pool_never_below_five_percent(self, node, engine, rng):
        instance = _instance_on(
            node, engine, rng, limits=ResourceLimits.from_kwargs(cpu=1000.0)
        )
        instance.container.partition_enforced = True
        for index in range(50):
            instance.submit(f"r{index}", "svc", lambda *a: None)
        pool = node.best_effort_pool(Resource.CPU)
        assert pool >= 0.05 * node.capacity[Resource.CPU] - 1e-9

    def test_enforced_reservation_counts_only_enforced(self, node):
        plain = Container("a", limits=ResourceLimits.from_kwargs(cpu=2.0))
        enforced = Container("b", limits=ResourceLimits.from_kwargs(cpu=3.0))
        enforced.partition_enforced = True
        node.add_container(plain)
        node.add_container(enforced)
        assert node.enforced_reservation(Resource.CPU) == pytest.approx(3.0)

    def test_dilution_when_oversubscribed(self, node):
        capacity = node.capacity[Resource.CPU]
        a = Container("a", limits=ResourceLimits.from_kwargs(cpu=capacity))
        b = Container("b", limits=ResourceLimits.from_kwargs(cpu=capacity))
        a.partition_enforced = True
        b.partition_enforced = True
        node.add_container(a)
        node.add_container(b)
        assert node._dilution_scale(Resource.CPU) == pytest.approx(0.5)

    def test_utilization_clipped_to_one(self, node):
        capacity = node.capacity[Resource.CPU]
        node.inject_pressure(ResourceVector.from_kwargs(cpu=5 * capacity))
        assert node.utilization()[Resource.CPU] <= 1.0

    def test_demand_sums_hosted_instances(self, node, engine, rng):
        instance = _instance_on(node, engine, rng)
        instance.submit("r1", "svc", lambda *a: None)
        assert node.demand()[Resource.CPU] > 0.0


def _busy_reference(node):
    """The busy set recomputed from scratch: busy hosted containers, in order."""
    return [c for c in node.containers if c.instance and c.instance.in_flight]


class TestBusySet:
    def test_random_operations_keep_busy_set_exact(self, node, engine, rng):
        one_core = ResourceLimits.from_kwargs(cpu=1.0)
        instances = [
            _instance_on(node, engine, rng, limits=one_core if index % 2 else None)
            for index in range(6)
        ]
        for instance in instances[1::2]:
            instance.max_queue_length = 2
        removed = []
        evicted_busy = 0
        choices = random.Random(7)
        for step in range(400):
            op = choices.random()
            if op < 0.5:
                instance = choices.choice(instances)
                instance.submit(f"r{step}", "svc", lambda *a: None)
            elif op < 0.8:
                engine.run_until(engine.now + choices.uniform(0.0, 0.01))
            elif op < 0.9 and node.containers:
                container = choices.choice(node.containers)
                evicted_busy += container in node._busy
                node.remove_container(container)
                removed.append(container)
            elif removed:
                node.add_container(removed.pop(choices.randrange(len(removed))))
            assert node._busy == _busy_reference(node)
        assert evicted_busy > 0
        assert sum(instance.dropped_spans for instance in instances) > 0
        # Spans of containers evicted while busy finish without a node.
        engine.run_until(engine.now + 10.0)
        assert node._busy == _busy_reference(node) == []
        assert all(instance.in_flight == 0 for instance in instances)

    def test_readded_busy_container_rejoins_in_placement_order(self, node, engine, rng):
        first, second = _instance_on(node, engine, rng), _instance_on(node, engine, rng)
        first.submit("r1", "svc", lambda *a: None)
        second.submit("r2", "svc", lambda *a: None)
        node.remove_container(first.container)
        assert node._busy == [second.container]
        node.add_container(first.container)
        assert node._busy == [second.container, first.container]
        engine.run_until(1.0)
        assert node._busy == []


class TestEnforcedPoolExactness:
    def test_oversubscribed_enforced_pool_is_exact(self, node, engine, rng):
        capacity = node.capacity[Resource.CPU]
        limits = ResourceLimits.from_kwargs(cpu=0.6 * capacity)
        enforced = [_instance_on(node, engine, rng, limits=limits) for _ in range(3)]
        plain = _instance_on(node, engine, rng)
        for instance in enforced:
            instance.container.partition_enforced = True
        # Two enforced replicas busy (one heavily), one idle; plus a busy
        # best-effort neighbour that must not count as protected usage.
        for index in range(30):
            enforced[0].submit(f"a{index}", "svc", lambda *a: None)
        enforced[2].submit("b", "svc", lambda *a: None)
        plain.submit("c", "svc", lambda *a: None)

        reservation = sum(i.container.limits[Resource.CPU] for i in enforced)
        assert reservation > capacity
        scale = capacity / reservation
        protected = 0.0
        for container in node.containers:
            if container.partition_enforced:
                guarantee = container.limits[Resource.CPU] * scale
                protected += min(container.current_demand()[Resource.CPU], guarantee)
        expected = max(capacity - min(protected, capacity), 0.05 * capacity)
        assert node.best_effort_pool(Resource.CPU) == expected

    def test_idle_enforced_containers_leave_full_capacity(self, node, engine, rng):
        idle = _instance_on(node, engine, rng)
        idle.container.partition_enforced = True
        busy = _instance_on(node, engine, rng)
        busy.submit("r1", "svc", lambda *a: None)
        for resource in RESOURCE_TYPES:
            assert node.best_effort_pool(resource) == node.capacity[resource]
        node.inject_pressure(ResourceVector.from_kwargs(cpu=0.5 * node.capacity[Resource.CPU]))
        factors = node.contention_factors(busy.container)
        idle.container.partition_enforced = False
        assert node.contention_factors(busy.container) == factors

    def test_resource_subset_matches_full_evaluation(self, node, engine, rng):
        instance = _instance_on(node, engine, rng)
        instance.submit("r1", "svc", lambda *a: None)
        node.inject_pressure(ResourceVector.from_kwargs(cpu=20.0, llc=5.0))
        full = node.contention_factors(instance.container)
        subset = (Resource.LLC, Resource.CPU)
        assert node.contention_factors(instance.container, subset) == {
            resource: full[resource] for resource in subset
        }
