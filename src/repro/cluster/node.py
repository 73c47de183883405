"""Physical node model.

A node has a fixed capacity for each fine-grained resource type, hosts a set
of containers, and tracks external pressure injected by the performance
anomaly injector (e.g. a memory-bandwidth stressor consuming part of the
node's bandwidth).  Contention is computed at node scope: when the sum of
container demand plus injected pressure exceeds capacity for a resource,
every container on the node experiences a slowdown proportional to the
oversubscription of the resources it actually uses.

Contention is evaluated once per dispatched span, so the node keeps the
subset of its containers that have in-flight work (``_busy``, in placement
order) and the per-dispatch sums walk only that subset.  An idle
container's capped demand is exactly ``0.0``, and ``x + 0.0 == x`` in IEEE
arithmetic, so the busy-only sums equal full scans bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional

from repro.cluster.resources import (
    RESOURCE_TYPES,
    Resource,
    ResourceVector,
    default_node_capacity,
)


@dataclass
class NodeSpec:
    """Static description of a node's hardware.

    Attributes
    ----------
    name:
        Unique node name (e.g. ``"node-3"``).
    capacity:
        Per-resource capacity.
    architecture:
        ISA label; the paper's cluster mixes ``x86`` (Intel Xeon) and
        ``ppc64`` (IBM Power) nodes and Fig. 9(b) compares localization
        accuracy across the two.
    """

    name: str
    capacity: ResourceVector = field(default_factory=default_node_capacity)
    architecture: str = "x86"


_placement_key = attrgetter("_placement")


class Node:
    """A simulated server hosting containers and absorbing anomaly pressure."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.containers: List["Container"] = []  # noqa: F821 - forward ref
        #: Hosted containers whose instance has in-flight work, in placement
        #: order (each container is stamped from ``_placements`` when it is
        #: added).  Instances maintain it on their 0 <-> 1 in-flight
        #: transitions through :meth:`_mark_busy` / :meth:`_mark_idle`.
        self._busy: List["Container"] = []  # noqa: F821
        self._placements = itertools.count()
        # External pressure from the anomaly injector, as an absolute amount
        # of each resource consumed by the interfering workload.
        self._injected_pressure = ResourceVector()
        # Demand exerted on this node by containers simulated in *other*
        # shards (exchanged at window barriers).  The flag keeps the
        # unsharded hot path free of any extra arithmetic.
        self._remote_pressure = ResourceVector()
        self._has_remote_pressure = False

    # ------------------------------------------------------------ properties
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def capacity(self) -> ResourceVector:
        return self.spec.capacity

    @property
    def architecture(self) -> str:
        return self.spec.architecture

    # ------------------------------------------------------------ containers
    def add_container(self, container: "Container") -> None:  # noqa: F821
        """Place a container on this node."""
        if container in self.containers:
            return
        container._placement = next(self._placements)
        self.containers.append(container)
        container.node = self
        instance = container.instance
        if instance is not None and instance.in_flight:
            # The newest placement sorts last.
            self._busy.append(container)

    def remove_container(self, container: "Container") -> None:  # noqa: F821
        """Evict a container from this node.

        A busy container leaves the busy set too; spans it still has in
        flight finish with ``container.node`` unset and touch no node.
        """
        if container in self.containers:
            self.containers.remove(container)
            if container in self._busy:
                self._busy.remove(container)
            container.node = None

    def _mark_busy(self, container: "Container") -> None:  # noqa: F821
        """Record that a hosted container's instance went from idle to busy."""
        bisect.insort(self._busy, container, key=_placement_key)

    def _mark_idle(self, container: "Container") -> None:  # noqa: F821
        """Record that a hosted container's instance drained its last span."""
        self._busy.remove(container)

    def allocated_limits(self) -> ResourceVector:
        """Sum of resource limits across all hosted containers."""
        total = ResourceVector()
        for container in self.containers:
            total = total + container.limits
        return total

    def can_fit(self, limits: ResourceVector) -> bool:
        """Whether a container with ``limits`` fits without oversubscribing limits.

        Note this checks the *limit* (reservation) headroom; actual usage may
        still contend because limits are routinely overprovisioned.
        """
        return self.capacity.dominates(self.allocated_limits() + limits)

    # --------------------------------------------------------------- pressure
    def inject_pressure(self, pressure: ResourceVector) -> None:
        """Add anomaly-injected resource pressure (absolute units)."""
        self._injected_pressure = (self._injected_pressure + pressure).clamp_nonnegative()

    def remove_pressure(self, pressure: ResourceVector) -> None:
        """Remove previously injected pressure."""
        self._injected_pressure = (self._injected_pressure - pressure).clamp_nonnegative()

    def clear_pressure(self) -> None:
        """Drop all injected pressure (end of an anomaly campaign)."""
        self._injected_pressure = ResourceVector()

    @property
    def injected_pressure(self) -> ResourceVector:
        return self._injected_pressure.copy()

    def set_remote_pressure(self, pressure: Optional[ResourceVector]) -> None:
        """Replace the cross-shard demand this node absorbs.

        The sharded engine calls this at every window barrier with the
        summed demand of the same-named node in every other shard; None
        (or an all-zero vector) detaches the remote term entirely.
        """
        if pressure is None:
            self._remote_pressure = ResourceVector()
            self._has_remote_pressure = False
            return
        self._remote_pressure = pressure
        self._has_remote_pressure = any(
            value != 0.0 for value in pressure.values.values()
        )

    @property
    def remote_pressure(self) -> ResourceVector:
        return self._remote_pressure.copy()

    # ------------------------------------------------------------- contention
    def demand(self) -> ResourceVector:
        """Aggregate instantaneous resource demand of hosted containers.

        Sums the busy containers in placement order; idle ones add exactly
        ``0.0``, so the total equals a scan of every hosted container.
        """
        total: Dict[Resource, float] = {r: 0.0 for r in RESOURCE_TYPES}
        for container in self._busy:
            demand_values = container._capped_demand_values()
            for resource in RESOURCE_TYPES:
                total[resource] = total[resource] + demand_values[resource]
        return ResourceVector._from_normalized(total)

    #: Utilization is clipped below full saturation so the queueing-delay
    #: curve stays finite even when demand nominally exceeds capacity.
    MAX_UTILIZATION = 0.97

    @staticmethod
    def _queueing_factor(rho: float) -> float:
        """Queueing-delay-like slowdown: ``1 + rho^2 / (1 - rho)``.

        Negligible at low utilization, an order of magnitude near
        saturation — which is how memory-bandwidth or LLC interference
        turns into latency spikes without any change in CPU utilization
        (the paper's Fig. 1 motivation).
        """
        rho = min(max(rho, 0.0), Node.MAX_UTILIZATION)
        return 1.0 + (rho * rho) / (1.0 - rho)

    def enforced_reservation(self, resource: Resource) -> float:
        """Total capacity reserved by containers with enforced partitions."""
        return sum(
            container.limits[resource]
            for container in self.containers
            if container.partition_enforced
        )

    def _dilution_scale(self, resource: Resource) -> float:
        """Scale applied to guarantees when reservations oversubscribe capacity.

        Hardware partitioning (CAT ways, MBA steps) cannot hand out more
        than physically exists; when the sum of enforced limits exceeds
        capacity every guarantee is diluted proportionally.
        """
        reservation = self.enforced_reservation(resource)
        capacity = self.capacity[resource]
        if reservation <= capacity or reservation <= 0:
            return 1.0
        return capacity / reservation

    def best_effort_pool(self, resource: Resource) -> float:
        """Capacity left for unpartitioned containers and injected pressure.

        Partitioning mechanisms (CAT, MBA, CFS shares, blkio, HTB) are
        work-conserving: a protected container's unused allocation remains
        available to best-effort consumers.  The pool therefore subtracts
        the enforced containers' *usage* (capped at their guarantee), not
        their nominal limits.  Only busy containers are summed: an idle
        one's usage is ``0.0`` and its (non-negative) guarantee caps it at
        ``0.0``, so skipping it leaves the sum unchanged.
        """
        scale = self._dilution_scale(resource)
        protected_usage = 0.0
        for container in self._busy:
            if not container.partition_enforced:
                continue
            guarantee = container.limits.values[resource] * scale
            protected_usage += min(container._capped_demand_values()[resource], guarantee)
        capacity = self.capacity[resource]
        reserved = min(protected_usage, capacity)
        return max(capacity - reserved, 0.05 * capacity)

    def contention_factors(
        self,
        container: Optional["Container"] = None,  # noqa: F821
        resources: Iterable[Resource] = RESOURCE_TYPES,
    ) -> Dict[Resource, float]:
        """Per-resource contention slowdown factors.

        Without a container argument, returns the best-effort pool's
        factors (what an unpartitioned container experiences): the pool's
        utilization includes every unpartitioned container's demand plus
        the anomaly-injected pressure.

        With a container argument, partition enforcement is honoured:

        * a container whose limits have been explicitly partitioned
          (``partition_enforced``) is isolated from the pool — its slowdown
          depends only on its own demand versus its (possibly diluted)
          guarantee, which is exactly what Intel CAT/MBA, cgroups CFS
          quota, blkio, and tc/HTB provide;
        * an unpartitioned container competes in the best-effort pool.

        Only ``resources`` are evaluated (all five by default); the
        returned dict holds exactly those keys.  This runs once per
        dispatched span, so the pool demand is accumulated on plain dicts
        in one pass over the *busy* containers (idle ones add exactly
        ``0.0``), and the best-effort pool collapses to raw capacity when
        no busy container has an enforced partition (an idle enforced
        container reserves no usage, so the pool is exactly capacity).
        """
        factors: Dict[Resource, float] = {}
        capacity_values = self.capacity.values
        queueing_factor = self._queueing_factor

        if container is not None and container.partition_enforced:
            demand_values = container._capped_demand_values()
            limit_values = container.limits.values
            for resource in resources:
                capacity = capacity_values[resource]
                if capacity <= 0:
                    factors[resource] = 1.0
                    continue
                guarantee = limit_values[resource] * self._dilution_scale(resource)
                if guarantee <= 0:
                    factors[resource] = queueing_factor(self.MAX_UTILIZATION)
                    continue
                factors[resource] = queueing_factor(demand_values[resource] / guarantee)
            return factors

        has_enforced = False
        pool_demand: Dict[Resource, float] = {r: 0.0 for r in resources}
        for hosted in self._busy:
            if hosted.partition_enforced:
                has_enforced = True
                continue
            hosted_demand = hosted._capped_demand_values()
            for resource in pool_demand:
                pool_demand[resource] = pool_demand[resource] + hosted_demand[resource]
        pressure_values = self._injected_pressure.values
        for resource in pool_demand:
            pool_demand[resource] = pool_demand[resource] + pressure_values[resource]
        if self._has_remote_pressure:
            remote_values = self._remote_pressure.values
            for resource in pool_demand:
                pool_demand[resource] = pool_demand[resource] + remote_values[resource]

        for resource, demand in pool_demand.items():
            capacity = capacity_values[resource]
            if capacity <= 0:
                factors[resource] = 1.0
                continue
            pool = self.best_effort_pool(resource) if has_enforced else capacity
            factors[resource] = queueing_factor(demand / pool)
        return factors

    def utilization(self) -> ResourceVector:
        """Node-level utilization (demand + pressure, clipped to capacity)."""
        totals = self.demand() + self._injected_pressure
        if self._has_remote_pressure:
            totals = totals + self._remote_pressure
        result = {}
        for resource in RESOURCE_TYPES:
            capacity = self.capacity[resource]
            used = min(totals[resource], capacity) if capacity > 0 else 0.0
            result[resource] = used / capacity if capacity > 0 else 0.0
        return ResourceVector(result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node(name={self.name!r}, arch={self.architecture!r}, "
            f"containers={len(self.containers)})"
        )
