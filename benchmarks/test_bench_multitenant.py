"""Benchmark: multi-tenant shared-cluster harness throughput.

Co-locates two identical tenants (full application graphs, separate
workloads, per-tenant SLO accounting) on one small shared cluster and
measures how fast the harness simulates the scenario — the baseline for
the multi-tenant runtime's performance trajectory.  Prints per-tenant SLO
statistics alongside the merged cluster-level view so consolidation
regressions (a tenant silently starving) are visible next to the timing.
"""

from __future__ import annotations

import pytest

from conftest import save_result

from repro.experiments.interference import identical_tenants
from repro.experiments.scenario import run_scenario

pytestmark = [pytest.mark.smoke]

#: Simulated seconds per run; requests simulated = 2 tenants x 25 rps x this.
DURATION_S = 30.0


def test_bench_multitenant_harness_throughput(benchmark, results_dir):
    spec = identical_tenants(
        2,
        application="hotel_reservation",
        load_rps=25.0,
        controller="none",
        duration_s=DURATION_S,
        seed=7,
        cluster_nodes=(2, 0),
    )
    result = benchmark.pedantic(lambda: run_scenario(spec), rounds=1, iterations=1)

    merged = result.summary()
    per_tenant = result.per_tenant_summary()
    wall_s = benchmark.stats.stats.mean
    sim_rate = DURATION_S / wall_s if wall_s > 0 else float("inf")
    requests_per_wall_s = merged["completed"] / wall_s if wall_s > 0 else float("inf")

    print("\n=== Multi-tenant harness throughput (2 co-located tenants) ===")
    print(f"wall time:           {wall_s:>8.2f} s for {DURATION_S:.0f} simulated s")
    print(f"simulation rate:     {sim_rate:>8.1f} sim-s / wall-s")
    print(f"completed requests:  {merged['completed']:>8.0f} ({requests_per_wall_s:.0f} req / wall-s)")
    for name, summary in per_tenant.items():
        print(
            f"  {name}: completed={summary['completed']:.0f} "
            f"p50={summary['p50_ms']:.1f} ms p99={summary['p99_ms']:.1f} ms "
            f"violations={summary['violations']:.0f}"
        )
    save_result(
        results_dir,
        "multitenant",
        {
            "merged": merged,
            "tenants": per_tenant,
        },
    )

    # Shape checks: both tenants serve traffic and are accounted separately,
    # and the merged view is exactly the sum of the tenants'.
    assert set(per_tenant) == {"t0", "t1"}
    assert all(summary["completed"] > 0 for summary in per_tenant.values())
    assert merged["completed"] == sum(s["completed"] for s in per_tenant.values())
