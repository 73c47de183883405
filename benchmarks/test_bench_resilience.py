"""Benchmark: the resilience-evaluation subsystem (controller × campaign).

Runs one multi-anomaly resilience case end to end — campaign injection
with service-wide scope, per-window localization scoring against the
injector's ground truth, and mitigation accounting — and records the
headline numbers as the smoke baseline for the resilience scoreboard's
trajectory.  The shape checks pin the determinism contract (same seed,
same score) and the ground-truth alignment the scoreboard depends on.
"""

from __future__ import annotations

import pytest

from conftest import save_result

from repro.experiments.resilience import ResilienceCase, run_resilience_case

pytestmark = [pytest.mark.smoke]

#: Reduced-scale case: ~44 simulated seconds, dense enough that several
#: analysis windows carry active injections.
CASE = ResilienceCase(
    application="social_network",
    controller="none",
    campaign="multi_anomaly",
    seed=7,
    load_rps=40.0,
    window_s=8.0,
    campaign_windows=4,
    scope="service_wide",
    replicas_per_service=2,
)


def test_bench_resilience_multi_anomaly(benchmark, results_dir):
    outcome = benchmark.pedantic(
        lambda: run_resilience_case(CASE), rounds=1, iterations=1
    )

    wall_s = benchmark.stats.stats.mean
    row = outcome.as_dict()

    print("\n=== Resilience evaluation (multi-anomaly, service-wide scope) ===")
    print(f"case:                  {outcome.case_id}")
    print(f"wall time:             {wall_s:>8.2f} s")
    print(f"windows scored:        {row['windows_scored']:>8d}")
    print(f"localization:          precision={row['precision']:.2f} recall={row['recall']:.2f}")
    print(
        f"mitigation:            violation_seconds={row['slo_violation_seconds']:.1f} "
        f"time_to_mitigate={row['time_to_mitigate_s']:.1f} s"
    )
    print(
        f"requests:              completed={row['summary']['completed']:.0f} "
        f"violations={row['summary']['violations']:.0f}"
    )

    save_result(
        results_dir,
        "resilience",
        {
            "case_id": outcome.case_id,
            "precision": row["precision"],
            "recall": row["recall"],
            "windows_scored": row["windows_scored"],
            "slo_violation_seconds": row["slo_violation_seconds"],
            "time_to_mitigate_s": row["time_to_mitigate_s"],
            "summary": row["summary"],
        },
    )

    # Shape checks: traffic was served, several windows were scored, and
    # scores stay inside [0, 1] with the windows on the analysis grid.
    assert row["summary"]["completed"] > 0
    assert row["windows_scored"] >= 3
    assert 0.0 <= row["precision"] <= 1.0
    assert 0.0 <= row["recall"] <= 1.0
    for window in outcome.windows:
        assert window.end_s - window.start_s == CASE.window_s
