"""Benchmark: the metastable-failure scenario family under admission control.

Runs the two headline campaigns end to end at smoke scale and records
their scoreboards — ``retry_storm`` (the same transient anomaly under
``none`` / ``naive_retries`` / ``survival_kit`` admission, resilience
-scored) and ``shed_vs_violate`` (the rate-limit sweep mapping shed
fraction against SLO violation on the survivors).  The shape checks pin
the storm narrative the committed scoreboard exists to show: naive
retries amplify the trigger (amplification > 1, violation no better than
no admission at all) while the survival kit never makes things worse.
"""

from __future__ import annotations

import pytest

from conftest import save_result

from repro.experiments.metastable import run_metastable_campaign

pytestmark = [pytest.mark.smoke]

#: One seed, quick durations: 15 simulated seconds per case, the trigger
#: at 2.5 s for 5 s, scored in 5 s localization windows.
SEED = 0


def test_bench_metastable_campaigns(benchmark, results_dir):
    def _run():
        return {
            "retry_storm": run_metastable_campaign(
                "retry_storm", seed=SEED, quick=True
            ),
            "shed_vs_violate": run_metastable_campaign(
                "shed_vs_violate", seed=SEED, quick=True
            ),
        }

    boards = benchmark.pedantic(_run, rounds=1, iterations=1)
    wall_s = benchmark.stats.stats.mean

    storm = boards["retry_storm"]
    shed = boards["shed_vs_violate"]
    verdict = storm["verdict"]

    print("\n=== Metastable failures: retry storm vs the survival kit ===")
    print(f"wall time:             {wall_s:>8.2f} s")
    for row in storm["cases"]:
        stats = row["admission_stats"] or {}
        print(
            f"{row['admission']:>14}: p99={row['summary']['p99_ms']:8.1f} ms  "
            f"violation={row['slo_violation_seconds']:5.1f} s  "
            f"post-trigger={row['post_trigger_violation_s']:5.1f} s  "
            f"amplification={row['amplification']:.3f}  "
            f"retries={stats.get('retries', 0)}"
        )
    print("=== Shed vs violate (rate-limit sweep) ===")
    for point in shed["verdict"]["tradeoff_curve"]:
        print(
            f"rate={point['rate_limit_rps']:6.1f} rps: "
            f"shed={point['shed_fraction']:.2f}  "
            f"violation_rate={point['violation_rate']:.3f}"
        )

    # The storm narrative the scoreboard exists to show.
    by_preset = {row["admission"]: row for row in storm["cases"]}
    assert set(by_preset) == {"none", "naive_retries", "survival_kit"}
    assert by_preset["naive_retries"]["amplification"] > 1.0
    assert (
        by_preset["naive_retries"]["slo_violation_seconds"]
        >= by_preset["none"]["slo_violation_seconds"]
    )
    assert verdict["kit_damps_storm"]
    # The shed curve must actually shed somewhere and keep every point
    # scored (violation rate is defined on the admitted survivors).
    curve = shed["verdict"]["tradeoff_curve"]
    assert any(point["shed_fraction"] > 0.0 for point in curve)
    assert all(0.0 <= point["violation_rate"] <= 1.0 for point in curve)

    save_result(
        results_dir,
        "metastable",
        {
            "seed": SEED,
            "retry_storm": storm,
            "shed_vs_violate": shed,
        },
    )
