"""The probed run behind the end-to-end host metrics."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import execute  # noqa: E402
from repro.experiments.harness import ExperimentHarness  # noqa: E402
from repro.experiments.scenario import ScenarioSpec  # noqa: E402


def test_probed_run_simulates_exactly_what_run_does():
    spec = ScenarioSpec(application="hotel_reservation", seed=3, duration_s=3.0, load_rps=20.0)
    expected = ExperimentHarness.from_spec(spec).run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    result, run_s, probe_times = execute._probed_run(ExperimentHarness.from_spec(spec), spec)
    assert execute.fingerprint(result) == execute.fingerprint(expected)
    assert run_s > 0
    assert len(probe_times) == calibrate.SLICES + 1


def test_scale_reads_host_time_at_the_reference_speed():
    # A host twice as slow as the reference: its probe chunks take twice
    # as long, and its times are halved.
    assert calibrate.scale(4.0, 2 * calibrate.REFERENCE_CHUNK_S) == pytest.approx(2.0)
    assert calibrate.scale(4.0, calibrate.REFERENCE_CHUNK_S) == pytest.approx(4.0)
