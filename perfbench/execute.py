"""Run one scenario of one workload in a fresh process; print one JSON line.

Usage (normally started by ``run.py``, one process at a time)::

    python3 perfbench/execute.py --workload NAME --seed N --mode plain|traced

The scenario goes through the public experiment API only:
``ScenarioSpec`` -> ``ExperimentHarness.from_spec`` -> ``run`` (or its
documented equivalent ``begin_run`` -> ``advance_to`` -> ``finish``) with
the spec's own ``duration_s``, ``sample_period_s`` and ``warmup_s``.

``plain`` times the unmodified program: set-up (importing ``repro`` plus
``from_spec``), the run, and the process's peak RSS.  It advances the run
in steps with a host-speed probe between them (``calibrate.py``) and
reports the probe's mean chunk times beside the host times.  ``traced``
installs the span tracer first, calls ``run()`` in one go and adds the
per-layer table; its spans are written to ``--spans`` when the run ends.

After the run every mode checks request conservation: controllers are
stopped, the engine drains in-flight requests (no new arrivals), and every
request submitted during the run must have settled exactly once.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402

#: Simulated seconds the post-run drain may take to settle in-flight work.
DRAIN_LIMIT_S = 120.0


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--spans", default=None, help="traced mode: .npz path for the spans")
    return parser.parse_args(argv)


class _Outcomes:
    """Final outcome per request, fed by a tenant's completion hook.

    Only used for tenants without an admission gate (their traces are
    logical requests).  A trace can finish twice (dropped downstream
    after its entry span completed); dropped is the final word.
    """

    def __init__(self) -> None:
        self.dropped = {}

    def __call__(self, trace) -> None:
        self.dropped[trace.request_id] = self.dropped.get(trace.request_id, False) or trace.dropped

    def counts(self):
        failed = sum(1 for dropped in self.dropped.values() if dropped)
        return len(self.dropped) - failed, failed


def _request_counts(harness, outcomes):
    """(submitted, completed, failed) logical requests so far, all tenants."""
    submitted = completed = failed = 0
    for tenant, hook in zip(harness.tenants, outcomes):
        submitted += tenant.workload.generated_requests
        gate = tenant.runtime.admission
        if gate is None:
            ok, dropped = hook.counts()
            completed += ok
            failed += dropped
        else:
            stats = gate.stats
            completed += int(stats["succeeded"])
            failed += int(stats["shed"] + stats["failed"])
    return submitted, completed, failed


def _conservation(harness, outcomes, at_end):
    """Check submitted = completed + failed + in flight, by draining.

    ``at_end`` holds the counts when the run ended; the requests still in
    flight then must all settle during the drain, and nothing may settle
    twice or appear from nowhere.
    """
    submitted, completed, failed = at_end
    in_flight = submitted - completed - failed
    problems = []
    if in_flight < 0:
        problems.append(f"more settled ({completed + failed}) than submitted ({submitted})")
    for tenant, hook in zip(harness.tenants, outcomes):
        gate = tenant.runtime.admission
        if gate is not None:
            snap = gate.snapshot()
            accounted = snap["shed"] + snap["succeeded"] + snap["failed"] + snap["in_flight"]
            if snap["submitted"] != tenant.workload.generated_requests:
                problems.append("gate saw a different request count than the workload sent")
            if accounted != snap["submitted"]:
                problems.append("gate counts do not add up")
    for tenant in harness.tenants:
        if tenant.controller is not None:
            tenant.controller.stop()
    engine = harness.engine
    limit = engine.now + DRAIN_LIMIT_S
    while engine.now < limit:
        submitted_now, completed_now, failed_now = _request_counts(harness, outcomes)
        if completed_now + failed_now >= submitted_now:
            break
        engine.run_until(min(engine.now + 1.0, limit))
    submitted_now, completed_now, failed_now = _request_counts(harness, outcomes)
    if submitted_now != submitted:
        problems.append("requests were submitted after the run ended")
    if completed_now + failed_now != submitted:
        problems.append(
            f"{submitted - completed_now - failed_now} requests never settled "
            f"after a {DRAIN_LIMIT_S:g} s drain"
        )
    return {
        "submitted": submitted,
        "completed": completed,
        "failed": failed,
        "in_flight": in_flight,
        "settled_in_drain": completed_now + failed_now - completed - failed,
        "ok": not problems,
        "problems": problems,
    }


def _probed_run(harness, spec):
    """``harness.run(...)`` with the host-speed probe interleaved.

    ``run()`` is ``begin_run`` + ``advance_to(end_time)`` + ``finish``, and
    advancing in steps executes exactly the same events (the fingerprint
    check confirms it against traced executions, which call ``run()``).
    The run advances in ``calibrate.SLICES`` equal steps of simulated time
    with one probe chunk before the first and after each; only the steps,
    ``begin_run`` and ``finish`` count towards the run's host time.
    Returns ``(result, run_s, probe chunk times)``.
    """
    probe_times = [calibrate.chunk_s()]
    began = time.perf_counter()
    session = harness.begin_run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    run_s = time.perf_counter() - began
    start, end = session.now, session.end_time
    try:
        for step in range(1, calibrate.SLICES + 1):
            began = time.perf_counter()
            session.advance_to(start + (end - start) * step / calibrate.SLICES)
            run_s += time.perf_counter() - began
            probe_times.append(calibrate.chunk_s())
    except BaseException:
        session.abort()
        raise
    began = time.perf_counter()
    result = session.finish()
    run_s += time.perf_counter() - began
    return result, run_s, probe_times


def fingerprint(result) -> str:
    """Hash of every simulated statistic the run reports."""
    payload = json.dumps(
        {
            "summary": result.summary(),
            "per_tenant": result.per_tenant_summary(),
            "admission": result.admission,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _outcome_metrics(result, counts):
    slo = result.slo
    accounted = slo.completed + slo.dropped
    met = slo.completed - slo.violations
    settled = counts["completed"] + counts["failed"]
    return {
        "slo_met_pct": 100.0 * met / accounted if accounted else 0.0,
        "p50_latency_ms": result.latency.median,
        "p99_latency_ms": result.latency.p99,
        "latency_samples": len(slo.latencies_ms),
        "requested_cpu": result.mean_requested_cpu,
        "success_pct": 100.0 * counts["completed"] / settled if settled else 0.0,
        "failed_pct": 100.0 * counts["failed"] / counts["submitted"],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    traced_start = time.perf_counter()

    from repro.experiments.harness import ExperimentHarness

    spec = WORKLOADS[args.workload].build(args.seed)
    harness = ExperimentHarness.from_spec(spec)
    setup_s = time.perf_counter() - _START

    outcomes = []
    for tenant in harness.tenants:
        hook = _Outcomes()
        if tenant.runtime.admission is None:
            tenant.coordinator.add_completion_hook(hook)
        outcomes.append(hook)

    if tracer is None:
        result, run_s, probe_times = _probed_run(harness, spec)
    else:
        run_start = time.perf_counter()
        result = harness.run(
            duration_s=spec.duration_s,
            sample_period_s=spec.sample_period_s,
            warmup_s=spec.warmup_s,
        )
        run_s = time.perf_counter() - run_start
    run_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    events = harness.engine.processed_events

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "run_s": run_s,
        "events": events,
        "fingerprint": fingerprint(result),
    }
    if tracer is not None:
        tracer.uninstall()
        import layers

        report["layers"] = layers.layer_table(
            tracer, harness, wall_s=run_end - traced_start, events=events
        )
        if args.spans:
            tracer.save(args.spans)
    else:
        report["setup_s"] = setup_s
        report["peak_rss_mb"] = peak_rss_mb
        report["probe_chunk_s"] = statistics.fmean(probe_times)

    counts = _conservation(harness, outcomes, _request_counts(harness, outcomes))
    report["conservation"] = counts
    report["outcome"] = _outcome_metrics(result, counts)
    numbers = [report["run_s"], *report["outcome"].values(), *report.get("layers", {}).values()]
    report["finite"] = all(math.isfinite(float(v)) for v in numbers)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
