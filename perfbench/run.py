"""Repository benchmark: one command, three workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every scenario runs in a fresh ``execute.py`` process, one at a time, so
each one pays (and reports) the full set-up and its own peak RSS.  A run
first executes each of the workload's scenarios once (seeds derived from
``--seed``); then, until ``--seconds`` have passed, it re-executes them in
order, at least once.  Host-side metrics are medians over every execution,
with host times scaled to a reference host speed by the probe each
execution interleaves with its run (``calibrate.py``); simulated outcomes
are medians over the first pass, one value per scenario.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced executions of the first scenario and prints the
per-layer table of the median traced execution, plus
``trace_overhead_pct``; spans are written under ``perfbench/out/``.

Checks, each failing the execution it concerns: the execution exits
cleanly, requests are conserved, every metric is finite, and the
simulated-outcome fingerprint (and, traced, every layer count) repeats
exactly on every execution of one scenario seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A run stops starting executions once it would exceed this many seconds.
BUDGET_S = 150.0

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END: Dict[str, str] = {
    "sim_requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "slo_met_pct": "%",
    "p50_latency_ms": "ms",
    "p99_latency_ms": "ms",
    "requested_cpu": "cores",
    "success_pct": "%",
}
#: Simulated outcomes: medians over the first pass, one per scenario.
OUTCOMES = ("slo_met_pct", "p50_latency_ms", "p99_latency_ms", "requested_cpu", "success_pct")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _execute(workload: str, seed: int, mode: str, timeout: float) -> Optional[dict]:
    """One scenario in a fresh process; its report, or None if it failed."""
    command = [sys.executable, str(HERE / "execute.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        OUT.mkdir(exist_ok=True)
        command += ["--spans", str(OUT / f"{workload}-{seed}-spans.npz")]
    env = dict(os.environ)
    # One single-threaded process: keep numpy's BLAS from spawning threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"  {mode} seed {seed}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"  {mode} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    """The executions of one benchmark run and their checks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.started = time.perf_counter()
        self.reports: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self._fingerprints: Dict[int, str] = {}
        self._counts: Dict[int, Dict[str, float]] = {}
        self._longest = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fits(self) -> bool:
        """Whether one more execution ends within the budget."""
        return self.elapsed() + 1.5 * self._longest < BUDGET_S

    def execute(self, seed: int, mode: str) -> Optional[dict]:
        began = time.perf_counter()
        self.attempted += 1
        report = _execute(self.workload, seed, mode, timeout=BUDGET_S - self.elapsed())
        self._longest = max(self._longest, time.perf_counter() - began)
        problems = self._check(seed, report)
        if problems:
            self.failed += 1
            print(f"  {mode} seed {seed}: FAILED: {'; '.join(problems)}")
            return None
        self.reports.append(report)
        print(
            f"  {mode} seed {seed}: run {report['run_s']:.3f} s, "
            f"{report['conservation']['completed']} completed, "
            f"fingerprint {report['fingerprint']}"
        )
        return report

    def _check(self, seed: int, report: Optional[dict]) -> List[str]:
        if report is None:
            return ["execution failed"]
        problems = list(report["conservation"]["problems"])
        if not report["finite"]:
            problems.append("non-finite metric")
        expected = self._fingerprints.setdefault(seed, report["fingerprint"])
        if report["fingerprint"] != expected:
            problems.append(f"fingerprint {report['fingerprint']} != {expected}")
        if "layers" in report:
            import layers

            counts = {name: report["layers"][name] for name in layers.EXACT_COUNTS}
            expected_counts = self._counts.setdefault(seed, counts)
            problems += [
                f"count {name} {counts[name]} != {expected_counts[name]}"
                for name in counts
                if counts[name] != expected_counts[name]
            ]
        return problems


def _end_to_end(run: Run, seeds: List[int], seconds: float) -> Dict[str, float]:
    first_pass = [run.execute(seed, "plain") for seed in seeds]
    index = 0
    while index < 1 or (run.elapsed() < seconds and run.fits()):
        run.execute(seeds[index % len(seeds)], "plain")
        index += 1
    reports = run.reports
    outcomes = [r["outcome"] for r in first_pass if r is not None]
    if not outcomes:
        return {}
    import calibrate

    raw_rate = statistics.median(r["conservation"]["completed"] / r["run_s"] for r in reports)
    raw_setup = statistics.median(r["setup_s"] for r in reports)
    print(f"  unscaled medians: {raw_rate:.1f} req/s, set-up {raw_setup:.4f} s")
    metrics = {
        "sim_requests_per_s": statistics.median(
            r["conservation"]["completed"] / calibrate.scale(r["run_s"], r["probe_chunk_s"])
            for r in reports
        ),
        "setup_s": statistics.median(
            calibrate.scale(r["setup_s"], r["probe_chunk_s"]) for r in reports
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    for name in OUTCOMES:
        metrics[name] = statistics.median(o[name] for o in outcomes)
    for report in first_pass:
        if report is not None:
            o = report["outcome"]
            print(
                f"  seed {report['seed']}: p50 {o['p50_latency_ms']:.2f} ms, "
                f"p99 {o['p99_latency_ms']:.2f} ms over {o['latency_samples']} samples, "
                f"failed {o['failed_pct']:.3f}%"
            )
    return metrics


def _per_layer(run: Run, seed: int, seconds: float) -> Dict[str, float]:
    plain: List[float] = []
    traced: List[dict] = []
    while len(traced) < 2 or (run.elapsed() < seconds and run.fits()):
        for mode in ("plain", "traced"):
            report = run.execute(seed, mode)
            if report is None:
                continue
            if mode == "plain":
                plain.append(report["run_s"])
            else:
                traced.append(report)
        if run.failed:
            break
    if not plain or not traced:
        return {}
    traced.sort(key=lambda r: r["run_s"])
    median_traced = traced[(len(traced) - 1) // 2]
    metrics = dict(median_traced["layers"])
    metrics["trace_overhead_pct"] = 100.0 * (
        statistics.median(r["run_s"] for r in traced) / statistics.median(plain) - 1.0
    )
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, scenario_seeds

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seeds = scenario_seeds(args.workload, args.seed)
    run = Run(args.workload)
    print(f"{args.workload} seed {args.seed}: scenario seeds {seeds}, trace={args.trace}")
    if args.trace:
        import layers

        units = layers.METRICS
        values = _per_layer(run, seeds[0], args.seconds)
    else:
        units = END_TO_END
        values = _end_to_end(run, seeds, args.seconds)
    values = {name: float(values.get(name, math.nan)) for name in units}
    correct = run.failed == 0 and all(math.isfinite(v) for v in values.values())
    for name, value in values.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    # A failed run still prints valid JSON; its missing values read 0.
    values = {name: value if math.isfinite(value) else 0.0 for name, value in values.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
