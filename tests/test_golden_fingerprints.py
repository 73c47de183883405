"""Golden-fingerprint contract: every pinned scenario reproduces its digest.

Each case is one scenario spec at one seed: the six pinned determinism
families, the HPA variant of ``single_aimd``, and the composed controller
stack, each at its pinned seed plus the next seed.  A run's digest is the
sha256 of its full-precision ``_fingerprint`` JSON; the committed digests
live in ``tests/golden/fingerprints.json``.

A mismatch means experiment output changed.  If that change is intended,
rewrite the file with ``PYTHONPATH=src python tests/golden/regenerate.py``
and commit it on its own, with the reason in the commit message.  Tests
never write the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from test_shard_determinism import _fingerprint, pinned_families

from repro.experiments.composed import composed_stack_spec
from repro.experiments.scenario import ScenarioSpec, run_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "fingerprints.json"


def golden_specs() -> Dict[str, ScenarioSpec]:
    """Every golden case by id: ``<family>-seed<N>``."""
    pinned = dict(pinned_families())
    pinned["single_hpa"] = pinned["single_aimd"].with_overrides(controller="kubernetes_hpa")
    pinned["composed_stack"] = composed_stack_spec(duration_s=4.0, seed=1)
    cases = {}
    for family, spec in sorted(pinned.items()):
        for seed in (spec.seed, spec.seed + 1):
            cases[f"{family}-seed{seed}"] = spec.with_overrides(seed=seed)
    return cases


def digest(spec: ScenarioSpec) -> str:
    """sha256 of one run's full-precision fingerprint."""
    return hashlib.sha256(_fingerprint(run_scenario(spec)).encode("utf-8")).hexdigest()


def load_goldens() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


@pytest.mark.parametrize("case", sorted(golden_specs()))
def test_run_matches_golden(case):
    goldens = load_goldens()
    assert case in goldens, f"no golden for {case}; run tests/golden/regenerate.py"
    assert digest(golden_specs()[case]) == goldens[case]
