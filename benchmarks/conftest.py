"""Shared configuration for the benchmark harnesses.

Every benchmark regenerates one table or figure from the paper's
evaluation at a reduced (simulation-friendly) scale.  The benchmarks print
the rows/series the paper reports so the shape can be compared; they use
pytest-benchmark's ``pedantic`` mode with a single round because each
"iteration" is a full simulated experiment.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

#: Where benchmark result summaries are written (one JSON per experiment).
RESULTS_DIR = Path(__file__).parent / "results"


def pytest_configure(config) -> None:
    # The CI smoke job selects benchmarks by this marker (``-m smoke``)
    # instead of a -k name expression that silently drifts as files are
    # added or renamed.  Tag a benchmark module with
    # ``pytestmark = [pytest.mark.smoke]`` to include it in the smoke run.
    config.addinivalue_line(
        "markers", "smoke: benchmark is part of the CI smoke selection"
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def _finite(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def save_result(results_dir: Path, name: str, payload: dict) -> None:
    """Persist one experiment's summary next to the benchmark output.

    The file is strict JSON: an undefined figure (e.g. a speedup over a
    baseline that never mitigated) is written as ``null``.
    """
    path = results_dir / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_finite(payload), handle, indent=2, default=str, allow_nan=False)
