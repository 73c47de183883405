"""Committed benchmark scoreboards are strict JSON.

``json`` accepts ``NaN``/``Infinity``/``-Infinity`` by default, but they
are not JSON and most other parsers reject them.  An undefined figure is
written as ``null`` instead (see ``save_result`` in
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def _reject(constant):
    raise ValueError(f"non-finite constant {constant!r} is not strict JSON")


@pytest.mark.parametrize("path", sorted(RESULTS_DIR.glob("*.json")), ids=lambda path: path.name)
def test_scoreboard_is_strict_json(path):
    with open(path, encoding="utf-8") as handle:
        json.load(handle, parse_constant=_reject)
