"""Rewrite ``tests/golden/fingerprints.json`` from the current tree.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regenerate.py

Runs every case of :func:`test_golden_fingerprints.golden_specs` and
writes its digest.  Only run this when a change is meant to alter
experiment output, and commit the new file on its own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS_DIR), str(TESTS_DIR.parent / "src")]

from test_golden_fingerprints import GOLDEN_PATH, digest, golden_specs  # noqa: E402


def main() -> int:
    digests = {}
    for case, spec in sorted(golden_specs().items()):
        digests[case] = digest(spec)
        print(f"{case}  {digests[case]}", flush=True)
    payload = {
        "fingerprint": "sha256 of _fingerprint(run_scenario(spec)) from tests/test_shard_determinism.py",
        "regenerate": "PYTHONPATH=src python tests/golden/regenerate.py",
        "digests": digests,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
