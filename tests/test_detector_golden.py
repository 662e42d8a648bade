"""Detector golden: every fault detector's output over the fixed-seed
fault, diagnosis, replication, erasure and interference scenarios,
canonicalised with ``float.hex`` and hashed per scenario.

A mismatch means a detector's verdict moved.  If that is intended, dump
the full output before and after the change to see what moved::

    PYTHONPATH=src python tests/detector_golden.py > after.json

and refresh the digests with ``--write``.
"""

from __future__ import annotations

import json

from tests.detector_golden import GOLDEN, scenario_digests, scenario_golden


def test_detector_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())["sha256"]
    got = scenario_digests(scenario_golden())
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"detector output changed in {moved}"
