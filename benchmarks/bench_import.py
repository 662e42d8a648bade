"""Start-up cost: import time and peak RSS of a fresh interpreter.

Every CLI command, sweep worker and end-to-end benchmark worker first
runs ``import repro.experiments, repro.store``.  The benchmark times
that import in fresh interpreters and reads their ``ru_maxrss``:

- ``after``: the import as the package now does it, with NumPy as its
  only numeric dependency;
- ``before``: the same import preceded by ``import scipy.stats,
  scipy.signal``, the two modules the ensemble statistics imported when
  they called scipy (recorded only when scipy is installed).

Each side runs ``ROUNDS`` times, alternating, and reports medians.  The
``after`` interpreter must not load scipy, and its peak RSS must be
below the ``before`` one's; the import times are data.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 5

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, resource, sys, time
t0 = time.perf_counter()
{preload}import repro.experiments, repro.store
import_s = time.perf_counter() - t0
print(json.dumps({{
    "import_s": import_s,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_loaded": any(m.split(".")[0] == "scipy" for m in sys.modules),
}}))
"""


def _fresh_import(preload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(preload=preload)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _median(samples, key):
    return round(statistics.median(s[key] for s in samples), 4)


def test_import_cost(run_once, benchmark):
    with_scipy = importlib.util.find_spec("scipy") is not None
    sides = {"after": ""}
    if with_scipy:
        sides["before"] = "import scipy.stats, scipy.signal\n"

    def scenario():
        samples = {side: [] for side in sides}
        for _ in range(ROUNDS):
            for side, preload in sides.items():
                samples[side].append(_fresh_import(preload))
        return samples

    samples = run_once(scenario)
    benchmark.extra_info["rounds"] = ROUNDS
    for side, runs in samples.items():
        benchmark.extra_info[f"{side}_import_s"] = _median(runs, "import_s")
        benchmark.extra_info[f"{side}_maxrss_mb"] = _median(runs, "maxrss_mb")
    assert not any(s["scipy_loaded"] for s in samples["after"])
    if with_scipy:
        assert (benchmark.extra_info["after_maxrss_mb"]
                < benchmark.extra_info["before_maxrss_mb"])
