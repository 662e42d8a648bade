#!/usr/bin/env python3
"""Regenerate ``expected.json``: each workload's seeds and reference digests.

Run from the repository root (a few minutes)::

    python3 e2ebench/expected.py

For each workload it runs one worker at the experiments' own default
seeds and one per candidate seed 0, 1, 2, ... until ``SEEDS`` seeds
pass.  A seed passes when every verdict of every experiment in the
workload holds under it: the verdicts are statistical shape checks, and
on a few seeds one of them flips (fig5's ``progressive_deterioration``
at small scale, for one).  ``run.py --seed S`` uses the passing seed
``S mod SEEDS``, so every measured input is one on which no check is
expected to fail.

The digests recorded are the references ``run.py`` checks outputs
against.  Regenerate only when a change is meant to alter simulated
output; a change that only makes the simulator faster keeps them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from run import HERE, load_json, run_worker, worker_env

SEEDS = 16


def digests_if_all_hold(
    workload: Dict[str, Any], seed: Optional[int], store: Path,
    env: Dict[str, str],
) -> Optional[Dict[str, str]]:
    sample = run_worker(workload, seed, False, store, env)
    if sample is None:
        raise SystemExit(f"worker failed at seed {seed}")
    failed = [f"{exp}.{v}" for exp, verdicts in sample["verdicts"].items()
              for v, held in verdicts.items() if not held]
    if failed:
        print(f"  seed {seed}: skipped, {', '.join(failed)} false")
        return None
    return sample["digests"]


def main() -> int:
    spec = load_json("spec.json")["workloads"]
    expected: Dict[str, Any] = {}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        env = worker_env(Path(tmp))
        store = Path(tmp) / "store.sqlite"
        for name, workload in spec.items():
            print(f"{name}:", flush=True)
            default = digests_if_all_hold(workload, None, store, env)
            if default is None:
                raise SystemExit(f"{name}: a verdict fails at default seeds")
            digests = {"default": default}
            seeds: List[int] = []
            candidate = 0
            while len(seeds) < SEEDS:
                if candidate >= 4 * SEEDS:
                    raise SystemExit(f"{name}: too few passing seeds")
                found = digests_if_all_hold(workload, candidate, store, env)
                if found is not None:
                    seeds.append(candidate)
                    digests[str(candidate)] = found
                candidate += 1
            expected[name] = {"seeds": seeds, "digests": digests}
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
