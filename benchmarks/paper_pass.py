#!/usr/bin/env python
"""Paper-pass wall time and peak RSS of the experiment driver, before and
after.

Usage, from the repository root::

    git archive <base> | tar -x -C /tmp/base      # the tree to compare with
    python benchmarks/paper_pass.py --before /tmp/base
        [--scale paper] [--pairs 3] [--workers 1 2]
        [--out benchmarks/results/BENCH_paper_pass.json]

Each pair runs ``repro sweep <scale> --workers N --save DIR --store DB``
(the same command as ``python -m repro.experiments``; the probe imports
it from ``repro.sweep.__main__``, which every tree since the sweep runner
has) once on the ``--before`` tree and once on this tree, for every worker
count, in alternating order (pair 0 runs the before tree first, pair 1
this tree first, ...), one process at a time.  A run records its wall
time (interpreter start to exit, ``main()`` text discarded), the sweep
parent's peak RSS and the largest worker's peak RSS (``RUSAGE_CHILDREN``:
the workers are the parent's only children).

It also checks what the sweep promises: every run, on either tree and
for any worker count, saves the same ``EXP_*.json`` files and stores the
same rows, minus the fields that differ from one invocation to the next:
``seq``, ``run_id``, ``created_at`` and the two host timings, the
``wall_time`` column and the ``wall_s`` metric in ``metrics_json``.  The
exit status is 1 if they differ.

The JSON follows the ``BENCH_*.json`` layout (one entry per tree and
worker count, wall-time stats over the pairs, the raw runs in
``extra_info``), so ``repro store ingest`` takes it like any other
baseline.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: runs one sweep in a fresh interpreter and prints its peak RSS figures
_PROBE = """
import contextlib, json, os, resource, sys
tree, argv = sys.argv[1], sys.argv[2:]
sys.path.insert(0, os.path.join(tree, "src"))
from repro.sweep.__main__ import main
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    rc = main(argv)
kib = 1024.0
print(json.dumps({
    "rc": rc,
    "parent_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
    "worker_rss_mb":
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
}))
"""


def _sweep(tree: Path, scale: str, workers: int, out: Path) -> Dict[str, Any]:
    out.mkdir(parents=True)
    save, db = out / "save", out / "store.sqlite"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tree), scale,
         "--workers", str(workers), "--save", str(save), "--store", str(db)],
        capture_output=True, text=True, env=env, cwd=str(tree), check=False,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"sweep failed in {tree}:\n{proc.stderr}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    run["wall_s"] = wall
    run["workers"] = workers
    return run


#: columns that differ between any two invocations
_VOLATILE = ("seq", "run_id", "created_at", "wall_time")


def _store_rows(db: Path) -> List[Any]:
    with sqlite3.connect(str(db)) as conn:
        cols = [r[1] for r in conn.execute("PRAGMA table_info(runs)")]
        keep = [c for c in cols if c not in _VOLATILE]
        rows = conn.execute(f"SELECT {', '.join(keep)} FROM runs").fetchall()
    metrics = keep.index("metrics_json")
    out = []
    for row in rows:
        values = list(row)
        timed = json.loads(values[metrics])
        timed.pop("wall_s", None)
        values[metrics] = json.dumps(timed, sort_keys=True)
        out.append(tuple(values))
    return sorted(out)


def _same_files(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(str(a), str(b))
    return not (cmp.left_only or cmp.right_only or cmp.diff_files
                or cmp.funny_files) and bool(cmp.same_files)


def _stats(walls: List[float]) -> Dict[str, float]:
    return {
        "min": min(walls), "max": max(walls),
        "mean": statistics.fmean(walls), "median": statistics.median(walls),
        "stddev": statistics.stdev(walls) if len(walls) > 1 else 0.0,
        "rounds": len(walls),
    }


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument(
        "--out", type=Path,
        default=ROOT / "benchmarks" / "results" / "BENCH_paper_pass.json",
    )
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": ROOT}
    runs: Dict[str, List[Dict[str, Any]]] = {}
    identical = True
    # every run must save and store exactly what the first run did
    reference: "Path | None" = None
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else (
                "after", "before")
            for workers in args.workers:
                for side in order:
                    out = Path(tmp) / f"{side}-w{workers}-p{pair}"
                    run = _sweep(trees[side], args.scale, workers, out)
                    run["pair"] = pair
                    runs.setdefault(f"{side}_w{workers}", []).append(run)
                    print(f"pair {pair} {side:6s} workers={workers} "
                          f"wall {run['wall_s']:7.2f} s  parent "
                          f"{run['parent_rss_mb']:6.1f} MB  worker "
                          f"{run['worker_rss_mb']:6.1f} MB", flush=True)
                    if reference is None:
                        reference = out
                    else:
                        identical &= _same_files(reference / "save",
                                                 out / "save")
                        identical &= (
                            _store_rows(reference / "store.sqlite")
                            == _store_rows(out / "store.sqlite")
                        )
    entries = []
    for key, rs in sorted(runs.items()):
        side, workers = key.split("_w")
        entries.append({
            "benchmark": f"paper_pass_{key}",
            "fullname": f"benchmarks/paper_pass.py::{key}",
            "stats": _stats([r["wall_s"] for r in rs]),
            "extra_info": {
                "tree": side, "workers": int(workers), "scale": args.scale,
                "runs": rs,
                "parent_rss_mb_max": max(r["parent_rss_mb"] for r in rs),
                "worker_rss_mb_max": max(r["worker_rss_mb"] for r in rs),
                "outputs_identical": identical,
                "host": {"cpus": os.cpu_count(),
                         "python": platform.python_version()},
            },
        })
    args.out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; saved files and store rows identical across "
          f"trees and worker counts: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
