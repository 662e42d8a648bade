#!/usr/bin/env python3
"""End-to-end benchmark: regenerate paper figures and time them.

Run from the repository root::

    python3 e2ebench/run.py [--workload W]... [--seed S] [--repeat N]
                            [--seconds T] [--trace [0|1]] [--json OUT]

Each workload (``spec.json``) is a list of experiments at one scale.
One repetition runs in a fresh ``worker.py`` process: for every
experiment it calls ``run()``, renders ``main()`` and puts the result
into a temporary run store, exactly what ``python -m repro.experiments
--store DB`` does.  Workers run one at a time, round-robin across the
workloads, with numeric libraries held to one thread.  The loop is
closed and batch: there is no arrival schedule.

All times are host seconds; simulated seconds are outputs, checked
through a digest and never scored.  Repetitions continue until at least
``--repeat`` rounds ran and ``--seconds`` have passed.

End-to-end metrics (medians over repetitions, untraced):

- ``wall_s``: first ``run()`` to last store ``put``, minus the
  benchmark's own digest work;
- ``wall_rel``: ``wall_s`` over the median of a host-speed probe timed
  before every repetition (:func:`calibrate`);
- ``setup_s``: worker start until ``repro.experiments`` and
  ``repro.store`` are imported and the store is open;
- ``peak_rss_mb``: the worker's peak resident set.

Checks: every experiment verdict must hold, and every experiment's
output digest must equal the reference in ``expected.json`` (when it
has one for the seed) and the digest of every other repetition.
``fail_ratio`` = failed / attempted checks; any failure exits 1.

``--trace`` adds one traced repetition per workload (``spans.py``) and
reports the per-layer metrics.  ``--seed S`` picks the experiments'
seed from the workload's seed list in ``expected.json``; without it
each experiment uses its own default seed, the one the goldens use.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or with ``--trace`` the
per-layer ones), keyed ``workload/metric`` when several workloads ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
#: a worker that has not finished by then is killed and counted failed
WORKER_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "wall_rel": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}

#: Layers some workloads never enter (readahead, placement, telemetry,
#: health) report calls rather than self time, whose exact 0.0 would be
#: indistinguishable from a timer that is not running; their self times
#: are in the full layer table and the --json output.
PER_LAYER = {
    "stage.build_s": "s",
    "stage.dispatch_s": "s",
    "stage.analysis_s": "s",
    "stage.report_s": "s",
    "stage.store_s": "s",
    "apps.runs": "count",
    "apps.unique_ratio": "ratio",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.dispatch_residual_s": "s",
    "sim.rng.calls": "count",
    "sim.rng.self_s": "s",
    "iosys.client.calls": "count",
    "iosys.client.self_s": "s",
    "iosys.striping.calls": "count",
    "iosys.striping.self_s": "s",
    "iosys.striping.extents_built": "count",
    "iosys.ost.calls": "count",
    "iosys.ost.self_s": "s",
    "iosys.locks.self_s": "s",
    "iosys.cache.self_s": "s",
    "iosys.readahead.calls": "count",
    "iosys.mds.calls": "count",
    "iosys.placement.calls": "count",
    "iosys.telemetry.calls": "count",
    "iosys.health.calls": "count",
    "iosys.retries": "count",
    "iosys.failovers": "count",
    "iosys.reconstructions": "count",
    "ipm.events": "count",
    "ipm.trace_select.calls": "count",
    "ipm.trace_select.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_json(name: str) -> Dict[str, Any]:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def worker_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work)
    return env


def calibrate() -> float:
    """Host seconds for a fresh interpreter to import numpy and scipy.stats.

    No repository code runs, so no change to it moves this.  On a shared
    2-vCPU VM, host speed drifted by up to 18% between back-to-back
    passes; set-up time, which is mostly these imports, followed that
    drift to within 4%, so ``wall_rel`` = ``wall_s`` / the run's median
    of this stays comparable across it.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy, scipy.stats"],
                   check=True, timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - t0


def run_worker(
    workload: Dict[str, Any], seed: Optional[int], traced: bool,
    store: Path, env: Dict[str, str],
) -> Optional[Dict[str, Any]]:
    """One repetition; None when the worker failed.  An untraced one is
    preceded by :func:`calibrate`."""
    calib_s = None if traced else calibrate()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--scale", workload["scale"], "--trace", str(int(traced)),
           "--store", str(store)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    cmd += workload["experiments"]
    t0 = time.perf_counter()
    # unbuffered, so reading the "ready" line leaves the rest for
    # communicate()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          bufsize=0) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = b""
            print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
            store.unlink(missing_ok=True)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or ready.strip() != b"ready" or not lines:
        print(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    result["calib_s"] = calib_s
    result["traced"] = traced
    return result


def summary(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def check(
    workload: Dict[str, Any], reference: Dict[str, str],
    samples: List[Optional[Dict[str, Any]]],
) -> Tuple[int, List[str]]:
    """(attempted, failures) over every verdict and output digest."""
    attempted = 0
    failures: List[str] = []
    first = next((s["digests"] for s in samples if s is not None), {})
    for i, sample in enumerate(samples):
        if sample is None:
            attempted += 1
            failures.append(f"repetition {i}: worker failed")
            continue
        for exp in workload["experiments"]:
            for verdict, held in sample["verdicts"].get(exp, {}).items():
                attempted += 1
                if not held:
                    failures.append(f"repetition {i}: {exp}.{verdict} false")
            attempted += 1
            digest = sample["digests"].get(exp)
            want = reference.get(exp, first.get(exp))
            if digest is None or digest != want:
                failures.append(f"repetition {i}: {exp} digest {digest} "
                                f"!= {want}")
    return attempted, failures


def end_to_end(samples: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    plain = [s for s in samples if not s["traced"]]
    wall = summary([s["wall_s"] for s in plain])
    calib = statistics.median(s["calib_s"] for s in plain)
    return {
        "wall_s": wall,
        # wall_s in units of the run's median probe
        "wall_rel": {k: v if k == "n" else v / calib for k, v in wall.items()},
        "setup_s": summary([s["setup_s"] for s in samples]),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in plain]),
    }


def per_layer(
    traced: Dict[str, Any], samples: List[Dict[str, Any]]
) -> Dict[str, float]:
    layers = traced["layers"]
    plain = [s for s in samples if not s["traced"]]
    wall = statistics.median(s["wall_s"] for s in plain)
    dispatch = statistics.median(s["dispatch_s"] for s in plain)
    build_s = layers["stage.build"]["total_s"]
    dispatch_s = layers["stage.dispatch"]["total_s"]
    derived = {
        "stage.build_s": build_s,
        "stage.dispatch_s": dispatch_s,
        "stage.analysis_s": traced["run_s"] - build_s - dispatch_s,
        "stage.report_s": traced["report_s"],
        "stage.store_s": traced["store_s"],
        "apps.runs": traced["runs"],
        "apps.unique_ratio": traced["unique_runs"] / max(traced["runs"], 1),
        "sim.events": traced["sim_events"],
        # over untraced dispatch time: tracing inflates the traced one
        "sim.events_per_s": traced["sim_events"] / dispatch,
        "sim.dispatch_residual_s": layers["stage.dispatch"]["self_s"],
        "iosys.striping.extents_built": layers["iosys.striping"]["items"],
        "iosys.retries": traced["retries"],
        "iosys.failovers": traced["failovers"],
        "iosys.reconstructions": traced["reconstructions"],
        "ipm.events": traced["trace_events"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / wall,
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        else:  # <layer>.calls or <layer>.self_s straight from the spans
            layer, _, stat = name.rpartition(".")
            out[name] = layers[layer][stat]
    return out


def e2e_table(rows: Dict[str, Dict[str, float]]) -> str:
    lines = ["end to end (untraced)",
             f"  {'metric':12} {'unit':5} {'median':>10} {'q1':>10} "
             f"{'q3':>10} {'min':>10} {'max':>10} {'n':>3}"]
    for name, s in rows.items():
        lines.append(
            f"  {name:12} {END_TO_END[name]:5} {s['value']:10.4f} "
            f"{s['q1']:10.4f} {s['q3']:10.4f} {s['min']:10.4f} "
            f"{s['max']:10.4f} {s['n']:3d}"
        )
    return "\n".join(lines)


def layer_table(rows: Dict[str, float], layers: Dict[str, Dict]) -> str:
    lines = ["per layer (one traced repetition)"]
    for name, value in rows.items():
        lines.append(f"  {name:30} {PER_LAYER[name]:6} {value:14.6g}")
    lines.append(f"  {'every wrapped layer':22} {'calls':>10} {'self_s':>10} "
                 f"{'total_s':>10}")
    for name, layer in layers.items():
        lines.append(f"  {name:22} {layer['calls']:10d} "
                     f"{layer['self_s']:10.4f} {layer['total_s']:10.4f}")
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=3,
                        help="minimum rounds (default 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until this much time passed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write every sample and statistic to OUT")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def measure(
    spec: Dict[str, Any], seeds: Dict[str, Optional[int]], args: argparse.Namespace,
) -> Dict[str, List[Optional[Dict[str, Any]]]]:
    """Round-robin repetitions until ``--repeat`` rounds ran and
    ``--seconds`` passed; with ``--trace`` the first round adds one
    traced repetition per workload."""
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    samples: Dict[str, List[Optional[Dict[str, Any]]]] = {n: [] for n in seeds}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        env = worker_env(Path(tmp))
        start = time.perf_counter()
        rounds = 0
        while rounds < args.repeat or time.perf_counter() - start < args.seconds:
            for name in seeds:
                passes = [False, True] if args.trace and rounds == 0 else [False]
                for traced in passes:
                    samples[name].append(run_worker(
                        spec[name], seeds[name], traced,
                        Path(tmp) / f"{name}-{rounds}-{int(traced)}.sqlite", env,
                    ))
            rounds += 1
    return samples


def report(
    name: str, workload: Dict[str, Any], seed: Optional[int],
    reference: Dict[str, str], samples: List[Optional[Dict[str, Any]]],
    trace: bool,
) -> Dict[str, Any]:
    """Print one workload's tables; return its checks, statistics and
    (under ``metrics``) the values the result line carries."""
    attempted, failures = check(workload, reference, samples)
    entry: Dict[str, Any] = {
        "experiments": workload["experiments"], "scale": workload["scale"],
        "seed": seed, "attempted": attempted, "failures": failures,
        "samples": samples,
    }
    print(f"== {name}: {' '.join(workload['experiments'])} at "
          f"{workload['scale']} scale, seed "
          f"{'default' if seed is None else seed} ==")
    done = [s for s in samples if s is not None]
    traced = next((s for s in done if s["traced"]), None)
    if any(not s["traced"] for s in done):
        entry["end_to_end"] = end_to_end(done)
        print(e2e_table(entry["end_to_end"]))
        if not trace:
            entry["metrics"] = {k: {"value": v["value"], "unit": END_TO_END[k]}
                                for k, v in entry["end_to_end"].items()}
        if traced is not None:
            entry["per_layer"] = per_layer(traced, done)
            print(layer_table(entry["per_layer"], traced["layers"]))
            entry["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]}
                                for k, v in entry["per_layer"].items()}
    print(f"  fail_ratio: {len(failures)}/{attempted} checks failed")
    for failure in failures:
        print(f"    {failure}")
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    if not (Path.cwd() / "src" / "repro").is_dir():
        print("src/repro not found: run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_json("spec.json")["workloads"]
    expected = load_json("expected.json")
    args = parse_args(argv, list(spec))

    seeds: Dict[str, Optional[int]] = {}
    for name in args.workload or list(spec):
        pool = expected.get(name, {}).get("seeds", [])
        if args.seed is not None and not pool:
            print(f"{name}: no seed list in expected.json", file=sys.stderr)
            return 2
        seeds[name] = None if args.seed is None else pool[args.seed % len(pool)]

    samples = measure(spec, seeds, args)
    reports = {
        name: report(
            name, spec[name], seed,
            expected.get(name, {}).get("digests", {}).get(
                "default" if seed is None else str(seed), {}),
            samples[name], bool(args.trace),
        )
        for name, seed in seeds.items()
    }
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(len(r["failures"]) for r in reports.values())
    metrics = {name: r.pop("metrics") for name, r in reports.items()
               if "metrics" in r}
    correct = failed == 0 and len(metrics) == len(reports)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"host": {"python": platform.python_version(),
                                "machine": platform.machine(),
                                "cpus": os.cpu_count()},
                       "argv": sys.argv[1:] if argv is None else argv,
                       "workloads": reports},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(reports) == 1:
        flat = next(iter(metrics.values()), {})
    else:
        flat = {f"{w}/{k}": v for w, m in metrics.items() for k, v in m.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    # unwind on SIGTERM too, so the running worker is killed and the
    # temporary stores are removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    raise SystemExit(main())
