"""One measured repetition of a workload, in a fresh process.

Started by ``run.py`` from the repository root with ``src`` on
``PYTHONPATH``::

    python e2ebench/worker.py --scale small --store S.sqlite [--seed N]
                              [--trace 0|1] EXPERIMENT...

It regenerates the figures the way a user does: for each experiment it
calls ``run(scale, seed)``, renders ``main(scale, result=...)`` and puts
the result into the run store at ``--store``.  Set-up (interpreter
start, importing ``repro.experiments`` and ``repro.store``, opening the
store) ends when the worker prints ``ready``; the parent times it.  The
last line of output is one JSON object with the measurement.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from typing import Any, Dict, List, Optional

from spans import Outputs, Spans


def measure(
    experiments: List[str], scale: str, seed: Optional[int], store: Any,
    traced: bool,
) -> Dict[str, Any]:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import result_to_dict
    from repro.store import record_from_experiment_dict
    from repro.store.clock import utc_stamp

    spans = Spans().install() if traced else None
    outputs = Outputs().install()
    clock = time.perf_counter
    run_s = report_s = store_s = 0.0
    verdicts: Dict[str, Dict[str, bool]] = {}
    start = clock()
    for name in experiments:
        module = ALL_EXPERIMENTS[name]
        outputs.experiment = name
        t0 = clock()
        result = module.run(scale) if seed is None else module.run(scale, seed)
        t1 = clock()
        module.main(scale, result=result)
        t2 = clock()
        store.put(record_from_experiment_dict(
            result_to_dict(result), wall_time=t1 - t0, created_at=utc_stamp(),
        ))
        t3 = clock()
        run_s += t1 - t0
        report_s += t2 - t1
        store_s += t3 - t2
        verdicts[name] = {str(k): bool(v) for k, v in result.verdicts.items()}
    wall_s = clock() - start - outputs.check_s

    out: Dict[str, Any] = {
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "verdicts": verdicts,
        "digests": outputs.digests(),
        "runs": len(outputs.fingerprints),
        "unique_runs": len(set(outputs.fingerprints)),
        "dispatch_s": outputs.dispatch_s,
        "sim_events": outputs.sim_events,
        "trace_events": outputs.trace_events,
        "retries": outputs.retries,
        "failovers": outputs.failovers,
        "reconstructions": outputs.reconstructions,
        "run_s": run_s - outputs.check_s,
        "report_s": report_s,
        "store_s": store_s,
    }
    if spans is not None:
        out["layers"] = {
            name: {"calls": layer.calls, "total_s": layer.total_s,
                   "self_s": layer.self_s, "items": layer.items}
            for name, layer in spans.layers.items()
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="+")
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="default: each experiment's own seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)

    import repro.experiments  # noqa: F401  (set-up cost, timed by the parent)
    from repro.store import RunStore

    with RunStore(args.store) as store:
        print("ready", flush=True)
        result = measure(args.experiments, args.scale, args.seed, store,
                         bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
