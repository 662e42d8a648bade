"""Run the paper's fixed-seed experiments, their simulations spread over
worker processes.

Usage::

    python -m repro.experiments [paper|small|tiny] [fig1 fig2 ...]
                                [--workers N] [--save DIR] [--store DB]

``python -m repro.sweep``, ``repro experiments`` and ``repro sweep``
are the same command.  Selectors are a scale and/or experiment names
(all experiments when none given).  Workers pull single simulations,
longest first; the parent reduces each experiment and prints its
``main()`` text and an ``ok``/``FAIL`` status line in task order.
``--save DIR`` writes each result to ``DIR/EXP_<experiment>_<scale>.json``
and ``--store DB`` persists it as a run-store record whose ``wall_time``
is the host time its simulations and reduce took.  The ``main()``
text and the saved files are byte-identical for any worker count.  The
exit status is non-zero if any experiment failed -- a crashed worker is
a recorded failure, not a hung sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import SweepError, SweepRunner, experiment_tasks


def build_parser() -> argparse.ArgumentParser:
    from ..experiments import ALL_EXPERIMENTS
    from ..experiments.runner import SCALES

    parser = argparse.ArgumentParser(
        prog="repro experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "selectors", nargs="*",
        help=f"a scale ({' | '.join(SCALES)}) and/or experiment names; "
             f"experiments: {', '.join(ALL_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 1, 1),
        help="worker processes (default: host core count)",
    )
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="write EXP_<experiment>_<scale>.json files into DIR",
    )
    parser.add_argument(
        "--store", metavar="DB", default=None,
        help="persist each result into the run store at DB",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..experiments.runner import SCALES

    args = build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    scale = "paper"
    names = []
    for arg in args.selectors:
        if arg in SCALES:
            scale = arg
        else:
            names.append(arg)
    try:
        tasks = experiment_tasks(names, scale)
        if args.workers < 1:
            raise SweepError(f"workers must be >= 1, got {args.workers}")
    except SweepError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    created_at = ""
    if args.store:
        # one stamp for the whole pass, shared by every record
        from ..store.clock import utc_stamp

        created_at = utc_stamp()

    runner = SweepRunner(
        tasks, workers=args.workers, store_path=args.store,
        save_dir=args.save, created_at=created_at,
    )
    results = runner.run()
    failures = 0
    for res in results:
        if res.ok:
            held = (res.payload or {}).get("all_verdicts_hold")
            verdict = (
                "" if held is None
                else (" verdicts=ok" if held else " verdicts=FAILED")
            )
            if res.text is not None:
                print(res.text)
            print(f"ok   {res.task.label()} [worker {res.worker}]{verdict}")
        else:
            failures += 1
            reason = (res.error or "unknown error").strip().splitlines()[-1]
            print(f"FAIL {res.task.label()} [worker {res.worker}]: {reason}")
    print(
        f"{len(results) - failures}/{len(results)} tasks ok "
        f"({len(tasks)} tasks, workers={args.workers}, scale={scale})"
    )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
