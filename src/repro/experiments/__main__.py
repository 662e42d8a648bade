"""Run every experiment and print the paper's rows/series.

Usage::

    python -m repro.experiments [paper|small|tiny] [fig1 fig2 ...]
                                [--save DIR] [--store DB]

``--save DIR`` writes each result to its canonical loose file
(``DIR/EXP_<experiment>_<scale>.json``); ``--store DB`` persists each
result as a run-store record.  Both consume the same
:func:`repro.experiments.runner.result_to_dict` payload, and the
experiment itself runs exactly once either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import ALL_EXPERIMENTS
from .runner import SCALES, result_to_dict, save_payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "selectors", nargs="*",
        help="a scale (paper | small | tiny) and/or experiment names; "
             f"experiments: {', '.join(ALL_EXPERIMENTS)}",
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
    args = build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    scale = "paper"
    wanted = []
    for arg in args.selectors:
        if arg in SCALES:
            scale = arg
        elif arg in ALL_EXPERIMENTS:
            wanted.append(arg)
        else:
            print(f"unknown argument {arg!r}; experiments: "
                  f"{', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2

    store = None
    host_seconds = None
    utc_stamp = None
    if args.store:
        # lazy: the runner package must stay importable without the store
        from ..store import RunStore, record_from_experiment_dict
        from ..store.clock import host_seconds, utc_stamp

        store = RunStore(args.store)

    try:
        for name in wanted or list(ALL_EXPERIMENTS):
            module = ALL_EXPERIMENTS[name]
            t0 = host_seconds() if host_seconds is not None else None
            result = module.run(scale)
            wall = (
                host_seconds() - t0
                if host_seconds is not None and t0 is not None else None
            )
            print(module.main(scale, result=result))
            payload = result_to_dict(result)
            if args.save:
                path = save_payload(payload, args.save)
                print(f"saved: {path}")
            if store is not None and utc_stamp is not None:
                record = record_from_experiment_dict(
                    payload,
                    wall_time=wall,
                    created_at=utc_stamp(),
                )
                fresh = store.put(record)
                status = "stored" if fresh else "already stored"
                print(f"{status}: {record.run_id[:12]} -> {args.store}")
            print()
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
