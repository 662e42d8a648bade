#!/usr/bin/env python
"""Detector golden: every fault detector's output, canonicalised exactly.

The fault detectors (:func:`~repro.ensembles.diagnose.diagnose`,
:func:`~repro.ensembles.diagnose.find_interference` and the ``find_*``
finders of :mod:`repro.ensembles.locate`) are run over fixed-seed
scenarios and every result -- each :class:`Finding`, ``TransientFault``,
``MaskedFault``, ``RebuildPressure`` and ``OstSuspect`` -- is written out
field by field, floats as ``float.hex``.  Two trees whose detectors agree
produce byte-identical output, so a refactor of the detectors is proven
behaviour-preserving by diffing this output before and after it.

Two parts:

- ``scenarios``: the simulated workloads of the fault, diagnosis,
  replication, erasure and interference test modules, each analysed with
  and without the file layout.  One sha256 per scenario is committed as
  ``tests/golden/detectors.json`` (``--write`` refreshes it) and checked
  by ``tests/test_detector_golden.py``.
- ``experiments``: every public detector call the twelve experiments make
  at one scale, plus a sha256 of each experiment's ``result_to_dict`` JSON
  and rendered ``main()`` text.  It runs every experiment, so it stays
  out of the test suite; diff it across a change by hand::

      PYTHONPATH=src python tests/detector_golden.py > before.json
      PYTHONPATH=src python tests/detector_golden.py --experiments small > before_small.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.apps.gcrm import run_gcrm  # noqa: E402
from repro.apps.harness import SimJob  # noqa: E402
from repro.apps.ior import run_ior  # noqa: E402
from repro.apps.madbench import run_madbench  # noqa: E402
from repro.ensembles.diagnose import diagnose, find_interference  # noqa: E402
from repro.ensembles.locate import (  # noqa: E402
    find_masked_faults,
    find_rebuild_pressure,
    find_slow_osts,
    find_transient_faults,
)
from repro.experiments import (  # noqa: E402
    fig1_ior_modes,
    fig4_madbench,
    fig6_gcrm,
)
from repro.iosys.faults import (  # noqa: E402
    DEGRADE,
    MDS_HICCUP,
    STALL,
    FaultSchedule,
    FaultWindow,
)
from repro.iosys.machine import MachineConfig, MiB  # noqa: E402
from repro.iosys.posix import O_CREAT, O_RDWR  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "detectors.json"
FORMAT = 1

#: the public detectors whose every call the experiment part records
DETECTORS = {
    "diagnose": diagnose,
    "find_interference": find_interference,
    "find_slow_osts": find_slow_osts,
    "find_transient_faults": find_transient_faults,
    "find_masked_faults": find_masked_faults,
    "find_rebuild_pressure": find_rebuild_pressure,
}


def canon(obj: Any) -> Any:
    """A JSON structure with every float as ``float.hex``; dataclasses
    unfold field by field and dicts keep their insertion order."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, str):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"type": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [canon(v) for v in obj]
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


# -- scenarios -----------------------------------------------------------------

def _battery(trace, nranks: int, layout=None) -> Dict[str, Any]:
    """Every detector over one trace; the finders only with a layout."""
    out: Dict[str, Any] = {
        "diagnose": canon(diagnose(trace, nranks=nranks)),
    }
    if layout is None:
        return out
    out["diagnose_layout"] = canon(
        diagnose(trace, nranks=nranks, layout=layout)
    )
    out["transient"] = canon(find_transient_faults(trace, layout))
    # looser knobs reach the retry-only windows and the min_events floor
    out["transient_loose"] = canon(
        find_transient_faults(trace, layout, threshold=2.0, min_events=1,
                              max_span_fraction=1.0)
    )
    out["transient_writes"] = canon(
        find_transient_faults(trace, layout, ops=("write", "pwrite"))
    )
    out["masked"] = canon(find_masked_faults(trace, layout))
    out["masked_floor"] = canon(find_masked_faults(trace, layout, min_events=3))
    out["rebuild"] = canon(find_rebuild_pressure(trace, layout))
    out["rebuild_floor"] = canon(
        find_rebuild_pressure(trace, layout, min_events=3)
    )
    out["slow_osts"] = canon(find_slow_osts(trace, layout))
    return out


def _per_file(res, nranks: int) -> Dict[str, Any]:
    """File-per-task runs: each file through its own placements, then the
    whole trace through the first file's layout."""
    out: Dict[str, Any] = {}
    files = sorted(res.iosys._files.items())
    for path, f in files:
        sub = res.trace.filter(path=path)
        for kind in ("layout", "replication", "erasure"):
            lay = getattr(f, kind)
            if lay is not None:
                out[f"{path}:{kind}"] = _battery(sub, nranks, lay)
    out["whole"] = _battery(res.trace, nranks, files[0][1].layout)
    return out


def _record_writer(ctx, nrec: int, record: int, path: str):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    base = ctx.rank * nrec * record
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, record, base + j * record)
    yield from ctx.io.close(fd)
    return None


def _opener(ctx, n: int):
    for i in range(n):
        fd = yield from ctx.io.open(f"/scratch/m{ctx.rank}_{i}", O_CREAT | O_RDWR)
        yield from ctx.io.close(fd)
    return None


def _shared(machine, ntasks, nrec, record, path, seed):
    job = SimJob(machine, ntasks, seed=seed, placement="packed")
    res = job.run(_record_writer, nrec, record, path)
    return _battery(res.trace, ntasks, job.iosys.lookup(path).layout)


def _faults_scenarios() -> Dict[str, Any]:
    """``tests/test_faults.py``: stall with and without retry, a degrade
    window, an MDS hiccup, and the healthy control."""
    def machine(**overrides):
        return MachineConfig.testbox(
            n_osts=16, fs_bw=2048 * MiB, discipline_weights={4: 1.0}
        ).with_overrides(**overrides)

    stall = FaultSchedule.of(FaultWindow(STALL, 0.5, 1.2, device=5))
    degrade = FaultSchedule.of(
        FaultWindow(DEGRADE, 0.5, 1.2, device=5, factor=16.0)
    )
    out = {
        name: _shared(m, 16, 150, 1 * MiB, "/scratch/t.dat", 2)
        for name, m in (
            ("healthy", machine()),
            ("retried", machine(faults=stall, client_retry=True)),
            ("stalled", machine(faults=stall, client_retry=False)),
            ("degraded", machine(faults=degrade)),
        )
    }
    hiccup = FaultSchedule.of(FaultWindow(MDS_HICCUP, 0.0, 10.0, factor=12.0))
    job = SimJob(machine(faults=hiccup, mds_latency=1.0e-3), 4, seed=3)
    res = job.run(_opener, 40)
    out["mds_hiccup"] = _battery(
        res.trace, 4, job.iosys.lookup("/scratch/m0_0").layout
    )
    return out


def _diagnose_scenarios() -> Dict[str, Any]:
    """``tests/test_diagnose_scenarios.py``: one workload per finding code
    plus the healthy control."""
    out: Dict[str, Any] = {}
    cfg = fig1_ior_modes.configure("tiny")
    res = run_ior(cfg, seed=0)
    out["harmonic"] = _battery(res.trace, cfg.ntasks)
    cfg = fig4_madbench.configure("tiny")
    res = run_madbench(cfg, seed=0)
    out["deterioration"] = _battery(res.trace, cfg.ntasks)
    cfg = fig6_gcrm.configure("tiny", "baseline")
    res = run_gcrm(cfg, seed=0)
    out["rank0"] = _battery(res.trace, res.ntasks)
    out["shoulder"] = _shared(
        MachineConfig.testbox(
            n_osts=8, fs_bw=1024 * MiB, discipline_weights={4: 1.0},
            tail_prob=0.04, tail_factor=200.0, noise_sigma=0.05,
        ),
        16, 32, 1 * MiB, "/scratch/tail.dat", 5,
    )
    out["below_fair_share"] = _shared(
        MachineConfig.testbox(
            n_osts=8, fs_bw=512 * MiB, discipline_weights={4: 1.0},
            background_load=((0.0, 1e9, 0.8),),
        ),
        8, 24, 1 * MiB, "/scratch/bg.dat", 6,
    )
    out["unaligned"] = _shared(
        MachineConfig.testbox(n_osts=8, fs_bw=1024 * MiB),
        8, 16, MiB + MiB // 2, "/scratch/unaligned.dat", 7,
    )
    out["lln"] = _shared(
        MachineConfig.testbox(
            n_osts=8, fs_bw=1024 * MiB, noise_sigma=0.7,
            discipline_weights={4: 1.0}, dirty_quota=0.0,
        ),
        16, 2, 4 * MiB, "/scratch/lln.dat", 8,
    )
    out["stall"] = _shared(
        MachineConfig.testbox(
            n_osts=16, fs_bw=2048 * MiB, discipline_weights={4: 1.0}
        ).with_overrides(
            faults=FaultSchedule.of(FaultWindow(STALL, 0.4, 1.0, device=5)),
            client_retry=True,
        ),
        16, 150, 1 * MiB, "/scratch/stall.dat", 2,
    )
    out["healthy"] = _shared(
        MachineConfig.testbox(
            n_osts=8, fs_bw=1024 * MiB, discipline_weights={4: 1.0},
            dirty_quota=0.0,
        ),
        8, 32, 1 * MiB, "/scratch/ok.dat", 9,
    )
    return out


def _resilience_scenarios() -> Dict[str, Any]:
    """``tests/test_replication.py`` and ``tests/test_erasure.py``: mirror
    failover and erasure-coded rebuilds, per file and whole-trace."""
    from tests import test_erasure, test_replication

    out: Dict[str, Any] = {}
    for name, kwargs in (
        ("k2", dict(k=2)),
        ("k2_ride_out", dict(k=2, failover=False)),
        ("k2_dev1", dict(k=2, device=1)),
        ("k_all_dev1", dict(k=test_replication.NOSTS, device=1)),
        ("k2_late", dict(k=2, window=(500.0, 600.0), device=1)),
        ("k1", dict(k=1)),
    ):
        out[f"replication/{name}"] = _per_file(
            test_replication._run(**kwargs), 2
        )
    for name, kwargs in (
        ("ec", {}),
        ("ec_ride_out", dict(failover=False)),
        ("ec_healthy", dict(window=None)),
    ):
        out[f"erasure/{name}"] = _per_file(test_erasure._run(**kwargs), 4)
    return out


def _interference_scenarios() -> Dict[str, Any]:
    """``tests/test_interference_oracle.py``: storm, hog and idle
    co-tenants next to one checkpointing victim."""
    from tests import test_interference_oracle as tio

    out: Dict[str, Any] = {}
    for name, co in (
        ("storm", [tio._STORM, tio._IDLE]),
        ("hog", [tio._HOG, tio._IDLE]),
        ("healthy", [tio._IDLE]),
    ):
        res = tio._run(co)
        vic = res.job("victim")
        first = min(set(vic.trace.paths) & set(res.iosys._files))
        out[name] = {
            "interference": canon(
                find_interference(vic.trace, res.telemetry, vic.tenant)
            ),
            "interference_strict": canon(
                find_interference(vic.trace, res.telemetry, vic.tenant,
                                  min_slowdown=6.0, min_share=0.9)
            ),
            **_battery(vic.trace, 4, res.iosys.lookup(first).layout),
        }
    return out


def scenario_golden() -> Dict[str, Any]:
    return {
        "faults": _faults_scenarios(),
        "diagnose": _diagnose_scenarios(),
        "resilience": _resilience_scenarios(),
        "interference": _interference_scenarios(),
    }


def scenario_digests(golden: Dict[str, Any]) -> Dict[str, str]:
    """sha256 of each scenario's canonical output, keyed group/scenario."""
    return {
        f"{group}/{name}": hashlib.sha256(
            json.dumps(out).encode()
        ).hexdigest()
        for group, scenarios in golden.items()
        for name, out in scenarios.items()
    }


# -- experiments ---------------------------------------------------------------

def _recorder(calls: List[Any], name: str, fn: Callable) -> Callable:
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append({
            "fn": name,
            "n_events": len(args[0]),
            "kwargs": sorted(kwargs),
            "result": canon(result),
        })
        return result

    return wrapped


def experiment_golden(scale: str) -> Dict[str, Any]:
    """Run all twelve experiments with every public detector wrapped."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import result_to_dict

    calls: List[Any] = []
    patched = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, fn in DETECTORS.items():
            if getattr(mod, name, None) is fn:
                setattr(mod, name, _recorder(calls, name, fn))
                patched.append((mod, name, fn))
    out: Dict[str, Any] = {}
    try:
        for exp, mod in ALL_EXPERIMENTS.items():
            del calls[:]
            result = mod.run(scale)
            payload = json.dumps(result_to_dict(result), sort_keys=True)
            text = mod.main(scale, result=result)
            out[exp] = {
                "calls": list(calls),
                "result_sha256": hashlib.sha256(payload.encode()).hexdigest(),
                "main_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
    finally:
        for mod, name, fn in patched:
            setattr(mod, name, fn)
    return out


def dumps(golden: Dict[str, Any]) -> str:
    return json.dumps(golden, indent=1) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--experiments", metavar="SCALE", default=None,
        help="dump the experiment part at SCALE instead of the scenarios",
    )
    parser.add_argument(
        "--write", action="store_true",
        help=f"write the scenario digests to {GOLDEN.name}",
    )
    args = parser.parse_args()
    if args.experiments:
        sys.stdout.write(dumps(experiment_golden(args.experiments)))
        return 0
    golden = scenario_golden()
    if args.write:
        GOLDEN.write_text(dumps({
            "format": FORMAT, "sha256": scenario_digests(golden),
        }))
    else:
        sys.stdout.write(dumps(golden))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
