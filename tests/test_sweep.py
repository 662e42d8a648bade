"""Sweep runner: dispatch order, the CLI, and the store-identity gate.

The headline acceptance criterion lives here:
``test_parallel_sweep_store_identical_to_serial`` runs the experiments
driver serially and with 4 workers and asserts the two RunStores are
row-for-row identical -- the sweep runner may change wall-clock, never
content.  Stored records carry the host time each experiment took, so
the identity tests pin :func:`repro.store.clock.host_seconds` the way
``STAMP`` pins ``created_at``; ``test_real_clock_times_every_record``
checks the timing with the real clock.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.experiments import fig1_ior_modes
from repro.experiments.__main__ import main as experiments_main
from repro.store import RunStore, clock
from repro.store.schema import canonical_json
from repro.sweep import (
    SweepError,
    SweepRunner,
    experiment_tasks,
    run_sweep,
)
from repro.sweep.__main__ import main as sweep_main
from tests.sweep_fakes import (
    FakeExperiment, fake_experiments, poison, squares, unpicklable,
)

#: a constant ingest stamp: run_id is a content hash over payload +
#: created_at, so a fixed stamp makes store rows fully deterministic
STAMP = "2026-01-01T00:00:00Z"


@pytest.fixture
def pinned_clock(monkeypatch):
    """Every host-time reading returns the same value, so each record's
    ``wall_time`` (and its ``wall_s`` metric) is 0.0; forked workers
    inherit the patch."""
    monkeypatch.setattr(clock, "host_seconds", lambda: 0.0)


# -- dispatch ------------------------------------------------------------------

def test_ready_units_pop_longest_first_with_stable_ties():
    import heapq

    from repro.experiments import fig2_lln, fig6_gcrm
    from repro.sweep import _Plan

    plans = [_Plan(specs=fig2_lln.plan("tiny")),
             _Plan(specs=fig6_gcrm.plan("tiny"))]
    queued = set()
    ready = [e for ti, p in enumerate(plans) for e in p.ready(ti, queued)]
    heapq.heapify(ready)
    order = [heapq.heappop(ready)[1] for _ in range(len(ready))]
    # fig6's four equal-cost GCRM runs first, in plan order, then
    # fig2's k-splits from the most transfers down
    assert order == [(1, 0), (1, 1), (1, 2), (1, 3),
                     (0, 3), (0, 2), (0, 1), (0, 0)]


def _values(results):
    return [r.payload["series"]["values"] for r in results]


def test_more_workers_than_units_start_no_idle_workers():
    with fake_experiments(*squares([0, 2])) as tasks:
        results = run_sweep(tasks, workers=8)
    assert _values(results) == [[0], [4]]
    assert {r.worker for r in results} <= {0, 1}


def test_zero_tasks_yield_no_results():
    assert run_sweep([], workers=4) == []


def test_invalid_worker_count_is_rejected():
    with pytest.raises(SweepError):
        SweepRunner([], workers=0)


def test_experiment_tasks_rejects_unknown_names():
    with pytest.raises(SweepError, match="nosuch"):
        experiment_tasks(["fig1", "nosuch"], "tiny")


def test_experiment_tasks_default_is_every_experiment():
    from repro.experiments import ALL_EXPERIMENTS

    tasks = experiment_tasks([], "small")
    assert [t.name for t in tasks] == list(ALL_EXPERIMENTS)
    assert all(t.scale == "small" for t in tasks)


# -- ordering and recorded failures -------------------------------------------

def test_tasks_run_and_keep_order():
    with fake_experiments(*squares(range(5))) as tasks:
        results = run_sweep(tasks, workers=2)
    assert [r.index for r in results] == [0, 1, 2, 3, 4]
    assert all(r.ok for r in results)
    assert _values(results) == [[0], [1], [4], [9], [16]]


def test_raising_plan_is_a_recorded_failure(monkeypatch):
    def plan(scale):
        raise RuntimeError("no plan at " + scale)

    monkeypatch.setattr(fig1_ior_modes, "plan", plan)
    results = run_sweep(experiment_tasks(["fig1"], "tiny"), workers=1)
    assert results[0].ok is False
    assert "no plan at tiny" in results[0].error


def test_unpicklable_result_is_a_recorded_failure():
    """A value that cannot cross the process boundary fails its task;
    the sweep must not wait for a message that never comes."""
    fake = FakeExperiment("lambda", [1], unpicklable)
    with fake_experiments(fake) as tasks:
        results = run_sweep(tasks, workers=1)
    assert results[0].ok is False
    assert "pickle" in results[0].error.lower()


# -- the acceptance gate: serial vs parallel store identity --------------------

_GATE_EXPERIMENTS = ["fig1", "fig2", "fig4", "fig5"]


def _store_rows(db_path):
    """Every record in the store, sorted, minus the ``seq`` autoincrement
    column -- seq reflects physical arrival order, which legitimately
    varies with worker scheduling; record *content* must not."""
    with sqlite3.connect(str(db_path)) as conn:
        rows = conn.execute("SELECT * FROM runs").fetchall()
    return sorted(row[1:] for row in rows)


def _payload_essence(res):
    """Everything about a result that must be worker-count invariant
    (the worker id is diagnostic and legitimately varies).  Payloads are
    compared through the store's canonical JSON -- the same
    serialisation the run_id hash sees -- which also sidesteps numpy
    array equality in experiment series."""
    payload = None if res.payload is None else canonical_json(res.payload)
    return (res.index, res.task, res.ok, payload, res.error, res.text)


def test_parallel_sweep_store_identical_to_serial(tmp_path, pinned_clock):
    tasks = experiment_tasks(_GATE_EXPERIMENTS, "tiny")

    serial_db = tmp_path / "serial.sqlite"
    serial = SweepRunner(
        tasks, workers=1, store_path=str(serial_db), created_at=STAMP
    ).run()

    parallel_db = tmp_path / "parallel.sqlite"
    parallel = SweepRunner(
        tasks, workers=4, store_path=str(parallel_db), created_at=STAMP
    ).run()

    assert all(r.ok for r in serial), [r.error for r in serial if not r.ok]
    assert all(r.ok for r in parallel), [
        r.error for r in parallel if not r.ok
    ]
    assert [_payload_essence(r) for r in serial] == [
        _payload_essence(r) for r in parallel
    ]
    serial_rows = _store_rows(serial_db)
    assert serial_rows, "serial sweep must have stored records"
    assert serial_rows == _store_rows(parallel_db)


def test_repeat_sweep_into_same_store_is_idempotent(tmp_path, pinned_clock):
    tasks = experiment_tasks(["fig1"], "tiny")
    db = tmp_path / "store.sqlite"
    SweepRunner(tasks, workers=1, store_path=str(db), created_at=STAMP).run()
    first = _store_rows(db)
    SweepRunner(tasks, workers=1, store_path=str(db), created_at=STAMP).run()
    assert _store_rows(db) == first


def test_real_clock_times_every_record(tmp_path):
    """Unpinned, each record's ``wall_time`` is the host time of its
    simulations and reduce, and its ``wall_s`` metric repeats it."""
    db = tmp_path / "store.sqlite"
    results = run_sweep(
        experiment_tasks(["fig1", "faults"], "tiny"), workers=2,
        store_path=str(db), created_at=STAMP,
    )
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    with RunStore(str(db), create=False) as store:
        records = store.query(kind="experiment")
    assert len(records) == 2
    for record in records:
        assert record.wall_time > 0
        assert record.metrics["wall_s"] == record.wall_time


def test_save_dir_writes_canonical_loose_files(tmp_path):
    out = tmp_path / "results"
    results = run_sweep(
        experiment_tasks(["fig1"], "tiny"), workers=1, save_dir=str(out)
    )
    assert results[0].ok, results[0].error
    files = sorted(out.glob("EXP_*_tiny.json"))
    assert len(files) == 1, files
    saved = json.loads(files[0].read_text())
    assert canonical_json(saved) == canonical_json(results[0].payload)


# -- CLI -----------------------------------------------------------------------

def test_cli_runs_and_reports(tmp_path, capsys):
    db = tmp_path / "store.sqlite"
    code = sweep_main(
        ["tiny", "fig1", "fig2", "--workers", "2", "--store", str(db)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ok   fig1@tiny" in out
    assert "ok   fig2@tiny" in out
    assert "2/2 tasks ok" in out
    assert _store_rows(db)


def test_cli_rejects_unknown_experiment(capsys):
    assert sweep_main(["tiny", "nosuch"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_rejects_bad_worker_count(capsys):
    assert sweep_main(["tiny", "fig1", "--workers", "0"]) == 2


def test_cli_failure_exit_is_nonzero(capsys):
    with fake_experiments(FakeExperiment("bad", [7], poison)):
        code = sweep_main(["tiny", "bad", "fig1", "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL bad@tiny [worker 0]: ValueError: poisoned task 7" in out
    assert "ok   fig1@tiny" in out
    assert "1/2 tasks ok" in out


def _entry_point_outputs(entry, argv, tmp_path, tag, capsys):
    save, db = tmp_path / f"save-{tag}", tmp_path / f"store-{tag}.sqlite"
    code = entry(argv + ["--save", str(save), "--store", str(db)])
    files = {p.name: p.read_bytes() for p in sorted(save.iterdir())}
    return code, capsys.readouterr().out, files, _store_rows(db)


def test_entry_points_print_save_and_store_the_same(
    tmp_path, capsys, monkeypatch, pinned_clock
):
    """``python -m repro.experiments``, ``repro experiments`` and
    ``repro sweep`` are one command: same stdout, saved files and store
    rows for the same arguments."""
    monkeypatch.setattr(clock, "utc_stamp", lambda: STAMP)
    argv = ["tiny", "fig1", "faults", "--workers", "1"]
    outputs = [
        _entry_point_outputs(entry, argv, tmp_path, tag, capsys)
        for tag, entry in (
            ("module", experiments_main),
            ("experiments", lambda a: repro_main(["experiments"] + a)),
            ("sweep", lambda a: repro_main(["sweep"] + a)),
        )
    ]
    code, out, files, rows = outputs[0]
    assert code == 0 and "2/2 tasks ok" in out
    assert len(files) == len(rows) == 2
    assert outputs[1:] == [outputs[0]] * 2


def test_module_entry_point_runs_as_a_script(capsys):
    """``python -m repro.experiments`` in a fresh interpreter prints what
    the in-process driver prints."""
    argv = ["tiny", "fig1", "--workers", "1"]
    assert sweep_main(argv) == 0
    want = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments"] + argv,
        capture_output=True, text=True, env=env, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
