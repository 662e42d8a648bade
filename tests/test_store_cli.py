"""Run-store CLI and wiring: verbs, exit codes, ``--store`` capture.

Covers ``python -m repro.store`` (ingest / report / regressions /
query), the ``repro store`` delegation, ``repro run-* --store``, and
``python -m repro.experiments --save/--store`` -- all in-process via
the ``main(argv)`` entry points, no subprocesses.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.experiments.__main__ import main as experiments_main
from repro.store import RunStore
from repro.store.__main__ import main as store_main

RESULTS = "benchmarks/results"


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "store.sqlite")


def _ingest(db):
    assert store_main(["ingest", RESULTS, "--db", db, "--no-stamp"]) == 0


# -- python -m repro.store -----------------------------------------------------

def test_ingest_report_regressions_query(db, capsys):
    _ingest(db)
    out = capsys.readouterr().out
    assert "new records" in out

    assert store_main(["report", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "per-metric distributions" in out
    assert "cross-run correlations" in out

    assert store_main(["regressions", "--db", db]) == 0
    assert "no regressions" in capsys.readouterr().out

    assert store_main(["query", "--db", db, "--kind", "benchmark",
                       "--require", "1"]) == 0


def test_query_require_exits_2_when_short(db, capsys):
    _ingest(db)
    capsys.readouterr()
    assert store_main(["query", "--db", db, "--kind", "experiment",
                       "--require", "1"]) == 2


def test_query_json_lines_parse(db, capsys):
    _ingest(db)
    capsys.readouterr()
    assert store_main(["query", "--db", db, "--json", "--limit", "2"]) == 0
    lines = [
        ln for ln in capsys.readouterr().out.splitlines() if ln.strip()
    ]
    assert len(lines) == 2
    for line in lines:
        assert json.loads(line)["schema_version"] == 1


def test_report_on_missing_store_is_an_error(db, capsys):
    assert store_main(["report", "--db", db]) == 2
    assert "repro store:" in capsys.readouterr().err


def test_regressions_exit_1_on_slowed_run(db, capsys):
    """The CI gate: a synthetically slowed rerun of a stored benchmark
    makes ``regressions`` exit non-zero."""
    _ingest(db)
    with RunStore(db) as store:
        base = store.query(kind="benchmark")[0]
        slowed_metrics = dict(base.metrics)
        slowed_metrics["wall_mean_s"] = (
            slowed_metrics.get("wall_mean_s", 1.0) * 10.0
        )
        from dataclasses import replace

        slowed = replace(
            base, run_id="f" * 64, metrics=slowed_metrics,
            wall_time=slowed_metrics["wall_mean_s"],
        )
        store.put(slowed)
    capsys.readouterr()
    assert store_main(["regressions", "--db", db]) == 1
    out = capsys.readouterr().out
    assert "regression(s)" in out
    assert "history fence" in out


# -- repro store / repro run-* --store -----------------------------------------

def test_repro_store_delegates(db, capsys):
    assert repro_main(["store", "ingest", RESULTS, "--db", db,
                       "--no-stamp"]) == 0
    assert "new records" in capsys.readouterr().out


def test_run_ior_store_lands_a_row(db, capsys):
    argv = ["run-ior", "--ntasks", "2", "--block", "2", "--transfer", "2",
            "--reps", "1", "--stripes", "2", "--store", db]
    assert repro_main(argv) == 0
    assert "run stored" in capsys.readouterr().out
    with RunStore(db, create=False) as store:
        records = store.query(kind="run", name="ior")
        assert len(records) == 1
        record = records[0]
        assert record.trace_digest
        assert record.n_events > 0
        assert record.wall_time is not None and record.wall_time >= 0
        assert "cfg_n_osts" in record.metrics
    # rerunning adds a second timing sample to the same group; the sim
    # itself is deterministic, so fingerprint and digest must not drift
    assert repro_main(argv) == 0
    capsys.readouterr()
    with RunStore(db, create=False) as store:
        records = store.query(kind="run", name="ior")
    assert len(records) == 2
    assert records[0].fingerprint == records[1].fingerprint
    assert records[0].trace_digest == records[1].trace_digest


def test_run_facility_store_lands_a_row(db, capsys):
    argv = ["run-facility",
            "--tenants", "vic=checkpoint:2@0",
            "--tenants", "agg=bandwidth-hog:2@0",
            "--store", db]
    assert repro_main(argv) == 0
    with RunStore(db, create=False) as store:
        records = store.query(kind="run", name="facility")
        assert len(records) == 1
        assert records[0].n_events > 0
        assert records[0].config.get("machine")


# -- python -m repro.experiments --save/--store --------------------------------

def test_experiments_save_and_store_single_run(db, tmp_path, capsys):
    out_dir = tmp_path / "exp"
    assert experiments_main(["tiny", "faults", "--save", str(out_dir),
                             "--store", db]) == 0
    text = capsys.readouterr().out
    status = [ln for ln in text.splitlines() if ln.startswith("ok   ")]
    assert len(status) == 1
    assert status[0].startswith("ok   faults@tiny [worker ")
    assert status[0].endswith("] verdicts=ok")

    path = out_dir / "EXP_faults_tiny.json"
    data = json.loads(path.read_text())
    assert data["experiment"] == "faults"
    assert data["scale"] == "tiny"

    with RunStore(db, create=False) as store:
        records = store.query(kind="experiment", name="faults")
        assert len(records) == 1
        record = records[0]
        assert record.scale == "tiny"
        assert record.metrics["verdicts_held"] == 1.0
        assert record.wall_time is not None

    # the loose file re-ingests as a (distinct-id, same-group) record:
    # one shared payload shape end to end
    assert store_main(["ingest", str(out_dir), "--db", db,
                       "--no-stamp"]) == 0


def test_experiments_unknown_arg_exits_2(capsys):
    assert experiments_main(["no-such-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
