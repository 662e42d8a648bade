"""Self-tests of the end-to-end benchmark, on tiny copies of its workloads.

Run from the repository root (under a minute)::

    python3 -m pytest e2ebench/test_e2e.py -q

The copies keep each workload's name and the layers it exercises but run
at ``tiny`` scale.  Experiments whose verdicts do not hold at tiny scale
are left out: fig4 (its shoulder checks), erasure and telemetry;
failover still drives the placement layer and selfheal the telemetry
and health layers.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from spans import LAYERS  # noqa: E402

TINY = {
    "madbench": {"experiments": ["fig5"], "scale": "tiny"},
    "gcrm": {"experiments": ["fig6"], "scale": "tiny"},
    "ior": {"experiments": ["fig1", "fig2"], "scale": "tiny"},
    "resilience": {"experiments": ["faults", "failover", "interference",
                                   "selfheal"], "scale": "tiny"},
}


@pytest.fixture(scope="module")
def bench(tmp_path_factory) -> Path:
    """A copy of the benchmark whose spec.json lists the tiny workloads."""
    copy = tmp_path_factory.mktemp("e2ebench")
    for name in ("run.py", "worker.py", "spans.py"):
        shutil.copy(HERE / name, copy / name)
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    spec["workloads"] = TINY
    (copy / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (copy / "expected.json").write_text("{}", encoding="utf-8")
    return copy


def drive(bench: Path, *args: str, env=None):
    out = bench / "out.json"
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--repeat", "1",
         "--json", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )
    return proc, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(bench):
    proc, report = drive(bench, "--trace")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, report["workloads"]


def test_benchmark_files_are_consistent():
    assert check.main() == 0


def test_every_metric_name_is_valid_and_printed(traced):
    stdout, _ = traced
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in bench[section]]
    assert names
    for name in names:
        assert re.match(r"^[A-Za-z0-9_.-]+$", name), name
        assert re.search(rf"(^|\s){re.escape(name)}(\s|:)", stdout), name


def test_traced_digests_equal_untraced(traced):
    _, workloads = traced
    for name, entry in workloads.items():
        plain, tr = entry["samples"]
        assert not plain["traced"] and tr["traced"]
        assert plain["digests"] == tr["digests"], name
        assert set(tr["digests"]) == set(TINY[name]["experiments"])
        assert entry["failures"] == []


def test_stage_spans_sum_to_traced_wall(traced):
    _, workloads = traced
    for name, entry in workloads.items():
        layers = entry["per_layer"]
        stages = sum(layers[f"stage.{s}_s"] for s in
                     ("build", "dispatch", "analysis", "report", "store"))
        assert stages == pytest.approx(layers["trace.wall_s"], rel=0.05), name


def test_every_layer_is_called_where_mapped(traced):
    _, workloads = traced
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    calls = {w: e["samples"][1]["layers"] for w, e in workloads.items()}
    for layer in {entry[0] for entry in LAYERS}:
        mapped = {w for move in spec["moves"] for w in move["effect"]
                  if any(m.rpartition(".")[0] == layer for m in move["layers"])}
        counts = {w: calls[w][layer]["calls"] for w in calls}
        if mapped:
            assert all(counts[w] > 0 for w in mapped), (layer, counts)
        else:
            assert any(counts.values()), (layer, counts)
    placement = {w: calls[w]["iosys.placement"]["calls"] for w in calls}
    assert placement.pop("resilience") > 0
    assert not any(placement.values()), placement


def test_digests_do_not_depend_on_hash_seed(bench):
    digests = []
    for hash_seed in ("1", "2"):
        proc, report = drive(bench, env={"PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append({w: e["samples"][0]["digests"]
                        for w, e in report["workloads"].items()})
    assert digests[0] == digests[1]


def test_false_verdict_fails_the_run(bench, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("tiny_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    real = run.run_worker

    def one_verdict_false(*args, **kwargs):
        sample = real(*args, **kwargs)
        verdicts = sample["verdicts"]["fig6"]
        verdicts[sorted(verdicts)[0]] = False
        return sample

    monkeypatch.setattr(run, "run_worker", one_verdict_false)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "gcrm", "--repeat", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == 1 and last["attempted"] > 1
