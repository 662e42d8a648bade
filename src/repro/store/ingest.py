"""Backfill and file ingestion: loose JSON -> run-store rows.

Two source shapes are understood:

- ``BENCH_<name>.json`` -- the committed benchmark baselines written by
  ``benchmarks/conftest.py`` (a list of per-benchmark entries with
  pytest-benchmark ``stats`` and the attached ``extra_info`` series);
- ``EXP_<name>_<scale>.json`` -- experiment results written through
  :func:`repro.experiments.runner.save_payload` (the canonical
  :class:`~repro.experiments.runner.ExperimentResult` dict).

Both funnel into :class:`~repro.store.schema.RunRecord` via
content-derived ids, so ingestion is idempotent: running the backfill
twice (or over overlapping directories) inserts nothing new.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .capture import record_from_experiment_dict
from .db import RunStore
from .schema import RunRecord, StoreError, config_fingerprint, derive_run_id

__all__ = [
    "IngestStats",
    "records_from_bench_entries",
    "records_from_bench_json",
    "records_from_experiment_json",
    "ingest_paths",
]


@dataclass
class IngestStats:
    """What one ingest pass did."""

    files: int = 0
    inserted: int = 0
    duplicates: int = 0

    def format(self) -> str:
        return (
            f"ingested {self.files} files: {self.inserted} new records, "
            f"{self.duplicates} already stored"
        )


def _scalar_metrics(info: Mapping[str, Any], prefix: str = "") -> Dict[str, float]:
    """Finite scalars of a mapping as a flat metric dict (lists and
    nested series are analytics-opaque and stay in config)."""
    out: Dict[str, float] = {}
    for key in sorted(info):
        value = info[key]
        if isinstance(value, bool):
            out[f"{prefix}{key}"] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)) and float(value) == float(value) \
                and abs(float(value)) != float("inf"):
            out[f"{prefix}{key}"] = float(value)
    return out


def records_from_bench_entries(
    module: str,
    entries: Sequence[Mapping[str, Any]],
    *,
    source: str = "",
    created_at: str = "",
) -> List[RunRecord]:
    """RunRecords from one benchmark module's baseline entries.

    This is the single code path for benchmark ingestion: the backfill
    feeds it parsed ``BENCH_*.json`` files and the live benchmark
    session (``benchmarks/conftest.py``) feeds it the same record
    dicts before they ever touch disk.
    """
    name = module[len("bench_"):] if module.startswith("bench_") else module
    records: List[RunRecord] = []
    for entry in entries:
        bench_name = str(entry.get("benchmark", name))
        stats = entry.get("stats") or None
        extra = entry.get("extra_info") or {}
        metrics = _scalar_metrics(extra)
        if isinstance(stats, Mapping):
            for key in ("min", "max", "mean", "median", "stddev"):
                value = stats.get(key)
                if isinstance(value, (int, float)):
                    metrics[f"wall_{key}_s"] = float(value)
            rounds = stats.get("rounds")
            if isinstance(rounds, int):
                metrics["wall_rounds"] = float(rounds)
        config: Dict[str, Any] = {
            "kind": "benchmark",
            "name": name,
            "benchmark": bench_name,
            "fullname": str(entry.get("fullname", "")),
        }
        fingerprint = config_fingerprint(config)
        payload = {
            "kind": "benchmark",
            "name": name,
            "benchmark": bench_name,
            "fingerprint": fingerprint,
            "metrics": metrics,
            "created_at": created_at,
        }
        wall = metrics.get("wall_mean_s")
        records.append(RunRecord(
            run_id=derive_run_id(payload),
            kind="benchmark",
            name=f"{name}::{bench_name}" if bench_name != name else name,
            scale="",
            fingerprint=fingerprint,
            config=config,
            wall_time=wall,
            created_at=created_at,
            metrics=metrics,
            notes=f"source: {source}" if source else "",
        ))
    return records


def records_from_bench_json(
    path: Union[str, Path], *, created_at: str = ""
) -> List[RunRecord]:
    """Parse one ``BENCH_<name>.json`` baseline file."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise StoreError(
            f"{path}: expected a list of benchmark entries, "
            f"got {type(data).__name__}"
        )
    module = path.stem[len("BENCH_"):] if path.stem.startswith("BENCH_") \
        else path.stem
    return records_from_bench_entries(
        module, data, source=path.name, created_at=created_at
    )


def records_from_experiment_json(
    path: Union[str, Path], *, created_at: str = ""
) -> List[RunRecord]:
    """Parse one ``EXP_*.json`` experiment-result file."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "experiment" not in data:
        raise StoreError(
            f"{path}: not an experiment result (missing 'experiment' key)"
        )
    return [record_from_experiment_dict(data, created_at=created_at)]


def _classify(path: Path) -> Optional[str]:
    if path.suffix != ".json":
        return None
    if path.name.startswith("BENCH_"):
        return "bench"
    if path.name.startswith("EXP_"):
        return "experiment"
    return None


def ingest_paths(
    store: RunStore,
    paths: Sequence[Union[str, Path]],
    *,
    created_at: str = "",
) -> IngestStats:
    """Ingest every recognised JSON file under ``paths`` (files or
    directories; directories scan one level, sorted)."""
    stats = IngestStats()
    files: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        elif path.exists():
            files.append(path)
        else:
            raise StoreError(f"no such file or directory: {path}")
    for path in files:
        shape = _classify(path)
        if shape is None:
            continue
        if shape == "bench":
            records = records_from_bench_json(path, created_at=created_at)
        else:
            records = records_from_experiment_json(
                path, created_at=created_at
            )
        stats.files += 1
        for record in records:
            if store.put(record):
                stats.inserted += 1
            else:
                stats.duplicates += 1
    return stats
