"""Trace persistence: save/load IPM-I/O traces for offline analysis.

Two formats:

- **npz** (binary, compact): the trace's columns as NumPy arrays -- the
  right choice for large traces (a 10,240-task GCRM trace is ~200k
  events).  String columns are stored as fixed-width unicode arrays.
- **jsonl** (text, greppable): one JSON object per event, matching how
  the real IPM emits per-call records; convenient for interop and for
  eyeballing with standard UNIX tools.

Both round-trip exactly (tests assert column equality), so a trace
captured in one session can be analysed later::

    save_trace(result.trace, "run.npz")
    ...
    trace = load_trace("run.npz")
    print(format_analysis(analyze(trace)))
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from .events import COLUMNS, Trace

__all__ = ["save_trace", "load_trace"]


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path``; format chosen by suffix (.npz / .jsonl)."""
    path = Path(path)
    if path.suffix == ".npz":
        _save_npz(trace, path)
    elif path.suffix == ".jsonl":
        _save_jsonl(trace, path)
    else:
        raise ValueError(
            f"unknown trace format {path.suffix!r} (use .npz or .jsonl)"
        )


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    if path.suffix == ".npz":
        return _load_npz(path)
    if path.suffix == ".jsonl":
        return _load_jsonl(path)
    raise ValueError(
        f"unknown trace format {path.suffix!r} (use .npz or .jsonl)"
    )


# -- npz ---------------------------------------------------------------------


def _save_npz(trace: Trace, path: Path) -> None:
    columns = {name: trace.column(name) for name in COLUMNS}
    np.savez_compressed(
        path,
        **{
            name: col.astype(np.str_) if col.dtype == object else col
            for name, col in columns.items()
        },
    )


def _load_npz(path: Path) -> Trace:
    data = np.load(path, allow_pickle=False)
    return Trace.from_columns(**{name: data[name] for name in COLUMNS})


# -- jsonl --------------------------------------------------------------------


def _save_jsonl(trace: Trace, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in trace:
            fh.write(json.dumps(dataclasses.asdict(ev), separators=(",", ":")))
            fh.write("\n")


def _load_jsonl(path: Path) -> Trace:
    trace = Trace()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            trace.record(
                rec["rank"], rec["op"], rec["path"], rec["fd"],
                rec["offset"], rec["size"], rec["t_start"], rec["duration"],
                phase=rec.get("phase", ""),
                degraded=rec.get("degraded", False),
            )
    return trace
