"""Experiment / run vocabulary and result tables.

Section III: "we refer to a particular choice of test parameters as an
*experiment* and a specific instance of running that experiment simply as
a *run*."  Each ``figN_*`` module defines one experiment per figure panel
group, exposes ``run(scale=...)`` returning an :class:`ExperimentResult`,
and a ``main()`` that prints the same rows/series the paper reports.

Every module splits ``run`` into three steps, so the unit of work is
one simulation rather than one experiment:

- ``plan(scale, seed) -> [SimSpec]`` lists the simulations, in the
  order ``run`` performs them (:class:`~repro.apps.harness.SimSpec`);
- ``summarise(spec, result) -> dict`` runs right after each simulation
  and keeps only what the reduce needs, so the live result (engine,
  I/O system, trace) can be freed before the next simulation starts;
- ``reduce(scale, summaries) -> ExperimentResult`` builds the result
  from the summaries, keyed by spec label in plan order.

``run`` is :func:`summarise_plan` followed by ``reduce``: serial, in
one process.  :mod:`repro.sweep` schedules the same specs across
worker processes and reduces in the parent.

Scales: every experiment runs at the paper's full parameters by default
(``scale='paper'``); ``scale='small'`` shrinks task counts and transfer
sizes for tests and pytest-benchmarks while exercising identical code
paths.  EXPERIMENTS.md records the full-scale numbers.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.harness import SimSpec

__all__ = [
    "ExperimentResult",
    "Summaries",
    "summarise_plan",
    "format_table",
    "SCALES",
    "result_to_dict",
    "output_path",
    "save_payload",
]

SCALES = ("paper", "small", "tiny")


#: per-simulation summaries of one plan, keyed by spec label in plan order
Summaries = Dict[str, Dict[str, Any]]


def summarise_plan(
    specs: Sequence["SimSpec"],
    summarise: Callable[["SimSpec", Any], Dict[str, Any]],
) -> Summaries:
    """Run a plan serially and in order: resolve each spec against the
    summaries so far, simulate it, summarise it, and drop the result
    before the next spec starts."""
    # lazy: the runner module stays importable without the simulator
    from ..apps.harness import simulate

    summaries: Summaries = {}
    for spec in specs:
        spec = spec.resolve(summaries)
        summaries[spec.label] = summarise(spec, simulate(spec))
    return summaries


@dataclass
class ExperimentResult:
    """One experiment's reproduced content.

    ``series`` holds the figure's plottable data (named columns);
    ``summary`` holds the headline scalars compared against the paper in
    EXPERIMENTS.md; ``verdicts`` are boolean shape checks (who wins, are
    the modes harmonic, does the trend hold) that the integration tests
    assert.
    """

    experiment: str
    scale: str
    summary: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, Any] = field(default_factory=dict)
    verdicts: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def all_verdicts_hold(self) -> bool:
        return all(self.verdicts.values())


#: the exact types JSON holds as they are
_PLAIN = frozenset((str, int, bool, float, type(None)))


def _json_value(obj: Any) -> Any:
    """Coerce one result value into plain, deterministic JSON structures.

    Experiment modules stash rich analysis objects in ``series`` --
    numpy arrays, histogram dataclasses, ``EmpiricalDistribution`` --
    for their own ``main()`` rendering.  The JSON boundary must flatten
    them: a ``str(obj)`` fallback would embed memory addresses and make
    byte-identical runs produce differing files.

    Values that already are plain -- exactly ``str``/``int``/``bool``/
    ``float``/``None``, or a list of them such as an array's ``tolist()``
    -- are returned (lists copied) before any slower test runs.
    """
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is list and all(type(v) in _PLAIN for v in obj):
        return list(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _json_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    if isinstance(obj, (str, bool, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(obj)
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):  # numpy arrays and scalars
        return _json_value(tolist())
    samples = getattr(obj, "samples", None)
    if samples is not None:  # EmpiricalDistribution and kin
        return {"samples": _json_value(samples)}
    # last resort: the type name alone -- deterministic, address-free
    return type(obj).__name__


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """The one JSON shape for experiment output.

    Both loose ``EXP_*.json`` files and store ingestion consume this --
    a single code path, so the two can never drift apart.  Everything is
    coerced to plain JSON structures (see :func:`_json_value`), so the
    dict serialises as-is and is safe to ship across process boundaries
    (the sweep runner pickles it through a queue).
    """
    return {
        "experiment": result.experiment,
        "scale": result.scale,
        "summary": _json_value(dict(result.summary)),
        "series": _json_value(dict(result.series)),
        # declared Dict[str, bool], but experiments routinely store
        # numpy bools -- normalise at the boundary
        "verdicts": {str(k): bool(v) for k, v in result.verdicts.items()},
        "notes": [str(n) for n in result.notes],
        "all_verdicts_hold": result.all_verdicts_hold(),
    }


def output_path(directory: str, experiment: str, scale: str) -> str:
    """Canonical loose-file location: ``DIR/EXP_<experiment>_<scale>.json``."""
    return os.path.join(directory, f"EXP_{experiment}_{scale}.json")


def save_payload(payload: Dict[str, Any], directory: str) -> str:
    """Write a :func:`result_to_dict` payload to its canonical path;
    returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = output_path(directory, payload["experiment"], payload["scale"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_table(
    title: str,
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) for c in cols
    }
    lines = [title]
    lines.append("  ".join(c.ljust(widths[c]) for c in cols))
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(
            "  ".join(_fmt(r.get(c, "")).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3f}"
    return str(v)
