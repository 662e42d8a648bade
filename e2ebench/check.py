#!/usr/bin/env python3
"""Validate ``BENCHMARK.json`` and the benchmark's own data files.

Run from anywhere; exits 1 listing every problem::

    python3 e2ebench/check.py

- ``BENCHMARK.json`` has exactly the agreed keys, names, units and
  limits; ``setup_s`` carries the largest bound;
- its metrics are exactly the ones ``run.py`` computes, with the same
  units, and its workloads are exactly those of ``spec.json``;
- every workload's experiments exist in ``repro.experiments.
  ALL_EXPERIMENTS`` at a known scale;
- every ``moves`` entry of ``spec.json`` names an existing end-to-end
  metric, per-layer metrics and workloads;
- ``expected.json`` has a seed list and, for the default seeds and every
  listed seed, one digest per experiment of the workload.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}


def check_benchmark(bench: Dict[str, Any], raw_size: int) -> List[str]:
    problems: List[str] = []
    if raw_size > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    if set(bench) != KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(KEYS)}")
        return problems

    paths = bench["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths: 1 to 16 entries")
        paths = []
    for p in paths:
        if not (isinstance(p, str) and PATH.match(p)) or p.startswith("/") \
                or ".." in p.split("/"):
            problems.append(f"paths: bad entry {p!r}")
        elif not (ROOT / p).is_dir():
            problems.append(f"paths: {p} is not a directory")

    command = bench["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    else:
        for arg in command[1:]:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command: {arg!r} leaves the repository")
            elif "/" in arg and not any(
                    arg == p or arg.startswith(p.rstrip("/") + "/")
                    for p in paths):
                problems.append(f"command: {arg!r} is outside paths")

    seconds = bench["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool)
            and 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")

    names: List[str] = []
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    fields = {"workloads": {"name", "why"},
              "end_to_end": {"name", "unit", "better", "bound"},
              "per_layer": {"name", "unit", "better"}}
    for section, (lo, hi) in limits.items():
        entries = bench[section]
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            problems.append(f"{section}: {lo} to {hi} entries")
            continue
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != fields[section]:
                problems.append(f"{section}: {entry!r} needs exactly "
                                f"{sorted(fields[section])}")
                continue
            name = entry["name"]
            names.append(name)
            if not (isinstance(name, str) and NAME.match(name)):
                problems.append(f"{section}: bad name {name!r}")
            if section == "workloads":
                why = entry["why"]
                if not (isinstance(why, str) and 0 < len(why) <= 200
                        and "\n" not in why):
                    problems.append(f"{name}: why must be one line of at "
                                    f"most 200 characters")
                continue
            if not (isinstance(entry["unit"], str) and UNIT.match(entry["unit"])):
                problems.append(f"{name}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("higher", "lower"):
                problems.append(f"{name}: better must be higher or lower")
            if section == "end_to_end":
                bound = entry["bound"]
                if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
                    problems.append(f"{name}: bound must be in (0, 0.25]")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")

    e2e = {m["name"]: m for m in bench["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if setup is None or setup.get("unit") != "s" or setup.get("better") != "lower":
        problems.append("setup_s (unit s, better lower) is required")
    elif any(m.get("bound", 0) > setup["bound"] for m in e2e.values()):
        problems.append("setup_s must carry the largest bound")
    return problems


def check_driver(bench: Dict[str, Any]) -> List[str]:
    """BENCHMARK.json against what run.py computes and spec.json lists."""
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, PER_LAYER

    problems: List[str] = []
    for section, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        if declared != units:
            problems.append(f"{section}: BENCHMARK.json {declared} != run.py "
                            f"{units}")
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    if workloads != list(spec["workloads"]):
        problems.append(f"workloads: BENCHMARK.json {workloads} != spec.json "
                        f"{list(spec['workloads'])}")
    return problems


def check_spec(bench: Dict[str, Any]) -> List[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import ALL_EXPERIMENTS, SCALES

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    problems: List[str] = []
    workloads = spec["workloads"]
    for name, w in workloads.items():
        unknown = [e for e in w["experiments"] if e not in ALL_EXPERIMENTS]
        if unknown or not w["experiments"]:
            problems.append(f"{name}: unknown experiments {unknown}")
        if w["scale"] not in SCALES:
            problems.append(f"{name}: unknown scale {w['scale']!r}")
        ref = expected.get(name, {})
        seeds = ref.get("seeds", [])
        if not seeds:
            problems.append(f"{name}: no seed list in expected.json")
        for key in ["default"] + [str(s) for s in seeds]:
            got = sorted(ref.get("digests", {}).get(key, {}))
            if got != sorted(w["experiments"]):
                problems.append(f"{name}: expected.json digests for {key} "
                                f"cover {got}")

    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    for i, move in enumerate(spec["moves"]):
        if move["metric"] not in e2e:
            problems.append(f"moves[{i}]: no end-to-end metric "
                            f"{move['metric']!r}")
        missing = [m for m in move["layers"] if m not in layers]
        if missing or not move["layers"]:
            problems.append(f"moves[{i}]: no per-layer metrics {missing}")
        if move["direction"] not in ("up", "down"):
            problems.append(f"moves[{i}]: direction must be up or down")
        for w, size in move["effect"].items():
            if w not in workloads:
                problems.append(f"moves[{i}]: no workload {w!r}")
            if size not in ("large", "small"):
                problems.append(f"moves[{i}]: effect must be large or small")
    return problems


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    bench = json.loads(raw)
    problems = check_benchmark(bench, len(raw))
    if not problems:
        problems = check_driver(bench) + check_spec(bench)
    for problem in problems:
        print(problem)
    if not problems:
        print("BENCHMARK.json, spec.json and expected.json are consistent")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
