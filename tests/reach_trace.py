#!/usr/bin/env python
"""Reach trace: the ``src/`` functions that no entry point ever runs.

Runs every way the package is used outside ``tests/`` -- all twelve
experiments through two sweep workers (and one in-process), every
``run-*`` command with faults, mirrors, erasure codes, healing, telemetry
and the sanitizer, ``analyze``, every ``store`` verb, the determinism
linter, the six examples, the ``benchmarks/`` smoke suite and the
end-to-end benchmark's self-tests -- each as its own Python process, and
prints every function defined under ``src/`` that none of them executed,
one ``module:qualname`` per line, outermost first (a function nested in
an unreached one is not listed again).  A function listed here is reached
from ``tests/`` alone, or from nothing.

How: each process is started with a generated ``sitecustomize`` first on
``PYTHONPATH``.  It installs a ``sys.settrace`` hook that records the
code object of every frame entered (generator resumes included), and
writes the ones under ``src/`` to a file when the process exits --
through ``atexit``, or through ``os._exit`` for the sweep's forked
workers.  Child processes inherit the environment, so the end-to-end
benchmark's workers are traced too.

It runs every experiment and the benchmark suite, so it stays out of the
test suite (pytest does not collect it); expect ~5 minutes on two
cores::

    PYTHONPATH=src python tests/reach_trace.py

Writes nothing under the repository: run stores, traces and saved
experiments go to a temporary directory.  An entry point that exits
non-zero stopped early and reached less than it should; its exit code
and the tail of its output are printed to stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

HOOK = textwrap.dedent('''
    import atexit
    import os
    import sys
    import threading
    import time

    _OUT = os.environ.get("REPRO_REACH_OUT")
    _SRC = os.environ.get("REPRO_REACH_SRC", "")
    if _OUT:
        _seen = set()
        _add = _seen.add

        def _trace(frame, event, arg):
            _add(frame.f_code)
            return None

        def _dump():
            sys.settrace(None)
            rows = sorted({
                f"{c.co_filename}\\t{c.co_firstlineno}\\t{c.co_name}"
                for c in list(_seen)
                if c.co_filename.startswith(_SRC)
            })
            name = f"{os.getpid()}-{time.monotonic_ns()}.txt"
            with open(os.path.join(_OUT, name), "w") as fh:
                fh.write("\\n".join(rows))

        _real_exit = os._exit

        def _exit(code):
            _dump()
            _real_exit(code)

        os._exit = _exit
        atexit.register(_dump)
        sys.settrace(_trace)
        threading.settrace(_trace)
''')


def entry_points(work: Path) -> List[Tuple[str, List[str]]]:
    """(label, argv after ``python``) of every traced process."""
    db = str(work / "runs.sqlite")
    ingest_db = str(work / "ingest.sqlite")
    ior_trace = str(work / "ior.npz")
    gcrm_trace = str(work / "gcrm.jsonl")
    run = [sys.executable, "-m", "repro"]
    ior = ["run-ior", "--ntasks", "16", "--block", "32", "--transfer", "1",
           "--reps", "2", "--stripes", "8"]
    points = [
        ("experiments", [sys.executable, "-m", "repro.experiments", "tiny",
                         "--workers", "2", "--save", str(work / "exp2"),
                         "--store", db]),
        ("experiments-inline", run + [
            "experiments", "tiny", "fig1", "fig5", "--workers", "1",
            "--save", str(work / "exp1")]),
        ("sweep-help", run + ["sweep", "--help"]),
        ("run-ior", run + ior + [
            "--machine", "testbox", "--analyze", "--read-back",
            "--save", ior_trace, "--store", db]),
        ("run-ior-faults", run + ior + [
            "--access", "random", "--fault", "stall:3:0.2:1.5",
            "--fault", "degrade:1:0:2:4", "--fault", "mds:0:1:3",
            "--fault", "burst:0:2:5", "--retry", "--replicate", "2",
            "--telemetry", "--analyze", "--store", db]),
        ("run-ior-erasure", run + ior + [
            "--read-back", "--erasure", "4+1", "--fault", "stall:2:0.1:2",
            "--retry", "--heal", "--analyze"]),
        ("run-ior-sanitize", run + ior + ["--sanitize", "--telemetry"]),
        ("run-madbench", run + [
            "run-madbench", "--ntasks", "8", "--matrices", "4", "--matrix",
            "8", "--stripes", "4", "--analyze", "--store", db]),
        ("run-madbench-unique", run + [
            "run-madbench", "--ntasks", "8", "--matrices", "2", "--matrix",
            "4", "--unique", "--sanitize"]),
        ("run-gcrm", run + [
            "run-gcrm", "--ntasks", "64", "--io-tasks", "8", "--align",
            "--meta-agg", "--stripes", "8", "--analyze",
            "--save", gcrm_trace, "--store", db]),
        ("run-facility", run + [
            "run-facility", "--tenants", "vic=checkpoint:4@0",
            "--tenants", "hog=bandwidth-hog:4@0",
            "--tenants", "meta=mds-storm:2@0.5", "--telemetry", "--heal",
            "--analyze", "--store", db]),
        ("run-facility-arrivals", run + [
            "run-facility", "--tenants", "a=ior:4", "--tenants",
            "b=madbench:4", "--tenants", "c=gcrm:8", "--tenants", "d=idle:2",
            "--arrival", "poisson:0.5", "--telemetry", "--victim", "a"]),
        ("analyze-npz", run + ["analyze", ior_trace, "--nranks", "16"]),
        ("analyze-jsonl", run + ["analyze", gcrm_trace]),
        ("store-ingest", run + [
            "store", "ingest", str(ROOT / "benchmarks" / "results"),
            str(work / "exp2"), "--db", ingest_db]),
        ("store-report", run + ["store", "report", "--db", ingest_db]),
        ("store-regressions", run + ["store", "regressions", "--db",
                                     ingest_db]),
        ("store-query", run + ["store", "query", "--db", db, "--kind",
                               "experiment", "--require", "12", "--json"]),
        ("check-baselines", [sys.executable,
                             str(ROOT / "benchmarks" / "check_baselines.py"),
                             "--store", db]),
        ("lint", [sys.executable, "-m", "repro.analysis.lint",
                  str(SRC)]),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"example-{example.stem}",
                       [sys.executable, str(example)]))
    points += [
        ("e2e-check", [sys.executable, str(ROOT / "e2ebench" / "check.py")]),
        ("e2e", [sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", str(ROOT / "e2ebench" / "test_e2e.py")]),
        ("benchmarks", [sys.executable, "-m", "pytest", "-q", "-p",
                        "no:cacheprovider", "--benchmark-disable",
                        str(ROOT / "benchmarks")]),
    ]
    return points


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const
            yield from _code_objects(const)


def defined_functions() -> Dict[Tuple[str, int, str], Tuple[str, int, str]]:
    """(file, first line, name) -> (module, lines, qualname) of every
    named function under ``src/``, outer functions before nested ones."""
    out: Dict[Tuple[str, int, str], Tuple[str, int, str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in _code_objects(top):
            if code.co_name.startswith("<"):
                continue  # comprehensions, lambdas, generator expressions
            if not code.co_flags & 0x0001:
                continue  # a class body (no CO_OPTIMIZED): runs at import
            lines = [ln for _s, _e, ln in code.co_lines() if ln is not None]
            span = max(lines, default=code.co_firstlineno)
            qualname = getattr(code, "co_qualname", code.co_name)
            out[(str(path), code.co_firstlineno, code.co_name)] = (
                module, span - code.co_firstlineno + 1, qualname)
    return out


def run_traced(points, work: Path) -> Set[Tuple[str, int, str]]:
    hook_dir = work / "hook"
    out_dir = work / "reached"
    hook_dir.mkdir()
    out_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
    env["REPRO_REACH_OUT"] = str(out_dir)
    env["REPRO_REACH_SRC"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for label, argv in points:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=work, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        print(f"{label:24s} exit {proc.returncode}  "
              f"{time.perf_counter() - t0:6.1f} s", file=sys.stderr)
        if proc.returncode != 0:
            print(textwrap.indent(proc.stdout[-2000:], "    "),
                  file=sys.stderr)
    reached: Set[Tuple[str, int, str]] = set()
    for dump in out_dir.iterdir():
        for row in dump.read_text(encoding="utf-8").splitlines():
            filename, line, name = row.split("\t")
            reached.add((filename, int(line), name))
    return reached


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        reached = run_traced(entry_points(work), work)
    functions = defined_functions()
    unreached = sorted(
        (key for key in functions if key not in reached),
        key=lambda k: (functions[k][0], k[1]),
    )
    # drop functions nested in an unreached function of the same file
    listed: List[Tuple[str, int, str]] = []
    for key in unreached:
        module, _lines, qualname = functions[key]
        if any(functions[o][0] == module
               and qualname.startswith(functions[o][2] + ".<locals>.")
               for o in listed):
            continue
        listed.append(key)
    total = 0
    for key in listed:
        module, lines, qualname = functions[key]
        total += lines
        print(f"{module}:{qualname}  ({lines} lines)")
    print(f"{len(listed)} unreached functions, {total} lines, of "
          f"{len(functions)} functions under src/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
