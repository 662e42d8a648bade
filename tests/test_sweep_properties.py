"""Hypothesis properties of the sweep runner.

Three guarantees, stated as properties rather than examples:

1. the pull queue hands out every unit exactly once, longest first,
   ties in task then plan order, and only once its needs are met;
2. worker-count invariance: the ordered results of a sweep -- the
   ``result_to_dict`` JSON, the ``main()`` text, the saved files and,
   with the host clock pinned, the store contents -- are a pure function
   of the task list, never of the worker count;
3. crash isolation: a unit that raises, or a worker that dies outright
   (``os._exit``), fails only its own task while every other task
   still succeeds.

Worker processes cost real milliseconds, so the process-spawning
properties keep ``max_examples`` low and, apart from the real-experiment
checks at the end, run stand-in experiments of trivial simulations
(``tests/sweep_fakes.py``); the pure queue-order property runs the
default budget.
"""

from __future__ import annotations

import heapq
import json
import os
import sqlite3

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.harness import SimSpec
from repro.experiments import fig1_ior_modes
from repro.store import clock
from repro.store.schema import canonical_json
from repro.sweep import SweepRunner, _Plan, experiment_tasks, run_sweep
from tests.sweep_fakes import (
    FakeExperiment, fake_experiments, hard_crash, poison, square, squares,
)


# -- 1: the pull queue ---------------------------------------------------------

def _fake_spec(i, cost, needs=()):
    return SimSpec("job", square, None, 0, cost=float(cost),
                   label=f"s{i}", needs=tuple(needs),
                   bind=(lambda spec, *_: spec) if needs else None)


@given(costs=st.lists(st.integers(min_value=0, max_value=5), max_size=40))
def test_pull_order_is_a_longest_first_permutation(costs):
    """Every unit is queued once; pops come longest first, equal costs
    in plan order."""
    plan = _Plan(specs=[_fake_spec(i, c) for i, c in enumerate(costs)])
    queued = set()
    ready = plan.ready(0, queued)
    assert plan.ready(0, queued) == []  # nothing is queued twice
    heapq.heapify(ready)
    order = [heapq.heappop(ready)[1][1] for _ in range(len(ready))]
    assert sorted(order) == list(range(len(costs)))
    assert order == sorted(range(len(costs)), key=lambda i: (-costs[i], i))


@given(n=st.integers(min_value=2, max_value=12), data=st.data())
def test_dependent_specs_wait_for_their_needs(n, data):
    """A spec is queued only after every spec it needs has a summary."""
    deps = [
        sorted(data.draw(st.sets(st.integers(0, i - 1), max_size=2)))
        if i else []
        for i in range(n)
    ]
    plan = _Plan(specs=[
        _fake_spec(i, 1, [f"s{d}" for d in deps[i]]) for i in range(n)
    ])
    queued = set()
    ready = [key for _, key in plan.ready(0, queued)]
    while ready:
        _, si = ready.pop(0)
        assert all(d in plan.done for d in deps[si])
        plan.done[si] = {}
        ready += [key for _, key in plan.ready(0, queued)]
    assert sorted(plan.done) == list(range(n))


# -- 2: worker-count invariance ---------------------------------------------

@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    xs=st.lists(
        st.integers(min_value=-100, max_value=100), min_size=1, max_size=8
    ),
    workers=st.integers(min_value=2, max_value=5),
)
def test_results_are_worker_count_invariant(xs, workers):
    """1 worker and N workers produce identical ordered results (modulo
    the diagnostic ``worker`` field)."""
    with fake_experiments(*squares(xs)) as tasks:
        serial = run_sweep(tasks, workers=1)
        parallel = run_sweep(tasks, workers=workers)

    def essence(results):
        return [(r.index, r.task, r.ok, canonical_json(r.payload), r.error,
                 r.text) for r in results]

    assert essence(serial) == essence(parallel)
    assert [r.payload["series"]["values"] for r in parallel] == [
        [x * x] for x in xs
    ]


# -- 3: crash isolation --------------------------------------------------------

@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    prefix=st.lists(
        st.integers(min_value=0, max_value=20), min_size=1, max_size=3
    ),
    suffix=st.lists(
        st.integers(min_value=0, max_value=20), min_size=1, max_size=3
    ),
)
def test_raised_exceptions_do_not_sink_the_shard(prefix, suffix):
    """A task that raises is a recorded failure; tasks before AND after
    it on the same (only) worker still run."""
    fakes = (
        squares(prefix, prefix="pre")
        + [FakeExperiment("bad", [9], poison)]
        + squares(suffix, prefix="post")
    )
    with fake_experiments(*fakes) as tasks:
        results = run_sweep(tasks, workers=1)  # one worker runs them all
    bad = results[len(prefix)]
    assert bad.ok is False
    assert "poisoned task 9" in bad.error
    good = results[: len(prefix)] + results[len(prefix) + 1:]
    assert all(r.ok for r in good)
    assert [r.payload["series"]["values"] for r in good] == [
        [x * x] for x in prefix + suffix
    ]


@settings(
    max_examples=4, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(n_other=st.integers(min_value=2, max_value=6))
def test_dead_worker_is_isolated_and_reported(n_other):
    """A worker that exits without cleanup fails only the unit it was
    running; a fresh worker takes its slot and every other task's
    result arrives intact."""
    fakes = [FakeExperiment("crash", [0], hard_crash)] + squares(
        range(n_other)
    )
    with fake_experiments(*fakes) as tasks:
        results = run_sweep(tasks, workers=2)

    assert len(results) == len(tasks)
    assert results[0].ok is False
    assert "died" in results[0].error
    for res in results[1:]:
        assert res.ok, res.error
        assert res.payload["series"]["values"] == [(res.index - 1) ** 2]


# -- experiments: simulations are the unit of work ---------------------------

#: one experiment per kind of plan: independent app runs (fig1, fig6),
#: a spec that needs an earlier summary (faults) and a facility (selfheal)
_EXPERIMENTS = ["fig1", "fig6", "faults", "selfheal"]
STAMP = "2026-01-01T00:00:00Z"


def _experiment_sweep(tmp_path, workers):
    save = tmp_path / f"save{workers}"
    db = tmp_path / f"store{workers}.sqlite"
    results = SweepRunner(
        experiment_tasks(_EXPERIMENTS, "tiny"), workers=workers,
        store_path=str(db), save_dir=str(save), created_at=STAMP,
    ).run()
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    with sqlite3.connect(str(db)) as conn:
        rows = sorted(r[1:] for r in conn.execute("SELECT * FROM runs"))
    files = {p.name: p.read_bytes() for p in sorted(save.iterdir())}
    return (
        [(canonical_json(r.payload), r.text) for r in results], rows, files
    )


def test_experiment_sweep_is_worker_count_invariant(tmp_path, monkeypatch):
    """JSON, ``main()`` text, saved files and store rows are identical
    for 1, 2 and 4 workers, and match the serial ``run()``.  The host
    clock is pinned, as ``STAMP`` pins ``created_at``: real timings make
    ``wall_time`` and the ``wall_s`` metric differ from run to run."""
    monkeypatch.setattr(clock, "host_seconds", lambda: 0.0)
    serial = _experiment_sweep(tmp_path, 1)
    assert _experiment_sweep(tmp_path, 2) == serial
    assert _experiment_sweep(tmp_path, 4) == serial
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import result_to_dict

    module = ALL_EXPERIMENTS["faults"]
    direct = module.run("tiny")
    assert serial[0][2] == (
        canonical_json(result_to_dict(direct)),
        module.main("tiny", result=direct),
    )
    assert len(serial[1]) == len(serial[2]) == len(_EXPERIMENTS)


def _poisoned_summarise(kill):
    real = fig1_ior_modes.summarise

    def summarise(spec, res):
        if spec.label == "scratch2":
            if kill:
                os._exit(3)
            raise ValueError("poisoned spec scratch2")
        return real(spec, res)

    return summarise


def test_poisoned_spec_fails_only_its_experiment(monkeypatch):
    """A spec that raises -- or kills its worker -- fails its own
    experiment; the other experiments' results equal a clean sweep's.
    Workers are forked, so the patched ``summarise`` reaches them."""
    tasks = experiment_tasks(["fig1", "fig2", "faults"], "tiny")
    clean = run_sweep(tasks, workers=2)
    for kill, message in ((False, "poisoned spec scratch2"), (True, "died")):
        with monkeypatch.context() as m:
            m.setattr(fig1_ior_modes, "summarise", _poisoned_summarise(kill))
            results = run_sweep(tasks, workers=2)
        assert results[0].ok is False
        assert message in results[0].error
        for got, want in zip(results[1:], clean[1:]):
            assert got.ok, got.error
            assert json.dumps(got.payload, sort_keys=True) == json.dumps(
                want.payload, sort_keys=True
            )
            assert got.text == want.text
