"""Stand-in experiments for the sweep tests.

A :class:`FakeExperiment` quacks like an experiment module: its plan is
one trivial ``app`` spec per value, so a test picks what each simulation
returns, raises or does to its worker without paying for a real one.
:func:`fake_experiments` registers fakes in ``ALL_EXPERIMENTS`` for a
block; sweep workers are forked, so they see the same registry.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from unittest import mock

from repro.apps.harness import SimSpec
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import ExperimentResult
from repro.sweep import SweepTask

# -- apps: ``simulate`` calls ``app(config, seed=seed)`` in a worker ----------


def square(x, seed):
    return x * x


def poison(x, seed):
    raise ValueError(f"poisoned task {x}")


def hard_crash(x, seed):
    # simulate a segfault: no exception, no cleanup, no sentinel
    os._exit(3)


def unpicklable(x, seed):
    return lambda: None


class FakeExperiment:
    """Experiment ``name``: one spec per value, run by ``app``; reduce
    lists the results in plan order."""

    def __init__(self, name, values, app=square):
        self.name = name
        self.values = list(values)
        self.app = app

    def plan(self, scale):
        return [
            SimSpec("app", self.app, x, 0, cost=1.0, label=f"v{i}")
            for i, x in enumerate(self.values)
        ]

    def summarise(self, spec, result):
        return {"value": result}

    def reduce(self, scale, summaries):
        values = [s["value"] for s in summaries.values()]
        return ExperimentResult(
            self.name, scale, summary={"total": float(sum(values))},
            series={"values": values}, verdicts={"ran": True},
        )

    def main(self, scale, result):
        return f"{self.name}@{scale}: {result.series['values']}"


@contextmanager
def fake_experiments(*fakes):
    """Register ``fakes`` for the block and yield one ``tiny`` task per
    fake, in the order given."""
    with mock.patch.dict(ALL_EXPERIMENTS, {f.name: f for f in fakes}):
        yield [SweepTask(f.name, "tiny") for f in fakes]


def squares(xs, app=square, prefix="sq"):
    """One single-spec fake per value of ``xs``."""
    return [FakeExperiment(f"{prefix}{i}", [x], app) for i, x in enumerate(xs)]
