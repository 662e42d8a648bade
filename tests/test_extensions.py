"""Tests for the extension surface: AnyOf, trace storage, CLI, H5Part
read-back, and the bootstrap CIs of ``tests/bootstrap.py``."""

import numpy as np
import pytest

from repro.apps.h5part import H5PartFile
from repro.apps.harness import SimJob
from repro.cli import main as cli_main
from repro.ensembles.distribution import EmpiricalDistribution
from repro.ipm.events import Trace
from repro.ipm.storage import load_trace, save_trace
from repro.iosys.machine import MachineConfig, MiB
from repro.sim.engine import Engine, SimulationError
from tests.bootstrap import bootstrap_ci


class TestAnyOf:
    def test_first_wins(self, engine):
        def proc():
            idx, value = yield engine.any_of(
                [engine.timeout(5, value="slow"), engine.timeout(2, value="quick")]
            )
            return (idx, value, engine.now)

        p = engine.process(proc())
        engine.run()
        assert p.value == (1, "quick", 2.0)

    def test_timeout_race_pattern(self, engine):
        work = engine.event()

        def worker():
            yield engine.timeout(10)
            if not work.triggered:
                work.succeed("done")

        def watcher():
            idx, _ = yield engine.any_of([work, engine.timeout(3)])
            return "timed out" if idx == 1 else "completed"

        engine.process(worker())
        w = engine.process(watcher())
        engine.run()
        assert w.value == "timed out"

    def test_failure_propagates(self, engine):
        bad = engine.event()

        def proc():
            try:
                yield engine.any_of([bad, engine.timeout(10)])
            except ValueError:
                return "failed"

        p = engine.process(proc())
        bad.fail(ValueError("x"))
        engine.run()
        assert p.value == "failed"

    def test_empty_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.any_of([])

    def test_later_completions_ignored(self, engine):
        def proc():
            evs = [engine.timeout(1), engine.timeout(2)]
            got = yield engine.any_of(evs)
            yield engine.timeout(5)  # both have fired by now
            return got[0]

        p = engine.process(proc())
        engine.run()
        assert p.value == 0


def sample_trace():
    tr = Trace()
    tr.record(0, "write", "/a", 3, 0, 1024, 0.0, 1.5, phase="p0")
    tr.record(1, "pread", "/a", 4, 2048, 512, 1.0, 0.25, degraded=True)
    tr.record(0, "open", "/b", 5, 0, 0, 2.0, 0.01)
    return tr


class TestTraceStorage:
    @pytest.mark.parametrize("suffix", [".npz", ".jsonl"])
    def test_roundtrip_exact(self, tmp_path, suffix):
        tr = sample_trace()
        p = tmp_path / f"trace{suffix}"
        save_trace(tr, p)
        back = load_trace(p)
        assert len(back) == len(tr)
        for i in range(len(tr)):
            assert back[i] == tr[i]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(sample_trace(), tmp_path / "t.csv")
        with pytest.raises(ValueError):
            load_trace(tmp_path / "t.csv")

    def test_empty_trace_roundtrip(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        save_trace(Trace(), p)
        assert len(load_trace(p)) == 0

    def test_npz_numeric_columns_preserved(self, tmp_path):
        tr = sample_trace()
        p = tmp_path / "t.npz"
        save_trace(tr, p)
        back = load_trace(p)
        assert np.array_equal(back.durations, tr.durations)
        assert np.array_equal(back.offsets, tr.offsets)
        assert np.array_equal(back.degraded_flags, tr.degraded_flags)


class TestCli:
    def test_run_ior_and_analyze(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.npz")
        rc = cli_main([
            "run-ior", "--ntasks", "8", "--block", "8", "--transfer", "4",
            "--reps", "2", "--machine", "testbox", "--save", trace_file,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "##IPM-I/O" in out and "IOR data rate" in out

        rc = cli_main(["analyze", trace_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "I/O ensemble analysis" in out

    def test_run_madbench(self, capsys):
        rc = cli_main([
            "run-madbench", "--ntasks", "4", "--matrices", "2",
            "--matrix", "4", "--machine", "testbox", "--stripes", "2",
        ])
        assert rc == 0
        assert "degraded reads" in capsys.readouterr().out

    def test_run_gcrm(self, capsys):
        rc = cli_main([
            "run-gcrm", "--ntasks", "8", "--machine", "testbox",
            "--align", "--meta-agg",
        ])
        assert rc == 0
        assert "sustained write rate" in capsys.readouterr().out

    def test_unknown_machine_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["run-ior", "--machine", "bluegene"])


class TestH5PartReadBack:
    def test_read_field_roundtrip(self):
        j = SimJob(MachineConfig.testbox(), 4)

        def fn(ctx):
            f = yield from H5PartFile.open(ctx, "/p.h5")
            yield from f.set_step(0)
            yield from f.write_field("x", MiB, records_per_rank=2)
            results = yield from f.read_field("x", records_per_rank=2)
            yield from f.close()
            return len(results)

        assert j.run(fn).per_rank == [2] * 4
        assert len(j.collector.trace.reads().filter(min_size=MiB)) == 8

    def test_read_unknown_field_raises(self):
        j = SimJob(MachineConfig.testbox(), 2)

        def fn(ctx):
            f = yield from H5PartFile.open(ctx, "/p.h5")
            yield from f.set_step(0)
            with pytest.raises(KeyError):
                yield from f.read_field("missing")
            yield from ctx.comm.barrier()
            return True

        assert all(j.run(fn).per_rank)


class TestBootstrapCi:
    def test_ci_covers_true_mean(self):
        rng = np.random.default_rng(0)
        d = EmpiricalDistribution(rng.normal(10, 2, 400))
        lo, hi = bootstrap_ci(d, np.mean, n_boot=500)
        assert lo < 10 < hi
        assert hi - lo < 1.0

    def test_ci_covers_other_runs_estimate(self):
        """The reproducibility claim with teeth: run A's CI covers run
        B's point estimate."""
        rng = np.random.default_rng(1)
        pop = rng.gamma(2, 3, 100000)
        a = EmpiricalDistribution(rng.choice(pop, 800))
        b = EmpiricalDistribution(rng.choice(pop, 800))
        lo, hi = bootstrap_ci(a, np.median, n_boot=500)
        assert lo <= b.median <= hi

    def test_ci_deterministic_per_seed(self):
        d = EmpiricalDistribution(np.arange(100, dtype=float))
        assert bootstrap_ci(d, seed=5) == bootstrap_ci(d, seed=5)
        assert bootstrap_ci(d, seed=5) != bootstrap_ci(d, seed=6)

    def test_validates_n_boot(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ValueError):
            bootstrap_ci(d, n_boot=3)


class TestCliExperiments:
    def test_experiments_subcommand(self, capsys):
        rc = cli_main(["experiments", "tiny", "saturation"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Saturation sweep" in out
        assert "verdicts" in out

    def test_experiments_unknown_name(self, capsys):
        rc = cli_main(["experiments", "fig99"])
        assert rc == 2
