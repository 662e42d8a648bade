"""Unit tests for machine configuration, the job harness, and the
experiment runner plumbing."""

import gc

import pytest

from repro.apps.harness import AppResult, SimJob
from repro.experiments.runner import ExperimentResult, format_table
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import GiB, KiB, MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR
from repro.iosys.scheduler import Facility, TenantJob
from repro.mpi.comm import Interconnect


class TestMachineConfig:
    def test_presets_have_paper_topologies(self):
        f = MachineConfig.franklin()
        assert f.n_osts == 48  # 24 OSS x 2 OST
        assert f.tasks_per_node == 4  # quad-core XT4
        assert f.strided_readahead is True  # the bug is present
        j = MachineConfig.jaguar()
        assert j.n_osts == 144  # 72 OSS x 2 OST
        assert j.strided_readahead is False

    def test_patched_franklin_differs_only_in_readahead(self):
        a = MachineConfig.franklin()
        b = MachineConfig.franklin_patched()
        assert a.strided_readahead and not b.strided_readahead
        assert a.with_overrides(strided_readahead=False) == b

    def test_with_overrides_does_not_mutate_preset(self):
        a = MachineConfig.franklin()
        b = a.with_overrides(fs_bw=1.0 * GiB)
        assert a.fs_bw != b.fs_bw
        assert MachineConfig.franklin().fs_bw == a.fs_bw

    def test_fair_share_arithmetic(self):
        f = MachineConfig.franklin()
        # the paper: ~16 MB/s fair share for 1024 tasks of a 16 GB/s system
        assert f.fair_share_per_task(1024) == pytest.approx(16 * MiB)

    def test_node_share_capped_by_client(self):
        f = MachineConfig.franklin()
        assert f.node_share(1) == f.client_bw
        assert f.node_share(1024) == pytest.approx(f.fs_bw / 1024)
        assert f.node_share(0) == f.node_share(1)

    def test_nodes_for_rounds_up(self):
        f = MachineConfig.franklin()
        assert f.nodes_for(1) == 1
        assert f.nodes_for(4) == 1
        assert f.nodes_for(5) == 2

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MachineConfig(tasks_per_node=0)
        with pytest.raises(ValueError):
            MachineConfig(stripe_size=0)
        with pytest.raises(ValueError):
            MachineConfig(discipline_weights={})
        with pytest.raises(ValueError):
            MachineConfig(discipline_weights={0: 1.0})
        with pytest.raises(ValueError):
            MachineConfig(ost_slowdown={999: 2.0})
        with pytest.raises(ValueError):
            MachineConfig(ost_slowdown={0: 0.5})

    def test_rejects_negative_interconnect_latency(self):
        with pytest.raises(ValueError, match="interconnect latency"):
            MachineConfig(interconnect=Interconnect(latency=-1e-6))

    @pytest.mark.parametrize("bandwidth", [0.0, -1.6e9])
    def test_rejects_non_positive_interconnect_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="interconnect bandwidth"):
            MachineConfig(interconnect=Interconnect(bandwidth=bandwidth))

    @pytest.mark.parametrize("delay", [0.0, -30.0])
    def test_rejects_non_positive_writeback_delay(self, delay):
        with pytest.raises(ValueError, match="writeback_delay"):
            MachineConfig.testbox(writeback_delay=delay)

    def test_units(self):
        assert KiB == 1024 and MiB == 1024**2 and GiB == 1024**3


class TestSimJob:
    def test_extras_exposed_on_context(self):
        job = SimJob(MachineConfig.testbox(), 2)

        def fn(ctx):
            yield ctx.engine.timeout(0)
            assert ctx.machine.name == "testbox"
            assert ctx.iosys is job.iosys
            assert ctx.collector is job.collector
            assert ctx.io.rank == ctx.rank
            return True

        assert job.run(fn).per_rank == [True, True]

    def test_result_fields(self):
        job = SimJob(MachineConfig.testbox(), 3)

        def fn(ctx):
            fd = yield from ctx.io.open(f"/f{ctx.rank}", O_CREAT | O_RDWR)
            yield from ctx.io.pwrite(fd, 1024, 0)
            yield from ctx.io.close(fd)
            return ctx.rank

        result = job.run(fn)
        assert isinstance(result, AppResult)
        assert result.ntasks == 3
        assert result.per_rank == [0, 1, 2]
        assert result.total_bytes == 3 * 1024
        assert result.elapsed > 0

    def test_seed_controls_rng(self):
        def run(seed):
            job = SimJob(
                MachineConfig.testbox(noise_sigma=0.3, dirty_quota=0.0),
                4,
                seed=seed,
            )

            def fn(ctx):
                fd = yield from ctx.io.open(
                    f"/f{ctx.rank}", O_CREAT | O_RDWR
                )
                res = yield from ctx.io.pwrite(fd, 4 * MiB, 0)
                return res.duration

            return job.run(fn).per_rank

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_profile_mode_passthrough(self):
        job = SimJob(MachineConfig.testbox(), 2, ipm_mode="profile")

        def fn(ctx):
            fd = yield from ctx.io.open(f"/f{ctx.rank}", O_CREAT | O_RDWR)
            yield from ctx.io.pwrite(fd, 1024, 0)
            yield from ctx.io.close(fd)
            return None

        result = job.run(fn)
        assert len(result.trace) == 0
        assert result.collector.profile.total_events() == 6

    def test_finished_jobs_leave_no_cyclic_garbage(self):
        """A solo job, a two-tenant facility and a self-healing job form
        no reference cycles: once their results are dropped, reference
        counting alone frees them, so peak memory never waits on a gen-2
        collection."""

        def writer(ctx):
            fd = yield from ctx.io.open(f"/f{ctx.rank}", O_CREAT | O_RDWR)
            for i in range(4):
                yield from ctx.io.pwrite(fd, MiB, i * MiB)
            yield from ctx.io.pread(fd, MiB, 0)
            yield from ctx.io.close(fd)
            yield from ctx.comm.barrier()
            return None

        def solo():
            res = SimJob(MachineConfig.testbox(), 4, seed=3).run(writer)
            assert res.total_bytes == 4 * 5 * MiB

        def facility():
            res = Facility(
                MachineConfig.shared_testbox(),
                [
                    TenantJob("vic", "checkpoint", 2, params={"nfiles": 3}),
                    TenantJob("meta", "mds-storm", 2, arrival=0.1,
                              params={"nfiles": 2}),
                ],
                seed=7,
            ).run()
            assert len(res.jobs) == 2

        def healed():
            # heal on, and a stall it acts on: the monitor hooks into the
            # telemetry collector and the MDS, and must unhook at the end
            stall = FaultSchedule.of(FaultWindow(STALL, 0.0, 0.5, device=1))
            machine = MachineConfig.testbox(
                replica_count=2, client_retry=True, telemetry=True,
                heal=True, faults=stall,
            )
            res = SimJob(machine, 4, seed=3).run(writer)
            assert res.meta["heal_quarantines"] > 0

        for run in (solo, facility, healed):
            gc.collect()
            gc.disable()
            try:
                run()
                assert gc.collect() == 0, run.__name__
            finally:
                gc.enable()


class TestExperimentResult:
    def test_all_verdicts_hold(self):
        r = ExperimentResult("x", "small", verdicts={"a": True, "b": True})
        assert r.all_verdicts_hold()
        r.verdicts["c"] = False
        assert not r.all_verdicts_hold()

    def test_format_table_alignment(self):
        text = format_table(
            "title",
            [{"name": "a", "v": 1.23456}, {"name": "bb", "v": 0.0}],
        )
        lines = text.splitlines()
        assert lines[0] == "title"
        assert len(set(len(ln) for ln in lines[1:])) <= 2  # aligned columns

    def test_format_table_explicit_columns(self):
        text = format_table("t", [{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[1]


class TestBackgroundLoad:
    def test_available_fraction_schedule(self):
        m = MachineConfig.testbox(
            background_load=((10.0, 20.0, 0.5), (15.0, 30.0, 0.25))
        )
        assert m.available_fraction(0.0) == 1.0
        assert m.available_fraction(12.0) == 0.5
        assert m.available_fraction(17.0) == 0.5   # strongest overlap wins
        assert m.available_fraction(25.0) == 0.75
        assert m.available_fraction(30.0) == 1.0   # half-open interval

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(background_load=((5.0, 5.0, 0.5),))
        with pytest.raises(ValueError):
            MachineConfig(background_load=((0.0, 1.0, 1.0),))

    def test_interference_slows_io_during_interval(self):
        def run(load):
            machine = MachineConfig.testbox(
                dirty_quota=0.0, background_load=load
            )
            job = SimJob(machine, 2)

            def fn(ctx):
                fd = yield from ctx.io.open(
                    f"/f{ctx.rank}", O_CREAT | O_RDWR
                )
                res = yield from ctx.io.pwrite(fd, 20 * 1024 * 1024, 0)
                yield from ctx.io.close(fd)
                return res.duration

            return job.run(fn).per_rank

        clean = run(())
        loaded = run(((0.0, 1e9, 0.6),))
        for c, l in zip(clean, loaded):
            assert l > 2.0 * c  # 60% taken -> ~2.5x slower
