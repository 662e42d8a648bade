"""Unit tests for the simulated MPI runtime and collectives."""

import pytest

from repro.mpi.comm import Communicator, Interconnect, MpiError
from repro.mpi.runtime import World


class TestBarrier:
    def test_all_ranks_wait_for_slowest(self):
        w = World(nranks=4)
        arrivals = []

        def fn(ctx):
            yield ctx.engine.timeout(ctx.rank * 1.0)
            yield from ctx.comm.barrier()
            arrivals.append((ctx.rank, ctx.now))

        w.run(fn)
        assert all(t == 3.0 for _r, t in arrivals)

    def test_multiple_barriers_in_sequence(self):
        w = World(nranks=3)

        def fn(ctx):
            for i in range(5):
                yield ctx.engine.timeout(0.5 if ctx.rank == 0 else 0.1)
                yield from ctx.comm.barrier()
            return ctx.now

        results = w.run(fn)
        assert results == [2.5] * 3


class TestCollectives:
    def test_gather_only_root_receives(self):
        w = World(nranks=4)

        def fn(ctx):
            got = yield from ctx.comm.gather(ctx.rank * 10, root=1)
            return got

        results = w.run(fn)
        assert results[1] == [0, 10, 20, 30]
        assert results[0] is None and results[2] is None

    def test_split_builds_subcommunicators(self):
        w = World(nranks=6)

        def fn(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            members = yield from sub.gather(ctx.rank, root=0)
            return (sub.size, sub.rank, members)

        results = w.run(fn)
        assert results[0] == (3, 0, [0, 2, 4])
        assert results[1] == (3, 0, [1, 3, 5])
        assert results[5] == (3, 2, None)

    def test_collective_order_mismatch_detected(self):
        w = World(nranks=2)

        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier()
            else:
                yield from ctx.comm.gather("x", root=0)

        with pytest.raises(MpiError, match="mismatch"):
            w.run(fn)

    def test_root_mismatch_detected(self):
        w = World(nranks=2)

        def fn(ctx):
            got = yield from ctx.comm.gather("x", root=ctx.rank)
            return got

        with pytest.raises(MpiError, match="root mismatch"):
            w.run(fn)


class TestInterconnectCosts:
    def test_zero_cost_default(self):
        ic = Interconnect()
        assert ic.collective_cost(1024, 1e9) == 0.0

    def test_alpha_beta_model(self):
        ic = Interconnect(latency=1e-6, bandwidth=1e9)
        # 1024 ranks -> 10 latency steps
        assert ic.collective_cost(1024, 0.0) == pytest.approx(10e-6)

    def test_costs_advance_simulated_time(self):
        w = World(nranks=2, interconnect=Interconnect(latency=0.5))

        def fn(ctx):
            yield from ctx.comm.barrier()
            return ctx.now

        results = w.run(fn)
        assert all(t >= 0.5 for t in results)


class TestWorld:
    def test_rank_return_values_in_order(self):
        w = World(nranks=5)

        def fn(ctx):
            yield ctx.engine.timeout((5 - ctx.rank) * 0.1)
            return ctx.rank * 2

        assert w.run(fn) == [0, 2, 4, 6, 8]

    def test_deadlock_detection(self):
        w = World(nranks=2)

        def fn(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier()  # rank 1 never arrives
            else:
                yield ctx.engine.event()  # never triggered

        with pytest.raises(RuntimeError, match="never finished"):
            w.run(fn)

    def test_extras_factory_injects_context(self):
        w = World(nranks=2)
        w.set_extras_factory(lambda rank: {"payload": rank * 100})

        def fn(ctx):
            yield ctx.engine.timeout(0)
            return ctx.payload

        assert w.run(fn) == [0, 100]

    def test_missing_extra_raises_attribute_error(self):
        w = World(nranks=1)

        def fn(ctx):
            yield ctx.engine.timeout(0)
            with pytest.raises(AttributeError):
                _ = ctx.nonexistent
            return True

        assert w.run(fn) == [True]

    def test_elapsed_is_last_rank_finish(self):
        w = World(nranks=3)

        def fn(ctx):
            yield ctx.engine.timeout(float(ctx.rank))
            return None

        w.run(fn)
        assert w.elapsed == 2.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            World(nranks=0)
        with pytest.raises(ValueError):
            Communicator(World(nranks=1).engine, 0)
