"""Differential test: the shared rank kernels against the private copies
they replaced.

The resilience experiments once carried eight rank functions of their
own.  They are frozen below, verbatim, as the reference.  Each runs next
to the library call that replaced it (:func:`~repro.iosys.scheduler.
shared_write`, :func:`~repro.iosys.scheduler.fpt_write_read` or the
``checkpoint`` workload), on that experiment's machine at ``tiny``
sizes, healthy and under a transient STALL.  The trace digest, the
elapsed time to the bit and the retry, failover and reconstruction
counts must all agree.
"""

from __future__ import annotations

import pytest

from repro.apps.harness import SimJob
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import GiB, MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, O_SYNC, O_WRONLY
from repro.iosys.scheduler import (
    WORKLOADS,
    fpt_write_read,
    shared_write,
)
from repro.store.capture import trace_digest

# ---------------------------------------------------------------------------
# frozen reference kernels
# ---------------------------------------------------------------------------


def _faults_writer(ctx, nrec: int, path: str, stripe_count: int):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, stripe_count)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    base = ctx.rank * nrec * MiB
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, base + j * MiB)
    yield from ctx.io.close(fd)
    return None


def _saturation_writer(ctx, nbytes: int, path: str, stripe_count: int):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, stripe_count)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    yield from ctx.comm.barrier()
    yield from ctx.io.pwrite(fd, nbytes, ctx.rank * nbytes)
    yield from ctx.comm.barrier()
    yield from ctx.io.close(fd)
    return None


def _telemetry_shared_writer(ctx, nrec: int, path: str):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    base = ctx.rank * nrec * MiB
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, base + j * MiB)
    yield from ctx.io.close(fd)
    return None


def _selfheal_shared_writer(ctx, nrec, path):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, 8)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    base = ctx.rank * nrec * int(MiB)
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, int(MiB), base + j * int(MiB))
    yield from ctx.io.close(fd)
    return None


def _failover_worker(ctx, nrec: int, base: str):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, j * MiB)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(nrec):
        yield from ctx.io.pread(fd, MiB, j * MiB)
    yield from ctx.io.close(fd)
    return None


def _erasure_worker(ctx, nrec: int, base: str):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, 4 * MiB, j * 4 * MiB)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(nrec * 4):
        yield from ctx.io.pread(fd, MiB, j * MiB)
    yield from ctx.io.close(fd)
    return None


def _telemetry_fpt_worker(ctx, nrec: int, base: str):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, j * MiB)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(nrec):
        yield from ctx.io.pread(fd, MiB, j * MiB)
    yield from ctx.io.close(fd)
    return None


def _interference_solo_checkpoint(ctx, nfiles: int):
    rec = int(MiB)
    for i in range(nfiles):
        path = f"/scratch/victim/ckpt{ctx.rank}_{i}.dat"
        fd = yield from ctx.io.open(path, O_CREAT | O_WRONLY | O_SYNC)
        ctx.io.region("write")
        yield from ctx.io.pwrite(fd, rec, 0)
        yield from ctx.io.close(fd)
    return nfiles * rec


# ---------------------------------------------------------------------------
# the experiments' machines, as each wrote its recipe out
# ---------------------------------------------------------------------------


def _resilience_recipe(**overrides) -> MachineConfig:
    return MachineConfig.testbox(
        n_osts=16,
        fs_bw=2048 * MiB,
        fs_read_bw=2048 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        failover_probe_interval=0.5,
        **overrides,
    )


_FAULTS = MachineConfig.testbox(
    n_osts=16, fs_bw=2048 * MiB, discipline_weights={4: 1.0}
)
_SATURATION = MachineConfig.franklin(
    discipline_weights={4: 1.0}
).with_overrides(fs_bw=1.6 * GiB)
_SELFHEAL = MachineConfig.testbox(
    n_osts=16, fs_bw=2048 * MiB
).with_overrides(
    replica_count=2, client_retry=True, client_failover=True, telemetry=True
)
_FAILOVER = _resilience_recipe(replica_count=2)
_ERASURE = _resilience_recipe(client_bw=800 * MiB, ec_k=4, ec_m=1)
_TELEMETRY = _resilience_recipe(client_failover=True, telemetry=True)
_TELEMETRY_MIRROR = _resilience_recipe(
    client_failover=True, telemetry=True, replica_count=2
)
_INTERFERENCE = MachineConfig.shared_testbox()

_checkpoint = WORKLOADS["checkpoint"]

#: case -> (machine, ntasks, (old kernel, args), (library kernel, args))
_CASES = {
    "faults": (
        _FAULTS, 8,
        (_faults_writer, (60, "/scratch/h.dat", 16), {}),
        (shared_write, ("/scratch/h.dat", 60, MiB, 16), {}),
    ),
    "saturation": (
        _SATURATION, 8,
        (_saturation_writer, (64 * MiB, "/scratch/sat8.dat", 48), {}),
        (shared_write, ("/scratch/sat8.dat", 1, 64 * MiB, 48),
         {"fence": True}),
    ),
    "telemetry-shared": (
        _TELEMETRY, 8,
        (_telemetry_shared_writer, (16, "/scratch/tel.dat"), {}),
        (shared_write, ("/scratch/tel.dat", 16, MiB, 16), {}),
    ),
    "selfheal": (
        _SELFHEAL, 16,
        (_selfheal_shared_writer, (60, "/scratch/selfheal.dat"), {}),
        (shared_write, ("/scratch/selfheal.dat", 60, MiB, 8), {}),
    ),
    "failover": (
        _FAILOVER, 16,
        (_failover_worker, (12, "/scratch/mirror"), {}),
        (fpt_write_read, ("/scratch/mirror", 12, MiB, MiB, 4), {}),
    ),
    "erasure": (
        _ERASURE, 16,
        (_erasure_worker, (3, "/scratch/ec"), {}),
        (fpt_write_read, ("/scratch/ec", 3, 4 * MiB, MiB, 4), {}),
    ),
    "telemetry-fpt": (
        _TELEMETRY_MIRROR, 8,
        (_telemetry_fpt_worker, (16, "/scratch/mir"), {}),
        (fpt_write_read, ("/scratch/mir", 16, MiB, MiB, 4), {}),
    ),
    "interference": (
        _INTERFERENCE, 4,
        (_interference_solo_checkpoint, (24,), {}),
        (_checkpoint, (24,), {"directory": "/scratch/victim"}),
    ),
}


def _run(machine, ntasks, kernel):
    fn, args, kwargs = kernel
    res = SimJob(machine, ntasks, seed=5).run(fn, *args, **kwargs)
    return {
        "digest": trace_digest(res.trace),
        "elapsed": res.elapsed.hex(),
        "per_rank": res.per_rank,
        **{k: res.meta[k] for k in ("retries", "failovers",
                                    "reconstructions")},
    }


#: fault -> stall window as fractions of the healthy elapsed time: an
#: early stall catches the writes (a streaming writer issues all of its
#: RPCs at once), a late one the read-back of the write-then-read kernels
_STALLS = {"healthy": None, "stall": (0.0, 0.6), "late-stall": (0.5, 0.9)}


def _stalled(machine, ntasks, kernel, window) -> MachineConfig:
    """The same machine with one OST stalled over ``window`` of the
    healthy run."""
    fn, args, kwargs = kernel
    elapsed = SimJob(machine, ntasks, seed=5).run(fn, *args, **kwargs).elapsed
    stall = FaultWindow(
        STALL, window[0] * elapsed, window[1] * elapsed,
        device=5 % machine.n_osts,
    )
    return machine.with_overrides(faults=FaultSchedule.of(stall))


@pytest.mark.parametrize("fault", sorted(_STALLS))
@pytest.mark.parametrize("case", sorted(_CASES))
def test_library_kernel_matches_frozen_copy(case, fault):
    machine, ntasks, old, new = _CASES[case]
    if _STALLS[fault] is not None:
        machine = _stalled(machine, ntasks, old, _STALLS[fault])
    want = _run(machine, ntasks, old)
    got = _run(machine, ntasks, new)
    assert got == want
    if fault == "stall":
        assert want["retries"] > 0  # the stall hit live traffic
    if (case, fault) == ("erasure", "late-stall"):
        assert want["reconstructions"] > 0


@pytest.mark.parametrize(
    "preset, recipe",
    [
        (MachineConfig.resilience_testbox(replica_count=2), _FAILOVER),
        (
            MachineConfig.resilience_testbox(
                client_bw=800 * MiB, ec_k=4, ec_m=1
            ),
            _ERASURE,
        ),
        (MachineConfig.resilience_testbox(telemetry=True), _TELEMETRY),
    ],
    ids=["failover", "erasure", "telemetry"],
)
def test_resilience_preset_equals_the_old_recipes(preset, recipe):
    assert preset == recipe
