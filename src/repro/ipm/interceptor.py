"""IPM-I/O: the interception layer.

The real tool redirects an application's POSIX calls into a tracing library
using the GNU linker's ``-wrap`` mechanism.  Here the "libc" is the
simulated :class:`~repro.iosys.posix.PosixIo`, and :class:`IpmIo` is the
wrapped version: every call is timed with the simulated clock and recorded
in the run's shared :class:`~repro.ipm.events.Trace`, together with the
file-descriptor lookup table that lets IPM "associate events interacting
with the same file".

Two collection modes, mirroring the paper:

- ``mode="trace"`` (the paper's present): full per-event records.
- ``mode="profile"`` (the paper's future work, Section VI): no event log;
  durations stream into per-op :class:`~repro.ipm.profile.StreamingHistogram`
  summaries, "moving the data captures from an I/O tracing paradigm to an
  I/O profiling paradigm".

Region labels (MPI_Pcontrol-style) tag events with an application phase so
per-phase ensembles (Figure 5a) can be separated without guessing.
"""

from __future__ import annotations

from typing import Any, Dict

from ..iosys.posix import IoSystem, PosixIo
from .events import Trace
from .profile import IoProfile

__all__ = ["IpmIo", "IpmCollector"]


class IpmCollector:
    """Run-wide collection state shared by every rank's :class:`IpmIo`.

    ``overhead`` models the (tiny) cost of the interception itself; the
    default of zero matches the paper's observation of "no significant
    slowdown" up to 10K tasks, and the tracing-overhead benchmark raises it
    to show the claim holds even with a pessimistic estimate.
    """

    def __init__(
        self,
        mode: str = "trace",
        overhead: float = 0.0,
        profile_bins_per_decade: int = 8,
    ):
        if mode not in ("trace", "profile", "both"):
            raise ValueError(f"bad mode {mode!r}")
        self.mode = mode
        self.overhead = float(overhead)
        self.trace = Trace()
        self.profile = IoProfile(bins_per_decade=profile_bins_per_decade)
        self.calls = 0
        self._phase = ""

    # -- region labelling ----------------------------------------------------
    def set_phase(self, label: str) -> None:
        """Label subsequent events with an application region name."""
        self._phase = label

    @property
    def phase(self) -> str:
        return self._phase

    def record(
        self,
        rank: int,
        op: str,
        path: str,
        fd: int,
        offset: int,
        size: int,
        t_start: float,
        duration: float,
        degraded: bool = False,
    ) -> None:
        self.calls += 1
        if self.mode in ("trace", "both"):
            self.trace.record(
                rank, op, path, fd, offset, size, t_start, duration,
                phase=self._phase, degraded=degraded,
            )
        if self.mode in ("profile", "both"):
            self.profile.observe(op, size, duration)


class IpmIo:
    """One rank's traced POSIX interface.

    Mirrors :class:`PosixIo` exactly (generator methods, same signatures)
    so an application is "linked" against IPM-I/O by constructing its I/O
    handle through :meth:`wrap` instead of using the raw layer.
    """

    def __init__(self, posix: PosixIo, collector: IpmCollector):
        self._posix = posix
        self._collector = collector
        self.engine = posix.iosys.engine
        self.rank = posix.task
        #: the fd lookup table: fd -> path (Section II-B)
        self._fd_table: Dict[int, str] = {}

    @classmethod
    def wrap(cls, posix: PosixIo, collector: IpmCollector) -> "IpmIo":
        return cls(posix, collector)

    # Every traced call pays the interception cost once, after the wrapped
    # call returns and before its record is taken, so the recorded
    # duration includes it.  The check is inline: with the default zero
    # overhead a call adds no yield.

    # -- traced namespace calls ------------------------------------------------
    def open(self, path: str, flags: int = 0):
        t0 = self.engine.now
        fd = yield from self._posix.open(path, flags)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._fd_table[fd] = path
        self._collector.record(
            self.rank, "open", path, fd, 0, 0, t0, self.engine.now - t0
        )
        return fd

    def close(self, fd: int):
        t0 = self.engine.now
        path = self._fd_table.get(fd, "?")
        yield from self._posix.close(fd)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._fd_table.pop(fd, None)
        self._collector.record(
            self.rank, "close", path, fd, 0, 0, t0, self.engine.now - t0
        )
        return None

    def stat(self, path: str):
        t0 = self.engine.now
        size = yield from self._posix.stat(path)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._collector.record(
            self.rank, "stat", path, -1, 0, 0, t0, self.engine.now - t0
        )
        return size

    # -- traced data calls ---------------------------------------------------------
    def write(self, fd: int, nbytes: int):
        t0 = self.engine.now
        offset = self._offset_of(fd)
        res = yield from self._posix.write(fd, nbytes)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._record_data("write", fd, offset, nbytes, t0, res)
        return res

    def pwrite(self, fd: int, nbytes: int, offset: int):
        t0 = self.engine.now
        res = yield from self._posix.pwrite(fd, nbytes, offset)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._record_data("pwrite", fd, offset, nbytes, t0, res)
        return res

    def read(self, fd: int, nbytes: int):
        t0 = self.engine.now
        offset = self._offset_of(fd)
        res = yield from self._posix.read(fd, nbytes)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._record_data("read", fd, offset, nbytes, t0, res)
        return res

    def pread(self, fd: int, nbytes: int, offset: int):
        t0 = self.engine.now
        res = yield from self._posix.pread(fd, nbytes, offset)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._record_data("pread", fd, offset, nbytes, t0, res)
        return res

    def lseek(self, fd: int, offset: int, whence: int = 0):
        t0 = self.engine.now
        new = yield from self._posix.lseek(fd, offset, whence)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._collector.record(
            self.rank, "lseek", self._fd_table.get(fd, "?"), fd, new, 0,
            t0, self.engine.now - t0,
        )
        return new

    def fadvise(self, fd: int, advice: str):
        t0 = self.engine.now
        yield from self._posix.fadvise(fd, advice)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._collector.record(
            self.rank, "fadvise", self._fd_table.get(fd, "?"), fd, 0, 0,
            t0, self.engine.now - t0,
        )
        return None

    def fsync(self, fd: int):
        t0 = self.engine.now
        yield from self._posix.fsync(fd)
        if self._collector.overhead > 0:
            yield self.engine.timeout(self._collector.overhead)
        self._collector.record(
            self.rank, "fsync", self._fd_table.get(fd, "?"), fd, 0, 0,
            t0, self.engine.now - t0,
        )
        return None

    # -- region labelling (MPI_Pcontrol analogue) ---------------------------------
    def region(self, label: str) -> None:
        self._collector.set_phase(label)

    # -- internals -------------------------------------------------------------------
    def _offset_of(self, fd: int) -> int:
        of = self._posix._fds.get(fd)
        return of.offset if of else 0

    def _record_data(self, op, fd, offset, nbytes, t0, res) -> None:
        path = self._fd_table.get(fd, "?")
        self._collector.record(
            self.rank,
            op,
            path,
            fd,
            offset,
            nbytes,
            t0,
            self.engine.now - t0,
            degraded=getattr(res, "degraded", False),
        )
        retries = getattr(res, "retries", 0)
        if retries:
            # A synthetic meta-event per data op that had to re-drive lost
            # RPCs behind a stalled OST: ``size`` holds the resend count
            # and ``duration`` the wallclock spent stuck (waiting plus
            # backoff), spanning the op's stall from its start.  Not a
            # data op, so byte accounting is untouched.
            self._collector.record(
                self.rank,
                "retry",
                path,
                fd,
                offset,
                retries,
                t0,
                getattr(res, "stall_wait", 0.0),
            )
        failovers = getattr(res, "failovers", 0)
        if failovers:
            # A meta-event per data op that steered around an unreachable
            # replica copy: ``size`` holds the number of copies bypassed
            # and ``duration`` the stall time the steer *averted* (the
            # worst remaining stall window at the switch) -- the recovered
            # tail time the masked-fault analysis attributes back to the
            # sick device.  Not a data op; byte accounting is untouched.
            self._collector.record(
                self.rank,
                "failover",
                path,
                fd,
                offset,
                failovers,
                t0,
                getattr(res, "masked_wait", 0.0),
            )
        reconstructions = getattr(res, "reconstructions", 0)
        if reconstructions:
            # A meta-event per erasure-coded read rebuilt from survivors:
            # ``size`` holds the number of stripe groups reconstructed
            # and ``duration`` the stall time the rebuild *averted* --
            # what the rebuild-pressure analysis attributes back to the
            # lost device.  Not a data op; byte accounting is untouched.
            self._collector.record(
                self.rank,
                "degraded-read",
                path,
                fd,
                offset,
                reconstructions,
                t0,
                getattr(res, "masked_wait", 0.0),
            )


def _rank_handles(
    iosys: IoSystem, collector: IpmCollector, base: int, rank: int,
    **tags: Any,
) -> Dict[str, Any]:
    """The substrate handles of one rank's context: ``ctx.posix``,
    ``ctx.io`` (traced, recording the job-local ``rank``), ``ctx.iosys``,
    ``ctx.collector`` and ``ctx.machine``, plus any ``tags`` (a facility
    job's ``job`` and ``tenant``).  ``base`` is the job's first task on
    the machine.

    Register it as ``functools.partial(_rank_handles, iosys, collector,
    base)``: a world then holds no bound method of its owner, so job and
    world form no reference cycle.
    """
    posix = iosys.posix_for(base + rank)
    io = IpmIo.wrap(posix, collector)
    io.rank = rank
    return {
        "posix": posix,
        "io": io,
        "iosys": iosys,
        "collector": collector,
        "machine": iosys.config,
        **tags,
    }
