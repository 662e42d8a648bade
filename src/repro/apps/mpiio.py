"""MPI-IO middleware: collective open and independent file access.

MADbench performs its matrix I/O through ``MPI_File_write``/``read``
(independent access, one large contiguous transfer per call);
:class:`MpiFile` provides those on top of the traced POSIX layer.
GCRM's two-phase collective buffering (``cb_mode="twophase"``) lives in
:mod:`repro.apps.gcrm`.
"""

from __future__ import annotations

from typing import Optional

from ..iosys.posix import O_CREAT, O_RDWR, O_SYNC
from ..mpi.runtime import RankContext

__all__ = ["MpiFile"]


class MpiFile:
    """A shared file opened collectively by every rank of a communicator."""

    def __init__(self, ctx: RankContext, path: str, fd: int):
        self.ctx = ctx
        #: the rank's traced I/O handle, bound once (not per call through
        #: the context's attribute fallback)
        self.io = ctx.io
        self.path = path
        self.fd = fd

    @classmethod
    def open(
        cls,
        ctx: RankContext,
        path: str,
        stripe_count: Optional[int] = None,
        sync: bool = False,
    ):
        """Collective open (generator).  Rank 0 creates the file (setting
        the stripe count, like ``lfs setstripe`` before first write), then
        everyone opens it."""
        flags = O_CREAT | O_RDWR | (O_SYNC if sync else 0)
        if ctx.rank == 0:
            if stripe_count is not None and ctx.iosys.lookup(path) is None:
                ctx.iosys.set_stripe_count(path, stripe_count)
            fd = yield from ctx.io.open(path, flags)
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            fd = yield from ctx.io.open(path, flags)
        # second barrier so no rank races ahead before all opens complete
        yield from ctx.comm.barrier()
        return cls(ctx, path, fd)

    # -- independent access --------------------------------------------------
    def write_at(self, offset: int, nbytes: int):
        """Generator -> IoResult (MPI_File_write_at)."""
        return (yield from self.io.pwrite(self.fd, nbytes, offset))

    def read_at(self, offset: int, nbytes: int):
        """Generator -> IoResult (MPI_File_read_at)."""
        return (yield from self.io.pread(self.fd, nbytes, offset))

    def seek(self, offset: int):
        return (yield from self.io.lseek(self.fd, offset))

    def write(self, nbytes: int):
        """Generator -> IoResult at the current file pointer."""
        return (yield from self.io.write(self.fd, nbytes))

    def read(self, nbytes: int):
        return (yield from self.io.read(self.fd, nbytes))

    def close(self):
        yield from self.io.close(self.fd)
        return None

