"""MPI-IO middleware: independent and collective (two-phase) file access.

MADbench performs its matrix I/O through ``MPI_File_write``/``read``
(independent access, one large contiguous transfer per call);
:class:`MpiFile` provides those on top of the traced POSIX layer.

:func:`MpiFile.write_at_all` implements two-phase collective buffering:
ranks are grouped under aggregators; each group's data is gathered over
the interconnect (stage one) and the aggregator writes the coalesced,
contiguous file region (stage two).  This is the "collective buffering
scheme (similar to that of MPI-IO)" the paper's first GCRM optimization
is based on, available here both for the GCRM kernel and for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..iosys.posix import O_CREAT, O_RDWR, O_SYNC
from ..mpi.runtime import RankContext

__all__ = ["MpiFile"]


@dataclass(frozen=True)
class _Slab:
    offset: int
    nbytes: int


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

    # -- collective access ------------------------------------------------------
    def write_at_all(
        self,
        offset: int,
        nbytes: int,
        cb_nodes: Optional[int] = None,
        coalesce: bool = True,
    ):
        """Generator: collective write with two-phase aggregation.

        Every rank contributes its (offset, nbytes) slab.  With
        ``cb_nodes`` aggregators, slabs are shipped rank -> aggregator over
        the interconnect and each aggregator writes its group's slabs,
        coalescing contiguous runs into single large transfers.  Without
        ``cb_nodes`` this degenerates to independent writes + barrier.
        """
        comm = self.ctx.comm
        if not cb_nodes or cb_nodes >= comm.size:
            result = yield from self.write_at(offset, nbytes)
            yield from comm.barrier()
            return result

        group = comm.rank * cb_nodes // comm.size
        sub = yield from comm.split(group)
        # stage one: gather slab descriptors (data shipping is costed by the
        # interconnect model through the payload size we attach)
        slabs: Optional[List[Tuple[int, int]]] = yield from sub.gather(
            (offset, nbytes), root=0
        )
        result = None
        if sub.rank == 0:
            # stage one data shipping: the aggregator drains its group's
            # buffers over the interconnect before touching the file system
            inter = self.ctx.world.comm_world.interconnect
            ship = inter.collective_cost(sub.size, nbytes * (sub.size - 1))
            if ship > 0:
                yield self.ctx.engine.timeout(ship)
            merged = _coalesce(slabs) if coalesce else [
                _Slab(o, n) for o, n in sorted(slabs)
            ]
            for slab in merged:
                result = yield from self.write_at(slab.offset, slab.nbytes)
        # stage two completion: the group (and then the world) synchronises
        yield from sub.barrier()
        yield from comm.barrier()
        return result

    def read_at_all(
        self,
        offset: int,
        nbytes: int,
        cb_nodes: Optional[int] = None,
        coalesce: bool = True,
    ):
        """Generator: collective read, the mirror of :meth:`write_at_all`:
        aggregators read coalesced runs and scatter to their group."""
        comm = self.ctx.comm
        if not cb_nodes or cb_nodes >= comm.size:
            result = yield from self.read_at(offset, nbytes)
            yield from comm.barrier()
            return result

        group = comm.rank * cb_nodes // comm.size
        sub = yield from comm.split(group)
        slabs: Optional[List[Tuple[int, int]]] = yield from sub.gather(
            (offset, nbytes), root=0
        )
        result = None
        if sub.rank == 0:
            merged = _coalesce(slabs) if coalesce else [
                _Slab(o, n) for o, n in sorted(slabs)
            ]
            for slab in merged:
                result = yield from self.read_at(slab.offset, slab.nbytes)
            # stage two data shipping: scatter the group's buffers back
            inter = self.ctx.world.comm_world.interconnect
            ship = inter.collective_cost(sub.size, nbytes * (sub.size - 1))
            if ship > 0:
                yield self.ctx.engine.timeout(ship)
        yield from sub.barrier()
        yield from comm.barrier()
        return result

    def close(self):
        yield from self.io.close(self.fd)
        return None


def _coalesce(slabs: List[Tuple[int, int]]) -> List[_Slab]:
    """Merge contiguous (offset, nbytes) slabs into maximal runs."""
    out: List[_Slab] = []
    for off, n in sorted(slabs):
        if n <= 0:
            continue
        if out and out[-1].offset + out[-1].nbytes == off:
            prev = out[-1]
            out[-1] = _Slab(prev.offset, prev.nbytes + n)
        else:
            out.append(_Slab(off, n))
    return out
