"""Simplified HDF5 middleware over the simulated POSIX layer.

Only the behaviours that drive the paper's GCRM findings are modelled:

- **Data layout**: datasets live in a shared file; each rank writes its
  slab(s) with ``pwrite``.  Without alignment the slabs pack tightly, so a
  1.6 MB record straddles stripe boundaries; with ``alignment`` set
  (``H5Pset_alignment`` analogue) every slab is padded up to the boundary
  -- the Figure 6(g-i) optimization.
- **Metadata**: every dataset mutation appends small (<3 KB) metadata
  transactions -- object header, B-tree node, heap updates -- performed
  *serially by rank 0* against the file's metadata region, each one a
  small strided read + small O_SYNC write plus library dispatch time.
  This is the red activity in the trace graphs and the serial gaps of
  Figure 6(g).  With ``metadata_aggregation=True`` (the Figure 6(j-l)
  optimization developed with the HDF Group) the transactions accumulate
  in memory and are written as few 1 MB transfers deferred to file close.

The per-transaction dispatch cost (``meta_txn_cost``) is a calibrated
middleware constant: it stands in for the HDF5 B-tree traversal, flush
calls, and lock round trips that we do not model individually.  DESIGN.md
records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..iosys.posix import O_CREAT, O_RDWR, O_SYNC
from ..mpi.runtime import RankContext

__all__ = ["H5File", "H5Dataset", "align_up"]

KiB = 1024
MiB = 1024 * 1024


def align_up(value: int, alignment: Optional[int]) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (None = identity)."""
    if not alignment or alignment <= 1:
        return value
    return ((value + alignment - 1) // alignment) * alignment


@dataclass
class H5Dataset:
    """Bookkeeping for one dataset's slab placement."""

    name: str
    offset: int  # file offset of the dataset's data region
    slab_bytes: int  # unpadded bytes per rank per record
    slab_stride: int  # padded bytes per slab slot
    records_per_rank: int
    nranks: int

    def slab_offset(self, rank: int, record: int = 0) -> int:
        """File offset of a rank's record.  Records are interleaved by
        record index first (all ranks' record 0, then record 1, ...), the
        H5Part convention for per-step variables."""
        return self.offset + (
            record * self.nranks + rank
        ) * self.slab_stride


class H5File:
    """A shared HDF5 file handle (one per rank; shared bookkeeping lives
    on the job's IoSystem keyed by path, mirroring how every rank of the
    job sees the same object headers)."""

    #: metadata transactions issued per dataset creation
    META_TXN_PER_CREATE = 4

    def __init__(
        self,
        ctx: RankContext,
        path: str,
        fd: int,
        alignment: Optional[int],
        metadata_aggregation: bool,
        meta_txn_cost: float,
        meta_txn_bytes: int,
        slabs_per_meta_txn: int,
        shared: Dict,
    ):
        self.ctx = ctx
        #: the rank's traced I/O handle, bound once (not per call through
        #: the context's attribute fallback)
        self.io = ctx.io
        self.path = path
        self.fd = fd
        self.alignment = alignment
        self.metadata_aggregation = metadata_aggregation
        self.meta_txn_cost = meta_txn_cost
        self.meta_txn_bytes = meta_txn_bytes
        #: slabs covered by one chunk-index/B-tree metadata transaction
        self.slabs_per_meta_txn = slabs_per_meta_txn
        self._shared = shared

    # -- lifecycle -------------------------------------------------------------
    @classmethod
    def create(
        cls,
        ctx: RankContext,
        path: str,
        stripe_count: Optional[int] = None,
        alignment: Optional[int] = None,
        metadata_aggregation: bool = False,
        meta_txn_cost: float = 0.2,
        meta_txn_bytes: int = 2 * KiB,
        slabs_per_meta_txn: int = 512,
        metadata_region: int = 64 * MiB,
    ):
        """Collective create/open (generator)."""
        flags = O_CREAT | O_RDWR | O_SYNC
        registry = ctx.iosys.__dict__.setdefault("_h5_registry", {})
        if ctx.rank == 0:
            if stripe_count is not None and ctx.iosys.lookup(path) is None:
                ctx.iosys.set_stripe_count(path, stripe_count)
            fd = yield from ctx.io.open(path, flags)
            shared = registry.setdefault(
                path,
                {
                    "cursor": metadata_region,  # data region starts here
                    "meta_cursor": 0,
                    "datasets": {},
                    "pending_meta_bytes": 0,
                    "meta_txns": 0,
                },
            )
            # superblock write
            yield from ctx.io.pwrite(fd, 2 * KiB, 0)
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()
            fd = yield from ctx.io.open(path, flags)
            shared = registry[path]
        yield from ctx.comm.barrier()
        return cls(
            ctx,
            path,
            fd,
            alignment,
            metadata_aggregation,
            meta_txn_cost,
            meta_txn_bytes,
            slabs_per_meta_txn,
            shared,
        )

    # -- datasets ---------------------------------------------------------------
    def create_dataset(
        self, name: str, slab_bytes: int, records_per_rank: int = 1
    ):
        """Collective dataset creation (generator -> H5Dataset)."""
        comm = self.ctx.comm
        if comm.rank == 0:
            ds = self._shared["datasets"].get(name)
            if ds is None:
                stride = align_up(slab_bytes, self.alignment)
                ds = H5Dataset(
                    name=name,
                    offset=align_up(self._shared["cursor"], self.alignment),
                    slab_bytes=slab_bytes,
                    slab_stride=stride,
                    records_per_rank=records_per_rank,
                    nranks=comm.size,
                )
                self._shared["cursor"] = (
                    ds.offset + stride * comm.size * records_per_rank
                )
                self._shared["datasets"][name] = ds
            yield from self._metadata_txns(self.META_TXN_PER_CREATE)
        yield from comm.barrier()
        ds = self._shared["datasets"][name]
        return ds

    def write_record(self, ds: H5Dataset, record: int):
        """Generator: this rank writes one record slab of ``ds``.

        Writes the *padded* slot when alignment is on ("we padded and
        aligned these writes to 1MB boundaries"), matching how the fix
        also increased the bytes on the wire slightly.
        """
        nbytes = ds.slab_stride if self.alignment else ds.slab_bytes
        offset = ds.slab_offset(self.ctx.rank, record)
        result = yield from self.io.pwrite(self.fd, nbytes, offset)
        return result

    def read_record(self, ds: H5Dataset, record: int, rank: Optional[int] = None):
        """Generator: read one record slab (own rank's by default) -- the
        consumer side of the pipeline (visualisation, restart).  Reading a
        dataset also costs rank-0 B-tree lookups on first access."""
        nbytes = ds.slab_stride if self.alignment else ds.slab_bytes
        offset = ds.slab_offset(
            self.ctx.rank if rank is None else rank, record
        )
        result = yield from self.io.pread(self.fd, nbytes, offset)
        return result

    def finish_step(self, ds: H5Dataset):
        """Collective: rank 0 commits the dataset's metadata updates
        (chunk index / B-tree nodes), then everyone synchronises.  This is
        the per-phase serial gap of Figures 6(a)/6(g)."""
        comm = self.ctx.comm
        yield from comm.barrier()
        if comm.rank == 0:
            slabs = ds.nranks * ds.records_per_rank
            txns = max(1, slabs // self.slabs_per_meta_txn)
            yield from self._metadata_txns(txns)
        yield from comm.barrier()
        return None

    def close(self):
        """Collective close: with metadata aggregation, rank 0 now writes
        the accumulated metadata as few 1 MB transfers (the deferred
        "single 1 MB write ... at file close")."""
        comm = self.ctx.comm
        yield from comm.barrier()
        if comm.rank == 0 and self.metadata_aggregation:
            pending = self._shared["pending_meta_bytes"]
            cursor = self._shared["meta_cursor"]
            while pending > 0:
                chunk = min(pending, 1 * MiB)
                chunk = align_up(chunk, self.alignment) if self.alignment else chunk
                yield from self.io.pwrite(self.fd, chunk, cursor)
                cursor += chunk
                pending -= chunk
            self._shared["pending_meta_bytes"] = 0
            self._shared["meta_cursor"] = cursor
        yield from self.io.fsync(self.fd)
        yield from self.io.close(self.fd)
        yield from comm.barrier()
        return None

    # -- metadata engine -----------------------------------------------------------
    def _metadata_txns(self, n: int):
        """Rank 0 only: perform ``n`` metadata transactions."""
        shared = self._shared
        for _ in range(n):
            shared["meta_txns"] += 1
            if self.metadata_aggregation:
                # accumulate in the rank-0 metadata cache; written at close
                shared["pending_meta_bytes"] += self.meta_txn_bytes
                continue
            # B-tree block read, then synchronous small write
            offset = shared["meta_cursor"]
            yield from self.io.pread(self.fd, self.meta_txn_bytes, offset)
            yield from self.io.pwrite(self.fd, self.meta_txn_bytes, offset)
            shared["meta_cursor"] = offset + self.meta_txn_bytes
            if self.meta_txn_cost > 0:
                dispatch = self.meta_txn_cost * self.ctx.iosys.rng.lognormal_factor(
                    "h5/dispatch", 0.3
                )
                yield self.ctx.engine.timeout(dispatch)
        return None

    @property
    def meta_txns(self) -> int:
        return self._shared["meta_txns"]

