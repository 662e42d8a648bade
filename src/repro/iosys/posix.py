"""POSIX-level view of the simulated file system.

:class:`IoSystem` owns the whole substrate for one job: the machine config,
the bandwidth arbiter, OST pool, MDS, and one :class:`LustreClient` per
node.  Each task gets a :class:`PosixIo` handle exposing the libc-shaped
calls the paper's tracer intercepts: ``open/close/read/write/pread/pwrite/
lseek/fsync``.  All calls are generators (simulation time passes inside).

File descriptors are small integers per task, exactly like a process's fd
table -- the IPM interceptor keeps its own fd -> file lookup table on top,
as described in Section II-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim.engine import Engine
from ..sim.rng import RngStreams
from .client import FsArbiter, IoResult, LustreClient
from .erasure import ErasureCodedLayout
from .health import HealthMonitor
from .locks import ExtentLockTracker
from .machine import MachineConfig
from .mds import MetadataServer
from .ost import OstPool
from .replication import ReplicatedLayout
from .striping import StripeLayout
from .telemetry import TelemetryCollector, TelemetryTimeline

__all__ = ["IoSystem", "PosixIo", "SimFile", "O_CREAT", "O_RDONLY", "O_WRONLY", "O_RDWR", "O_SYNC"]

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_SYNC = 0x101000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


@dataclass
class SimFile:
    """One file in the simulated namespace."""

    file_id: int
    path: str
    layout: StripeLayout
    locks: ExtentLockTracker
    size: int = 0
    opens: int = 0
    #: mirrored placement (None = single-copy file); ``layout`` stays the
    #: primary copy so every analysis keyed on it keeps working
    replication: Optional[ReplicatedLayout] = None
    #: erasure-coded placement (None = unprotected); ``layout`` stays the
    #: data placement, parity devices hang off this descriptor.  Mutually
    #: exclusive with ``replication``.
    erasure: Optional[ErasureCodedLayout] = None


@dataclass
class _OpenFile:
    file: SimFile
    flags: int
    offset: int = 0


class IoSystem:
    """The complete simulated I/O substrate for one job."""

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        ntasks: int,
        rng: Optional[RngStreams] = None,
        placement: str = "packed",
    ):
        if placement not in ("packed", "spread"):
            raise ValueError(f"bad placement {placement!r}")
        self.engine = engine
        self.config = config
        self.placement = placement
        self.ntasks = int(ntasks)
        self.rng = rng or RngStreams(0)
        self.arbiter = FsArbiter(config, now_fn=lambda: engine.now)
        self.osts = OstPool(config, self.rng)
        self.mds = MetadataServer(engine, config, self.rng)
        #: server-side observability (None when config.telemetry is off);
        #: pure observation -- it never changes simulated behaviour
        self.telemetry: Optional[TelemetryCollector] = None
        if config.telemetry:
            self.telemetry = TelemetryCollector(config, clock=engine)
            self.osts.telemetry = self.telemetry
            self.mds.telemetry = self.telemetry
        #: self-healing control plane (None when config.heal is off);
        #: watches the collector's forwarded hooks and quarantines /
        #: rebuilds / sheds during the run (see repro.iosys.health)
        self.health: Optional[HealthMonitor] = None
        if config.heal:
            self.health = HealthMonitor(
                engine, config, self.osts, self.mds, self.telemetry
            )
            self.mds.health = self.health
        self._clients: Dict[int, LustreClient] = {}
        self._files: Dict[str, SimFile] = {}
        self._next_file_id = 0
        self._stripe_overrides: Dict[str, int] = {}
        self._replica_overrides: Dict[str, int] = {}
        self._erasure_overrides: Dict[str, "tuple[int, int]"] = {}
        #: node -> tenant id on a shared machine (0 = untagged solo run);
        #: set by the facility scheduler before any client exists
        self._node_tenant: Dict[int, int] = {}

    # -- tenancy -----------------------------------------------------------
    def set_node_tenant(self, node: int, tenant: int) -> None:
        """Tag ``node`` as belonging to ``tenant``; its client and every
        op it issues carry the tag into telemetry.  Must run before the
        node's first I/O (clients are built lazily on first use)."""
        if node in self._clients:
            raise ValueError(
                f"node {node} already has an active client; tenancy is "
                f"fixed before first I/O"
            )
        self._node_tenant[node] = int(tenant)

    # -- topology ----------------------------------------------------------
    def node_of(self, task: int) -> int:
        """Task placement: 'packed' fills nodes core by core (the batch
        default); 'spread' puts one task per node (how I/O aggregators are
        placed, so they do not fight for one client)."""
        if self.placement == "spread":
            return task
        return task // self.config.tasks_per_node

    def client_for(self, task: int) -> LustreClient:
        node = self.node_of(task)
        client = self._clients.get(node)
        if client is None:
            client = LustreClient(
                self.engine,
                self.config,
                node,
                self.arbiter,
                self.osts,
                self.mds,
                self.rng,
                tenant=self._node_tenant.get(node, 0),
            )
            client.health = self.health
            self._clients[node] = client
        return client

    # -- namespace -----------------------------------------------------------
    def set_stripe_count(self, path: str, stripe_count: int) -> None:
        """``lfs setstripe``: must be called before the file is created."""
        if path in self._files:
            raise ValueError(f"file {path!r} already exists; striping is fixed at creation")
        if not (1 <= stripe_count <= self.config.n_osts):
            raise ValueError("stripe_count out of range")
        self._stripe_overrides[path] = int(stripe_count)

    def set_replica_count(self, path: str, replica_count: int) -> None:
        """Per-file mirror width override (``lfs mirror create`` analogue):
        must be set before the file is created; 1 disables replication."""
        if path in self._files:
            raise ValueError(
                f"file {path!r} already exists; replication is fixed at creation"
            )
        if not (1 <= replica_count <= self.config.n_osts):
            raise ValueError("replica_count out of range")
        self._replica_overrides[path] = int(replica_count)

    def set_erasure(self, path: str, k: int, m: int) -> None:
        """Per-file erasure-coding override (``lfs setstripe -E`` with a
        parity component, roughly): must be set before the file is
        created; ``k = m = 0`` disables coding for this file."""
        if path in self._files:
            raise ValueError(
                f"file {path!r} already exists; erasure coding is fixed at creation"
            )
        if (k == 0) != (m == 0):
            raise ValueError("k and m must be set together (or both 0)")
        if k < 0 or m < 0:
            raise ValueError("k/m must be >= 0")
        if k and k + m > self.config.n_osts:
            raise ValueError("k + m out of range")
        self._erasure_overrides[path] = (int(k), int(m))

    def lookup(self, path: str) -> Optional[SimFile]:
        return self._files.get(path)

    def _create(self, path: str) -> SimFile:
        stripe_count = self._stripe_overrides.get(
            path, self.config.default_stripe_count
        )
        start_ost = self._next_file_id % self.config.n_osts
        if self.health is not None:
            # drain new extents: steer fresh placements off quarantined
            # devices (identity when nothing is quarantined)
            start_ost = self.health.placement_start(
                start_ost, stripe_count, self.config.n_osts
            )
        layout = StripeLayout(
            stripe_size=self.config.stripe_size,
            stripe_count=stripe_count,
            n_osts=self.config.n_osts,
            start_ost=start_ost,
        )
        replica_count = self._replica_overrides.get(
            path, self.config.replica_count
        )
        ec_k, ec_m = self._erasure_overrides.get(
            path, (self.config.ec_k, self.config.ec_m)
        )
        if replica_count > 1 and ec_k:
            raise ValueError(
                f"file {path!r}: mirrored placement and erasure coding "
                f"are mutually exclusive"
            )
        f = SimFile(
            file_id=self._next_file_id,
            path=path,
            layout=layout,
            locks=ExtentLockTracker(self.config.lock_revoke_cost),
            replication=(
                ReplicatedLayout(layout, replica_count)
                if replica_count > 1
                else None
            ),
            erasure=(
                ErasureCodedLayout(layout, ec_k, ec_m) if ec_k else None
            ),
        )
        self._next_file_id += 1
        self._files[path] = f
        # declare the stripe footprint to the arbiter (only consulted
        # when cross-file sharing is on, i.e. multi-tenant facilities)
        self.arbiter.register_file(
            f.file_id,
            tuple(
                (layout.start_ost + i) % self.config.n_osts
                for i in range(stripe_count)
            ),
        )
        return f

    def posix_for(self, task: int) -> "PosixIo":
        if not (0 <= task < self.ntasks):
            raise ValueError(f"task {task} out of range")
        return PosixIo(self, task)

    # -- aggregate diagnostics ---------------------------------------------------
    def total_bytes_written(self) -> float:
        return float(self.osts.bytes_written.sum())

    def total_bytes_read(self) -> float:
        return float(self.osts.bytes_read.sum())

    def total_retries(self) -> int:
        """RPC resends forced by stalled OSTs, summed over every node's
        client (0 on a healthy pool -- the fault layer's visible cost)."""
        return sum(c.retry_events for c in self._clients.values())

    def total_failovers(self) -> int:
        """Ops that steered around an unreachable replica copy, summed
        over every node's client (0 without replication or faults)."""
        return sum(c.failover_events for c in self._clients.values())

    def total_reconstructions(self) -> int:
        """Erasure-coded reads served by survivor reconstruction, summed
        over every node's client (0 without erasure coding or faults)."""
        return sum(c.reconstruction_events for c in self._clients.values())

    def healing_actions(self):
        """Control actions the health monitor took this run, in order
        (empty tuple with healing off -- safe to call unconditionally)."""
        return self.health.actions() if self.health is not None else ()

    def telemetry_timeline(self) -> Optional[TelemetryTimeline]:
        """The frozen server-side timeline, or None with telemetry off.

        Under ``Engine(sanitize=True)`` the collector itself is sealed
        first: the export is a *result*, and any hook firing after this
        point would corrupt data the caller already holds -- the freeze
        turns that silent corruption into a loud
        :class:`~repro.iosys.telemetry.FrozenTelemetryError`."""
        if self.telemetry is None:
            return None
        timeline = self.telemetry.timeline()
        if self.engine.sanitize:
            self.telemetry.freeze()
        return timeline


class PosixIo:
    """One task's libc-level I/O interface (all methods are generators)."""

    def __init__(self, iosys: IoSystem, task: int):
        self.iosys = iosys
        self.task = task
        self.client = iosys.client_for(task)
        self._fds: Dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0/1/2 are stdio, as in a real process

    # -- namespace ops -------------------------------------------------------
    def open(self, path: str, flags: int = O_RDONLY):
        """Generator -> fd."""
        f = self.iosys.lookup(path)
        if f is None:
            if not (flags & O_CREAT):
                raise FileNotFoundError(path)
            f = self.iosys._create(path)
            ev = self.iosys.mds.request("open_create", tenant=self.client.tenant)
        else:
            ev = self.iosys.mds.request("open", tenant=self.client.tenant)
        yield ev
        f.opens += 1
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(file=f, flags=flags)
        return fd

    def close(self, fd: int):
        """Generator -> None."""
        of = self._require(fd)
        yield self.iosys.mds.request("close", tenant=self.client.tenant)
        of.file.opens -= 1
        del self._fds[fd]
        return None

    def stat(self, path: str):
        """Generator -> size of the file."""
        f = self.iosys.lookup(path)
        if f is None:
            raise FileNotFoundError(path)
        yield self.iosys.mds.request("stat", tenant=self.client.tenant)
        return f.size

    # -- data ops ------------------------------------------------------------
    def write(self, fd: int, nbytes: int):
        """Generator -> IoResult; advances the file offset."""
        of = self._require(fd)
        result = yield from self._pwrite(of, of.offset, nbytes)
        of.offset += nbytes
        return result

    def pwrite(self, fd: int, nbytes: int, offset: int):
        """Generator -> IoResult; offset unchanged."""
        of = self._require(fd)
        return (yield from self._pwrite(of, offset, nbytes))

    def read(self, fd: int, nbytes: int):
        """Generator -> IoResult; advances the file offset."""
        of = self._require(fd)
        result = yield from self._pread(of, of.offset, nbytes)
        of.offset += nbytes
        return result

    def pread(self, fd: int, nbytes: int, offset: int):
        """Generator -> IoResult; offset unchanged."""
        of = self._require(fd)
        return (yield from self._pread(of, offset, nbytes))

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET):
        """Generator -> new offset (seeks are client-local: zero cost but
        traced, exactly like the seek records in the MADbench traces)."""
        of = self._require(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = of.offset + offset
        elif whence == SEEK_END:
            new = of.file.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if new < 0:
            raise ValueError("negative resulting offset")
        of.offset = new
        yield self.iosys.engine.timeout(0.0)
        return new

    def fadvise(self, fd: int, advice: str):
        """Generator -> None: posix_fadvise analogue.  Hints the client's
        read-ahead engine about this stream's access pattern."""
        of = self._require(fd)
        self.client.readahead.set_advice(self.task, of.file.file_id, advice)
        yield self.iosys.engine.timeout(0.0)
        return None

    def fsync(self, fd: int):
        """Generator -> None: drain this node's dirty pages + MDS sync."""
        self._require(fd)
        yield from self.client.sync(self.task)
        yield self.iosys.mds.request("sync", tenant=self.client.tenant)
        return None

    # -- internals ------------------------------------------------------------
    def _require(self, fd: int) -> _OpenFile:
        of = self._fds.get(fd)
        if of is None:
            raise ValueError(f"bad file descriptor {fd}")
        return of

    def _pwrite(self, of: _OpenFile, offset: int, nbytes: int):
        if nbytes < 0 or offset < 0:
            raise ValueError("negative offset/length")
        if of.flags & (O_WRONLY | O_RDWR) == 0:
            raise PermissionError("fd not open for writing")
        result: IoResult = yield from self.client.write(
            self.task, of.file, offset, nbytes, sync=bool(of.flags & O_SYNC)
        )
        if nbytes:
            # a zero-byte write has no effect beyond its return value
            # (POSIX write(2)): it does not extend the file
            of.file.size = max(of.file.size, offset + nbytes)
        return result

    def _pread(self, of: _OpenFile, offset: int, nbytes: int):
        if nbytes < 0 or offset < 0:
            raise ValueError("negative offset/length")
        if of.flags & O_WRONLY:
            raise PermissionError("fd not open for reading")
        result: IoResult = yield from self.client.read(
            self.task, of.file, offset, nbytes
        )
        return result
