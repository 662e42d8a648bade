"""Metadata server (MDS) model.

Lustre serialises namespace operations through a single metadata server.
We model it as a FIFO :class:`~repro.sim.resources.Server` with bounded
concurrency and a per-operation latency: a metadata *storm* (10,240 tasks
opening a shared file at once) queues and stretches out, exactly the
behaviour large-scale shared-file workloads see in production.
"""

from __future__ import annotations

from ..sim.engine import Engine, Event
from ..sim.resources import Server
from ..sim.rng import RngStreams
from .machine import MachineConfig

__all__ = ["MetadataServer"]


class MetadataServer:
    """FIFO metadata service: open / close / stat / unlink."""

    #: relative cost of each op class in units of ``mds_latency``
    OP_COST = {
        "open": 1.0,
        "open_create": 1.6,
        "close": 0.5,
        "stat": 0.7,
        "unlink": 1.2,
        "sync": 0.8,
    }

    def __init__(self, engine: Engine, config: MachineConfig, rng: RngStreams):
        self.engine = engine
        self.config = config
        self.rng = rng
        self.ops = {name: 0 for name in self.OP_COST}
        #: optional TelemetryCollector (set by IoSystem when telemetry is on)
        self.telemetry = None
        #: optional HealthMonitor (set by IoSystem when heal is on); under
        #: saturation the dominant tenant's metadata RPCs are throttled
        self.health = None
        if config.mds_latency > 0:
            self._server: Server | None = Server(
                engine,
                rate=1.0,  # unused: requests carry zero bytes
                concurrency=config.mds_concurrency,
                overhead=config.mds_latency,
                name="mds",
            )
        else:
            self._server = None

    def request(self, op: str, tenant: int = 0) -> Event:
        """Issue a metadata op; the event's value is the service time.
        ``tenant`` attributes the op on shared (multi-tenant) machines."""
        if op not in self.OP_COST:
            raise ValueError(f"unknown metadata op {op!r}")
        self.ops[op] += 1
        if self.telemetry is not None:
            # depth as seen by the arriving request (pure observation)
            self.telemetry.record_mds(self.queue_depth, tenant)
        if self._server is None:
            ev = self.engine.event()
            ev.succeed(0.0)
            return ev
        factor = self.OP_COST[op] * self.rng.lognormal_factor(
            "mds/noise", self.config.noise_sigma
        )
        # scheduled MDS hiccup window: every namespace op stretches while
        # the server is busy with lock recovery / failover heartbeats
        if self.config.faults is not None:
            factor *= self.config.faults.mds_factor(self.engine.now)
        if self.health is not None:
            # facility backpressure: the dominant tenant's metadata RPCs
            # are delayed by the throttle while the machine is saturated
            throttle = self.health.throttle_delay(tenant)
            if throttle > 0.0:
                factor += throttle / self.config.mds_latency
        return self._server.request(0.0, factor=factor)

    @property
    def queue_depth(self) -> int:
        # delegates to the shared FifoQueueMixin accounting on the Server
        return self._server.queue_depth if self._server else 0
