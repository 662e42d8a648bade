"""Common scaffolding for running a simulated application under IPM-I/O.

A :class:`SimJob` wires together one engine, one MPI world, one I/O
substrate, and one IPM collector -- the moral equivalent of launching an
``aprun`` job on a machine with the tracing library linked in.  Rank
functions receive a :class:`~repro.mpi.runtime.RankContext` whose extras
(built by :func:`~repro.ipm.interceptor._rank_handles`) expose:

- ``ctx.io``        the traced (IPM-wrapped) POSIX interface,
- ``ctx.posix``     the raw POSIX interface (for overhead comparisons),
- ``ctx.iosys``     the substrate (striping controls, counters),
- ``ctx.collector`` the IPM collector (region labels, trace),
- ``ctx.machine``   the machine config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from ..ipm.events import Trace
from ..ipm.interceptor import IpmCollector, _rank_handles
from ..iosys.machine import MachineConfig
from ..iosys.posix import IoSystem
from ..iosys.telemetry import TelemetryTimeline
from ..mpi.runtime import World
from ..sim.engine import Engine
from ..sim.rng import RngStreams

__all__ = ["SimJob", "AppResult"]


@dataclass
class AppResult:
    """Everything an experiment needs from one application run."""

    trace: Trace
    elapsed: float
    ntasks: int
    machine: MachineConfig
    per_rank: List[Any]
    iosys: IoSystem
    collector: IpmCollector
    meta: Dict[str, Any] = field(default_factory=dict)
    #: server-side telemetry (None unless the job ran with telemetry on)
    telemetry: Optional[TelemetryTimeline] = None

    @property
    def total_bytes(self) -> int:
        return self.trace.total_bytes


class SimJob:
    """One simulated job: machine + world + substrate + tracer.

    The interconnect, fault schedules, retry, replication, erasure
    coding, telemetry, healing and the sanitizer are all
    :class:`MachineConfig` fields: to ablate one, pass
    ``machine.with_overrides(...)``.
    """

    def __init__(
        self,
        machine: MachineConfig,
        ntasks: int,
        seed: int = 0,
        ipm_mode: str = "trace",
        ipm_overhead: float = 0.0,
        placement: str = "packed",
    ):
        self.machine = machine
        self.ntasks = int(ntasks)
        self.seed = int(seed)
        self.engine = Engine(sanitize=machine.sanitize)
        self.rng = RngStreams(seed)
        self.world = World(
            self.ntasks, engine=self.engine, interconnect=machine.interconnect
        )
        self.iosys = IoSystem(
            self.engine,
            machine,
            ntasks=self.ntasks,
            rng=self.rng,
            placement=placement,
        )
        self.collector = IpmCollector(mode=ipm_mode, overhead=ipm_overhead)
        self.world.set_extras_factory(
            partial(_rank_handles, self.iosys, self.collector, 0)
        )

    def run(
        self, rank_fn: Callable[..., Generator], *args: Any, **kwargs: Any
    ) -> AppResult:
        per_rank = self.world.run(rank_fn, *args, **kwargs)
        if self.engine.sanitize:
            self.engine.assert_race_free()
        meta: Dict[str, Any] = {
            "retries": self.iosys.total_retries(),
            "failovers": self.iosys.total_failovers(),
            "reconstructions": self.iosys.total_reconstructions(),
        }
        if self.iosys.health is not None:
            # conditional keys: heal-off records stay byte-identical
            meta.update(self.iosys.health.counters())
            self.iosys.health.detach()
        return AppResult(
            trace=self.collector.trace,
            elapsed=self.world.elapsed,
            ntasks=self.ntasks,
            machine=self.machine,
            per_rank=per_rank,
            iosys=self.iosys,
            collector=self.collector,
            meta=meta,
            telemetry=self.iosys.telemetry_timeline(),
        )
