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

A :class:`SimSpec` describes one simulation as a value -- launcher,
configuration, seed and a cost hint -- and :func:`simulate` runs it.
Experiments plan their simulations as specs, so a scheduler can run
them in any process and in any order (see :mod:`repro.sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Any, Callable, Dict, Generator, List, Mapping, Optional, Tuple, Union,
)

from ..ipm.events import Trace
from ..ipm.interceptor import IpmCollector, _rank_handles
from ..iosys.machine import MachineConfig
from ..iosys.posix import IoSystem
from ..iosys.scheduler import Facility, FacilityResult
from ..iosys.telemetry import TelemetryTimeline
from ..mpi.runtime import World
from ..sim.engine import Engine
from ..sim.rng import RngStreams

__all__ = ["SimJob", "AppResult", "SimSpec", "simulate"]


def require_positive(cfg: Any, *names: str) -> None:
    """Raise ValueError naming the first of ``cfg``'s fields ``names``
    that is below 1 (an application config's counts and sizes)."""
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


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


#: the launchers a :class:`SimSpec` can name
SPEC_KINDS = ("app", "job", "facility")


@dataclass(frozen=True)
class SimSpec:
    """One simulation as a value: what runs, on what, with which seed.

    ``kind`` picks the launcher :func:`simulate` uses:

    - ``"app"``: ``app(config, seed=seed)`` -- ``run_ior``,
      ``run_madbench`` or ``run_gcrm`` on its application config;
    - ``"job"``: ``SimJob(config, ntasks, seed=seed).run(app, *args,
      **kwargs)`` -- a rank kernel on a :class:`MachineConfig`;
    - ``"facility"``: ``Facility(config, args, seed=seed).run()`` -- the
      tenant jobs ``args`` sharing one machine.

    ``cost`` is a relative cost hint (tasks x operations) a scheduler
    orders by; it never changes what runs.  ``label`` names the
    simulation inside its experiment's plan and takes no part in
    equality, so two experiments planning the same simulation hold
    equal specs.

    A spec whose inputs come from an earlier simulation of the same plan
    (a fault window placed inside a healthy probe's read phase) lists
    those simulations' labels in ``needs``; once their summaries exist,
    :meth:`resolve` calls ``bind(spec, *summaries)`` for the concrete
    spec.
    """

    kind: str
    app: Optional[Callable[..., Any]]
    config: Any
    seed: int
    cost: float
    ntasks: int = 0
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = field(default="", compare=False)
    needs: Tuple[str, ...] = ()
    bind: Optional[Callable[..., "SimSpec"]] = None

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ValueError(
                f"spec kind must be one of {SPEC_KINDS}, got {self.kind!r}"
            )
        if bool(self.needs) != (self.bind is not None):
            raise ValueError("a spec names needs exactly when it has bind")

    def resolve(self, summaries: Mapping[str, Any]) -> "SimSpec":
        """The concrete spec, given the summaries of the simulations it
        needs (keyed by label); a spec without needs is returned as is."""
        if self.bind is None:
            return self
        needed = [summaries[name] for name in self.needs]
        return self.bind(replace(self, needs=(), bind=None), *needed)


def simulate(spec: SimSpec) -> Union[AppResult, FacilityResult]:
    """Run one concrete spec and return its result."""
    if spec.bind is not None:
        raise ValueError(f"spec {spec.label!r} is unresolved: {spec.needs}")
    if spec.kind == "facility":
        return Facility(spec.config, spec.args, seed=spec.seed).run()
    app = spec.app
    if app is None:
        raise ValueError(f"{spec.kind} spec {spec.label!r} names no app")
    if spec.kind == "job":
        return SimJob(spec.config, spec.ntasks, seed=spec.seed).run(
            app, *spec.args, **dict(spec.kwargs)
        )
    return app(spec.config, seed=spec.seed)
