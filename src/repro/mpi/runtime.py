"""SPMD launcher for the simulated MPI runtime.

:class:`World` binds an engine, ``nranks`` rank processes, and a
``COMM_WORLD`` communicator.  A *rank function* is a generator taking a
:class:`RankContext`; the world spawns one instance per rank and runs the
event loop to completion::

    world = World(nranks=4)

    def rank_fn(ctx):
        yield from ctx.comm.barrier()
        return ctx.rank

    results = world.run(rank_fn)      # [0, 1, 2, 3]
    elapsed = world.elapsed           # simulated seconds

:meth:`World.spawn` starts the ranks without running the engine, so
several worlds can share one engine (one per tenant job on a shared
facility); the owner runs the engine once and hands every rank process
to :func:`check_finished`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..sim.engine import Engine, Process
from .comm import Communicator, Interconnect, RankComm

__all__ = ["World", "RankContext", "check_finished"]


@dataclass
class RankContext:
    """Everything a simulated MPI task can see.

    ``extras`` carries substrate handles (the POSIX layer, the IPM
    interceptor, machine info) injected by higher layers; apps access them
    as attributes (``ctx.posix``, ``ctx.ipm``).
    """

    rank: int
    comm: RankComm
    world: "World"
    extras: Dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, item: str) -> Any:
        try:
            return self.__dict__["extras"][item]
        except KeyError:
            raise AttributeError(item) from None

    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def now(self) -> float:
        return self.world.engine.now


def check_finished(procs: Sequence[Process]) -> None:
    """Re-raise the first failed process; else raise if any never ran to
    completion (a deadlock, or a run cut short)."""
    for p in procs:
        if p.triggered and not p.ok:
            raise p._exc
    unfinished = [p.name for p in procs if not p.triggered]
    if unfinished:
        raise RuntimeError(
            f"deadlock or truncated run: ranks never finished: "
            f"{unfinished[:8]}{'...' if len(unfinished) > 8 else ''}"
        )


class World:
    """A set of simulated MPI ranks sharing one engine and COMM_WORLD."""

    def __init__(
        self,
        nranks: int,
        engine: Optional[Engine] = None,
        interconnect: Optional[Interconnect] = None,
        name: str = "comm_world",
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.engine = engine or Engine()
        self.nranks = int(nranks)
        self.comm_world = Communicator(
            self.engine, self.nranks, interconnect=interconnect, name=name
        )
        #: simulated times at which :meth:`spawn` ran and the last rank
        #: finished
        self.t_start: float = 0.0
        self.t_end: float = 0.0
        self.elapsed: float = 0.0
        self._extras_factory: Optional[Callable[[int], Dict[str, Any]]] = None

    def set_extras_factory(
        self, factory: Callable[[int], Dict[str, Any]]
    ) -> None:
        """Register a per-rank extras builder (substrate glue)."""
        self._extras_factory = factory

    def make_context(self, rank: int) -> RankContext:
        extras = self._extras_factory(rank) if self._extras_factory else {}
        return RankContext(
            rank=rank,
            comm=self.comm_world.rank_view(rank),
            world=self,
            extras=extras,
        )

    def spawn(
        self, rank_fn: Callable[..., Generator], *args: Any, **kwargs: Any
    ) -> List[Process]:
        """Start ``rank_fn(ctx, *args, **kwargs)`` on every rank, in rank
        order, without running the engine; returns the rank processes.

        Process creation order is the engine's same-time tiebreak, so it
        is part of every trace.  ``t_start`` is set to now and ``t_end``
        follows each rank's finish.
        """
        engine = self.engine
        self.t_start = self.t_end = engine.now

        def finished(_ev: Any) -> None:
            self.t_end = engine.now

        procs = []
        for rank in range(self.nranks):
            gen = rank_fn(self.make_context(rank), *args, **kwargs)
            proc = engine.process(gen, name=f"rank{rank}")
            proc.add_callback(finished)
            procs.append(proc)
        return procs

    def run(
        self, rank_fn: Callable[..., Generator], *args: Any, **kwargs: Any
    ) -> List[Any]:
        """Spawn ``rank_fn(ctx, *args, **kwargs)`` on every rank and run.

        Returns the per-rank return values (rank order).  ``world.elapsed``
        holds the simulated time at which the last rank finished.
        """
        procs = self.spawn(rank_fn, *args, **kwargs)
        # Run past the last rank's return so background activity (delayed
        # writeback flushes) settles, but report job time as the moment the
        # final rank finished -- what a batch system would bill.
        self.engine.run()
        check_finished(procs)
        self.elapsed = self.t_end - self.t_start
        return [p.value for p in procs]
