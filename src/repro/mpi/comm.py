"""Simulated MPI communicators.

Ranks are simulation processes (generators).  A rank's view of a
communicator is a :class:`RankComm`, whose methods are generators used with
``yield from``::

    def rank_fn(ctx):
        values = yield from ctx.comm.gather(data, root=0)
        yield from ctx.comm.barrier()

Collective semantics follow MPI: every rank of the communicator must call
the same collectives in the same order.  A collective completes (and every
participant resumes) only once all ranks have arrived, plus a modelled
communication cost from the :class:`Interconnect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import Engine, Event, SimulationError

__all__ = ["Interconnect", "Communicator", "RankComm", "MpiError"]


class MpiError(SimulationError):
    """Mismatched or invalid MPI usage in the simulated program."""


def _deliver(ev: Event, value: Any) -> None:
    """Succeed a collective event -- the completion the engine
    schedules after the modelled transfer time (pooled on the fast path,
    so this must stay a plain module function, not a closure)."""
    ev.succeed(value)


@dataclass(frozen=True)
class Interconnect:
    """Alpha-beta communication cost model (an immutable value).

    ``latency`` is the per-hop software+wire latency (seconds); ``bandwidth``
    is the per-link bandwidth (bytes/second).  Collectives are
    costed as ``ceil(log2(P))`` latency steps plus the serialized byte time
    of the data each rank contributes, which is the standard tree-algorithm
    estimate.  A zero-cost interconnect (a bare ``World``'s default) makes
    collectives pure synchronisation; simulated jobs take theirs from
    ``MachineConfig.interconnect``.
    """

    latency: float = 0.0
    bandwidth: float = float("inf")

    def collective_cost(self, nranks: int, nbytes: float) -> float:
        if nranks <= 1:
            return 0.0
        steps = max(1, (nranks - 1).bit_length())
        return steps * self.latency + nbytes / self.bandwidth


class _Collective:
    """Per-call-site rendezvous state for one collective invocation."""

    __slots__ = ("op", "values", "arrived", "events", "root")

    def __init__(self, op: str, nranks: int):
        self.op = op
        self.values: List[Any] = [None] * nranks
        self.arrived = 0
        self.events: List[Optional[Event]] = [None] * nranks
        self.root: Optional[int] = None


class Communicator:
    """The shared (all-ranks) state of a communicator."""

    def __init__(
        self,
        engine: Engine,
        nranks: int,
        interconnect: Optional[Interconnect] = None,
        name: str = "comm_world",
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.engine = engine
        self.size = int(nranks)
        self.interconnect = interconnect or Interconnect()
        self.name = name
        # collective progress: per-rank call counter and open rendezvous
        self._counters = [0] * self.size
        self._pending: Dict[int, _Collective] = {}
        self.collectives_completed = 0

    def rank_view(self, rank: int) -> "RankComm":
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return RankComm(self, rank)

    # -- collective machinery -------------------------------------------------
    def _join(
        self, rank: int, op: str, value: Any, root: Optional[int]
    ) -> Tuple[Event, _Collective]:
        seq = self._counters[rank]
        self._counters[rank] += 1
        state = self._pending.get(seq)
        if state is None:
            state = _Collective(op, self.size)
            self._pending[seq] = state
        if state.op != op:
            raise MpiError(
                f"collective mismatch on {self.name} call #{seq}: rank {rank} "
                f"called {op!r} but another rank called {state.op!r}"
            )
        if root is not None:
            if state.root is None:
                state.root = root
            elif state.root != root:
                raise MpiError(
                    f"root mismatch in {op!r} on {self.name}: "
                    f"{state.root} vs {root}"
                )
        if state.events[rank] is not None:
            raise MpiError(f"rank {rank} joined collective #{seq} twice")
        ev = self.engine.event()
        state.events[rank] = ev
        state.values[rank] = value
        state.arrived += 1
        if state.arrived == self.size:
            del self._pending[seq]
            self.collectives_completed += 1
        return ev, state

    def _complete(self, state: _Collective, results: List[Any], nbytes: float) -> None:
        cost = self.interconnect.collective_cost(self.size, nbytes)
        for r, ev in enumerate(state.events):
            result = results[r]
            if cost > 0:
                self.engine._complete_later(cost, _deliver, ev, result)
            else:
                ev.succeed(result)


def _payload_bytes(value: Any) -> float:
    """Rough byte size of a payload for the cost model."""
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            return float(value.nbytes)
    except Exception:  # pragma: no cover - numpy always present here
        pass
    if isinstance(value, (bytes, bytearray)):
        return float(len(value))
    if isinstance(value, (int, float, bool)) or value is None:
        return 8.0
    if isinstance(value, (list, tuple)):
        return 8.0 * max(len(value), 1)
    return 64.0


class RankComm:
    """One rank's handle on a :class:`Communicator`."""

    def __init__(self, comm: Communicator, rank: int):
        self._comm = comm
        self.rank = rank

    @property
    def size(self) -> int:
        return self._comm.size

    @property
    def engine(self) -> Engine:
        return self._comm.engine

    # -- collectives (generators) ---------------------------------------------
    def barrier(self):
        ev, state = self._comm._join(self.rank, "barrier", None, None)
        if state.arrived == self._comm.size:
            self._comm._complete(state, [None] * self._comm.size, 0.0)
        yield ev

    def gather(self, value: Any, root: int = 0):
        ev, state = self._comm._join(self.rank, "gather", value, root)
        if state.arrived == self._comm.size:
            gathered = list(state.values)
            results = [
                gathered if r == state.root else None
                for r in range(self._comm.size)
            ]
            nbytes = sum(_payload_bytes(v) for v in gathered)
            self._comm._complete(state, results, nbytes)
        result = yield ev
        return result

    def split(self, color: int, key: Optional[int] = None):
        """MPI_Comm_split: returns this rank's view of the new communicator."""
        key = self.rank if key is None else key
        ev, state = self._comm._join(
            self.rank, "split", (color, key, self.rank), None
        )
        if state.arrived == self._comm.size:
            groups: Dict[int, List[Tuple[int, int]]] = {}
            for c, k, r in state.values:
                groups.setdefault(c, []).append((k, r))
            # build one Communicator per color, ordered by key then old rank
            new_comms: Dict[int, Communicator] = {}
            assignment: Dict[int, Tuple[Communicator, int]] = {}
            for c, members in groups.items():
                members.sort()
                sub = Communicator(
                    self._comm.engine,
                    len(members),
                    self._comm.interconnect,
                    name=f"{self._comm.name}.split({c})",
                )
                new_comms[c] = sub
                for new_rank, (_k, old_rank) in enumerate(members):
                    assignment[old_rank] = (sub, new_rank)
            results = [
                assignment[r][0].rank_view(assignment[r][1])
                for r in range(self._comm.size)
            ]
            self._comm._complete(state, results, 8.0 * self._comm.size)
        result = yield ev
        return result
