"""Trace event containers.

IPM-I/O "collects timestamped trace entries containing the libc call, its
arguments, and its duration".  :class:`TraceEvent` is one such entry;
:class:`Trace` is the merged, queryable collection for a run.

The container is column-oriented and owns its storage.  Every event is
stored once, in one of two places: the *folded* columns, one NumPy array
of a fixed dtype per column of :data:`COLUMNS` (object arrays for the
strings, int64/float64/bool elsewhere), or the *tail*, one Python list
per column that :meth:`Trace.record` appends to while a run is traced --
the cheapest append there is.  The first query after a run moves the
tail into the arrays, so later queries convert nothing.  No query walks
the events one at a time: :meth:`Trace.filter` builds its mask from
vectorised comparisons and gathers the selected events by fancy
indexing, so slicing a 10,240-task trace into ensembles stays cheap --
the "lightweight and scalable" property the paper leans on.  Iteration and indexing still yield plain Python ``int``/``float``/
``bool``/``str`` values.

Other modules read and build traces only through the public surface (the
column properties and :meth:`Trace.column`, :meth:`Trace.record`,
iteration, and :meth:`Trace.from_columns`), so the storage decision lives
here alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "TraceEvent", "Trace", "COLUMNS", "DATA_OPS", "READ_OPS", "WRITE_OPS",
]

DATA_OPS = ("read", "write", "pread", "pwrite")
READ_OPS = ("read", "pread")
WRITE_OPS = ("write", "pwrite")

#: the trace format: one column per :class:`TraceEvent` field, in field
#: order, with the dtype its column property returns
_DTYPES: Dict[str, Any] = {
    "rank": np.int64,
    "op": object,
    "path": object,
    "fd": np.int64,
    "offset": np.int64,
    "size": np.int64,
    "t_start": np.float64,
    "duration": np.float64,
    "phase": object,
    "degraded": bool,
}
COLUMNS = tuple(_DTYPES)


@dataclass(frozen=True)
class TraceEvent:
    """One intercepted libc call."""

    rank: int
    op: str
    path: str
    fd: int
    offset: int
    size: int
    t_start: float
    duration: float
    phase: str = ""
    degraded: bool = False

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def rate(self) -> float:
        """Bytes per second (inf for zero-duration ops)."""
        if self.duration <= 0:
            return float("inf")
        return self.size / self.duration


def _reject_str(name: str, value: Any) -> None:
    """A bare string would be read as the collection of its characters."""
    if isinstance(value, str):
        raise TypeError(
            f"Trace.filter({name}=...) takes a collection, not the string "
            f"{value!r}; pass {name}=[{value!r}]"
        )


class Trace:
    """Column-oriented event log with the filters the methodology needs."""

    def __init__(self, events: Optional[Iterable[TraceEvent]] = None):
        #: the folded events: one array per column, in :data:`COLUMNS` order
        self._arrays: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in _DTYPES.items()
        }
        #: the tail: events recorded since the last fold, one list per column
        self._rank: List[int] = []
        self._op: List[str] = []
        self._path: List[str] = []
        self._fd: List[int] = []
        self._offset: List[int] = []
        self._size: List[int] = []
        self._t_start: List[float] = []
        self._duration: List[float] = []
        self._phase: List[str] = []
        self._degraded: List[bool] = []
        if events:
            for ev in events:
                self.append(ev)

    @classmethod
    def from_columns(cls, **columns: Sequence[Any]) -> "Trace":
        """A trace from one equal-length sequence or array per name in
        :data:`COLUMNS`; each is copied into a column of its fixed dtype."""
        if set(columns) != set(COLUMNS):
            raise ValueError(
                f"from_columns needs exactly the columns {COLUMNS}, got "
                f"{tuple(sorted(columns))}"
            )
        arrays = {
            name: np.array(columns[name], dtype=dtype)
            for name, dtype in _DTYPES.items()
        }
        shapes = sorted({a.shape for a in arrays.values()})
        if len(shapes) > 1 or len(shapes[0]) != 1:
            raise ValueError(
                f"columns must be 1-d of one length, got shapes {shapes}"
            )
        out = cls()
        out._arrays = arrays
        return out

    def _columns(self) -> Dict[str, np.ndarray]:
        """The folded columns, after moving the tail into them."""
        if self._op:
            for name, dtype in _DTYPES.items():
                tail = getattr(self, f"_{name}")
                self._arrays[name] = np.concatenate([
                    self._arrays[name],
                    np.fromiter(tail, dtype=dtype, count=len(tail)),
                ])
                tail.clear()
        return self._arrays

    # -- collection --------------------------------------------------------
    def append(self, ev: TraceEvent) -> None:
        self.record(
            ev.rank, ev.op, ev.path, ev.fd, ev.offset, ev.size, ev.t_start,
            ev.duration, phase=ev.phase, degraded=ev.degraded,
        )

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
        phase: str = "",
        degraded: bool = False,
    ) -> None:
        """Append without constructing a TraceEvent (hot path)."""
        self._rank.append(rank)
        self._op.append(op)
        self._path.append(path)
        self._fd.append(fd)
        self._offset.append(offset)
        self._size.append(size)
        self._t_start.append(t_start)
        self._duration.append(duration)
        self._phase.append(phase)
        self._degraded.append(degraded)

    def extend(self, other: "Trace") -> None:
        theirs = other._columns()
        self._arrays = {
            name: np.concatenate([col, theirs[name]])
            for name, col in self._columns().items()
        }

    def __len__(self) -> int:
        return len(self._arrays["op"]) + len(self._op)

    def nbytes(self) -> int:
        """Bytes held by the trace's own storage: every folded column's
        buffer plus every tail list, wherever the events sit now.  The
        measure beside :meth:`IoProfile.nbytes`; the string and number
        objects the object columns and the tail point to are not
        counted."""
        folded = sum(col.nbytes for col in self._arrays.values())
        tail = sum(sys.getsizeof(getattr(self, f"_{name}")) for name in _DTYPES)
        return folded + tail

    def __iter__(self) -> Iterator[TraceEvent]:
        columns = self._columns().values()
        return map(TraceEvent, *(col.tolist() for col in columns))

    def __getitem__(self, i: int) -> TraceEvent:
        return TraceEvent(*(col.item(i) for col in self._columns().values()))

    # -- columns ------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """A copy of column ``name`` of :data:`COLUMNS`, of its fixed dtype."""
        return self._columns()[name].copy()

    @property
    def ranks(self) -> np.ndarray:
        return self.column("rank")

    @property
    def ops(self) -> np.ndarray:
        return self.column("op")

    @property
    def sizes(self) -> np.ndarray:
        return self.column("size")

    @property
    def offsets(self) -> np.ndarray:
        return self.column("offset")

    @property
    def starts(self) -> np.ndarray:
        return self.column("t_start")

    @property
    def durations(self) -> np.ndarray:
        return self.column("duration")

    @property
    def ends(self) -> np.ndarray:
        cols = self._columns()
        return cols["t_start"] + cols["duration"]

    @property
    def paths(self) -> np.ndarray:
        return self.column("path")

    @property
    def fds(self) -> np.ndarray:
        return self.column("fd")

    @property
    def phases(self) -> np.ndarray:
        return self.column("phase")

    @property
    def degraded_flags(self) -> np.ndarray:
        return self.column("degraded")

    # -- filters ------------------------------------------------------------
    def _mask_select(self, mask: np.ndarray) -> "Trace":
        idx = np.flatnonzero(mask)
        out = Trace()
        out._arrays = {name: col[idx] for name, col in self._columns().items()}
        return out

    def filter(
        self,
        ops: Optional[Sequence[str]] = None,
        ranks: Optional[Sequence[int]] = None,
        phase: Optional[str] = None,
        path: Optional[str] = None,
        min_size: Optional[int] = None,
        max_size: Optional[int] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> "Trace":
        _reject_str("ops", ops)
        _reject_str("ranks", ranks)
        cols = self._columns()
        mask = np.ones(len(self), dtype=bool)
        if ops is not None:
            mask &= np.isin(cols["op"], list(ops))
        if ranks is not None:
            mask &= np.isin(cols["rank"], list(ranks))
        if phase is not None:
            mask &= cols["phase"] == phase
        if path is not None:
            mask &= cols["path"] == path
        if min_size is not None:
            mask &= cols["size"] >= min_size
        if max_size is not None:
            mask &= cols["size"] <= max_size
        if t_min is not None:
            mask &= cols["t_start"] >= t_min
        if t_max is not None:
            mask &= cols["t_start"] < t_max
        return self._mask_select(mask)

    def reads(self) -> "Trace":
        return self.filter(ops=READ_OPS)

    def writes(self) -> "Trace":
        return self.filter(ops=WRITE_OPS)

    def data_ops(self) -> "Trace":
        return self.filter(ops=DATA_OPS)

    # -- summaries ------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes moved by data ops.  Non-data events reuse the ``size``
        column for other payloads (``retry`` stores the resend count), so
        the sum is restricted to reads and writes."""
        cols = self._columns()
        return int(cols["size"][np.isin(cols["op"], DATA_OPS)].sum())

    @property
    def t_first(self) -> float:
        return float(self.starts.min()) if len(self) else 0.0

    @property
    def t_last(self) -> float:
        return float(self.ends.max()) if len(self) else 0.0

    @property
    def span(self) -> float:
        return self.t_last - self.t_first if len(self) else 0.0

    def phase_names(self) -> List[str]:
        """Distinct phase labels in order of first appearance."""
        return list(dict.fromkeys(self._columns()["phase"].tolist()))

    def by_phase(self) -> Dict[str, "Trace"]:
        return {p: self.filter(phase=p) for p in self.phase_names()}

    def per_rank_totals(self, nranks: Optional[int] = None) -> np.ndarray:
        """Sum of durations per rank (the t_k of the LLN analysis)."""
        cols = self._columns()
        ranks = cols["rank"]
        top = int(ranks.max()) if len(ranks) else -1
        n = top + 1 if nranks is None else int(nranks)
        if n <= top:
            raise ValueError(
                f"per_rank_totals(nranks={n}) cannot hold rank {top}: "
                f"nranks must exceed the largest rank in the trace"
            )
        out = np.zeros(n, dtype=float)
        np.add.at(out, ranks, cols["duration"])
        return out
