"""Erasure-coded (k+m) object placement over a stripe layout.

An :class:`ErasureCodedLayout` groups every ``k`` consecutive data
stripes into a *stripe group* and protects each group with ``m`` parity
units.  All ``k + m`` units of a group live on pairwise-distinct OSTs:
the data units follow the base :class:`~repro.iosys.striping.StripeLayout`
round-robin (so every analysis keyed on the file's primary layout keeps
working unchanged), and the parity units are placed by scanning the
device ring from a start that *rotates with the group index*, skipping
the group's data devices -- RAID-5-style rotation, so no OST becomes a
dedicated parity target and parity write load stays balanced.

Why this exists: the PR-2 mirrors (:class:`ReplicatedLayout`) buy tail
protection by writing every byte ``replica_count`` times -- 1.0x payload
of redundant bytes per extra copy.  A k+m code tolerates the same ``m``
device losses for only ``m/k`` x payload of parity, at two modelling
costs this module makes explicit:

- *parity-update write penalty*: a sub-stripe write cannot recompute
  parity from the payload alone; the server must read the old data and
  the old parity before writing the new parity (the classic RAID small
  write problem).  A write covering a whole group pays none of that --
  just the ``(k+m)/k`` amplification.  :meth:`parity_updates` reports,
  per touched group, how many parity bytes move and whether the
  read-old round is owed.
- *degraded reads*: with a data unit unreachable, the missing range is
  rebuilt from ``k`` surviving units of its group -- reconstruction fans
  out across the survivors instead of landing on one mirror, clipping
  the tail like failover but loading every surviving device.
  :meth:`reconstruction_plan` picks the survivors.

Geometry lives on :attr:`base`, the data placement (also exposed as
:attr:`data_layout`).  The descriptor itself answers group and footprint
queries: :meth:`bytes_per_ost` reports the
extent's *full device footprint* -- data bytes plus the parity bytes
the extent's groups would update -- which is what write stall queries
and slow-factor maxima must consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .striping import StripeLayout

__all__ = ["ErasureCodedLayout", "ParityUpdate", "ReconstructionStep"]


@dataclass(frozen=True)
class ParityUpdate:
    """Parity work one write extent owes to one stripe group."""

    group: int
    #: bytes written to *each* of the group's ``m`` parity units (the
    #: union of the intra-stripe ranges the write covers in this group)
    nbytes: int
    #: True when the write freshly covers the whole group: parity is
    #: computed from the payload in hand and no read-old round is owed
    full: bool
    parity_osts: Tuple[int, ...]

    @property
    def total_parity_bytes(self) -> int:
        return self.nbytes * len(self.parity_osts)


@dataclass(frozen=True)
class ReconstructionStep:
    """One stripe group's share of a degraded read."""

    group: int
    #: bytes of the requested extent that sat on lost devices -- each of
    #: the ``k`` chosen survivors is read over this same range
    nbytes: int
    #: the ``k`` surviving units' devices the rebuild reads from
    survivor_osts: Tuple[int, ...]

    @property
    def fanout_bytes(self) -> int:
        return self.nbytes * len(self.survivor_osts)


@dataclass(frozen=True)
class ErasureCodedLayout:
    """Immutable k+m erasure-coded placement descriptor for one file."""

    base: StripeLayout
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError("erasure coding needs k >= 1 and m >= 1")
        if self.k > self.base.stripe_count:
            raise ValueError(
                f"k must not exceed the stripe count (a group's data "
                f"units must land on distinct devices): "
                f"{self.k} vs {self.base.stripe_count}"
            )
        if self.k + self.m > self.base.n_osts:
            raise ValueError(
                f"k + m must be in [2, n_osts]: "
                f"{self.k}+{self.m} vs {self.base.n_osts}"
            )

    @property
    def data_layout(self) -> StripeLayout:
        """The plain data placement (identical to the file's primary
        layout, so locate/diagnose machinery composes unchanged)."""
        return self.base

    # -- group structure ---------------------------------------------------
    @property
    def redundancy(self) -> float:
        """Stored bytes per payload byte: ``(k + m) / k``."""
        return (self.k + self.m) / self.k

    def data_osts(self, group: int) -> Tuple[int, ...]:
        """Devices of the group's ``k`` data units, unit order."""
        if group < 0:
            raise ValueError(f"group must be non-negative: {group}")
        return tuple(
            self.base.ost_of_stripe(group * self.k + u)
            for u in range(self.k)
        )

    def parity_osts(self, group: int) -> Tuple[int, ...]:
        """Devices of the group's ``m`` parity units.

        The scan start rotates with the group index, so consecutive
        groups park their parity on different devices (no dedicated
        parity OST); data devices of the *same* group are skipped, which
        with ``k + m <= n_osts`` guarantees all ``k + m`` units of the
        group land pairwise-distinct.
        """
        n = self.base.n_osts
        taken: Set[int] = set(self.data_osts(group))
        out: List[int] = []
        pos = (self.base.start_ost + self.base.stripe_count + group) % n
        while len(out) < self.m:
            if pos not in taken:
                out.append(pos)
                taken.add(pos)
            pos = (pos + 1) % n
        return tuple(out)

    def group_osts(self, group: int) -> Tuple[int, ...]:
        """All ``k + m`` unit devices of the group, data units first."""
        return self.data_osts(group) + self.parity_osts(group)

    def groups_for(self, offset: int, length: int) -> List[int]:
        """Stripe groups an extent touches, ascending."""
        first, last = self.base.stripe_span(offset, length)
        return list(range(first // self.k, last // self.k + 1)) if length else []

    def _pieces(self, offset: int, length: int) -> Iterator[Tuple[int, int, int]]:
        """``(stripe, lo, hi)`` for every stripe the extent touches, in
        order: ``[lo, hi)`` is the intra-stripe byte range it covers."""
        first, last = self.base.stripe_span(offset, length)
        ss = self.base.stripe_size
        for stripe in range(first, last + 1) if length else ():
            at = stripe * ss
            yield stripe, max(offset - at, 0), min(offset + length - at, ss)

    # -- the parity-update write model -------------------------------------
    def _group_ranges(
        self, offset: int, length: int
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Per-group intra-stripe byte ranges the extent writes."""
        ranges: Dict[int, List[Tuple[int, int]]] = {}
        for stripe, lo, hi in self._pieces(offset, length):
            ranges.setdefault(stripe // self.k, []).append((lo, hi))
        return ranges

    @staticmethod
    def _union_length(ranges: List[Tuple[int, int]]) -> int:
        total = 0
        end = -1
        for lo, hi in sorted(ranges):
            lo = max(lo, end)
            if hi > lo:
                total += hi - lo
                end = hi
            end = max(end, hi)
        return total

    def parity_updates(self, offset: int, length: int) -> List[ParityUpdate]:
        """The parity work a write extent owes, one record per group.

        Each parity unit mirrors the *union* of the intra-stripe ranges
        the write covers in its group (parity byte i protects byte i of
        every data unit), so a full-group write moves exactly
        ``m * stripe_size`` parity bytes -- the ``(k+m)/k`` amplification
        -- while a sub-stripe write of ``b`` bytes moves ``m * b`` and
        additionally owes the read-old-data + read-old-parity round
        (``full=False``) before the new parity can be computed.
        """
        out: List[ParityUpdate] = []
        for g, ranges in sorted(self._group_ranges(offset, length).items()):
            union = self._union_length(ranges)
            if union <= 0:
                continue
            covered = sum(hi - lo for lo, hi in ranges)
            full = covered == self.k * self.base.stripe_size
            out.append(
                ParityUpdate(
                    group=g,
                    nbytes=union,
                    full=full,
                    parity_osts=self.parity_osts(g),
                )
            )
        return out

    def parity_bytes_for(self, offset: int, length: int) -> int:
        """Total parity bytes a write extent puts on parity devices."""
        return sum(u.total_parity_bytes for u in self.parity_updates(offset, length))

    # -- footprints --------------------------------------------------------
    def bytes_per_ost(
        self, offset: int, length: int,
        data: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """The extent's full device footprint: data bytes plus the parity
        bytes its groups would update.  This is the set a *write* stall
        query must consult -- a stalled parity device blocks the commit
        just as a stalled data device does.  Data-only placement (what a
        read touches) comes from ``data_layout.bytes_per_ost``; a caller
        that already holds it passes it as ``data`` (it is not changed)."""
        if data is None:
            data = self.base.bytes_per_ost(offset, length)
        acc: Dict[int, int] = dict(data)
        for upd in self.parity_updates(offset, length):
            for d in upd.parity_osts:
                acc[d] = acc.get(d, 0) + upd.nbytes
        return acc

    # -- degraded reads ----------------------------------------------------
    def reconstruction_plan(
        self,
        offset: int,
        length: int,
        lost: Iterable[int],
        avoid: Iterable[int] = (),
    ) -> List[ReconstructionStep]:
        """How a degraded read rebuilds the extent's bytes on ``lost``
        devices: per affected group, read the lost range from ``k``
        surviving units (data units preferred, then parity), never
        touching a device in ``avoid`` (lost devices are always avoided).

        Raises :class:`ValueError` when some group has fewer than ``k``
        usable units -- more than ``m`` of its devices are gone, the
        code's tolerance is exceeded, and the caller must ride the stall
        out instead.
        """
        lost_set = set(lost)
        avoid_set = set(avoid) | lost_set
        per_group: Dict[int, List[Tuple[int, int]]] = {}
        for stripe, lo, hi in self._pieces(offset, length):
            if self.base.ost_of_stripe(stripe) in lost_set:
                per_group.setdefault(stripe // self.k, []).append((lo, hi))
        out: List[ReconstructionStep] = []
        for g, ranges in sorted(per_group.items()):
            survivors = [d for d in self.group_osts(g) if d not in avoid_set]
            if len(survivors) < self.k:
                raise ValueError(
                    f"group {g} has {len(survivors)} usable units, "
                    f"needs {self.k}: loss exceeds the code's tolerance"
                )
            out.append(
                ReconstructionStep(
                    group=g,
                    nbytes=self._union_length(ranges),
                    survivor_osts=tuple(survivors[: self.k]),
                )
            )
        return out
