"""RAID-1-style replicated object placement over a stripe layout.

A :class:`ReplicatedLayout` keeps ``replica_count`` full copies of every
stripe (copy 0 is the *primary*), each copy served by a distinct OST.
Placement is deterministic: copy ``r`` of a stripe lives
``r * (n_osts // replica_count)`` devices after the primary, so copies of
one stripe are spread across failure domains and a replica can never land
on its primary's OST (the invariant the property suite enforces).

Why this exists: the paper's order-statistics argument says run time is
the N-th order statistic of the per-task distribution -- one slow device
in the tail defines the whole run.  The PR-1 fault layer could only
*retry against the same device*, so a stalled OST still cost the full
stall window.  With mirrored placement the client can instead fail over
to the surviving copy (see :class:`~repro.iosys.client.LustreClient`),
clipping the tail while the median -- served by healthy primaries --
stays put.  Writes pay for the redundancy up front: every copy consumes
real bandwidth and real RPCs on its own device.

Geometry lives on :attr:`base` (the primary copy's
:class:`~repro.iosys.striping.StripeLayout`); :meth:`replica` returns
the plain layout of any copy.  Besides copy placement, the descriptor
answers footprint queries: :meth:`bytes_per_ost` and
:meth:`osts_touched` report the extent's *full device footprint*, the
union over all copies -- what a mirrored write, which must reach every
copy, has to wait on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .striping import StripeLayout

__all__ = ["ReplicatedLayout"]


@dataclass(frozen=True)
class ReplicatedLayout:
    """Immutable mirrored-placement descriptor for one file."""

    base: StripeLayout
    replica_count: int

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise ValueError("replica_count must be >= 1")
        if self.replica_count > self.base.n_osts:
            raise ValueError(
                f"replica_count must be in [1, n_osts]: "
                f"{self.replica_count} vs {self.base.n_osts}"
            )

    # -- placement ------------------------------------------------------------
    @property
    def replica_shift(self) -> int:
        """Device distance between consecutive copies of one stripe.

        ``n_osts // replica_count`` spreads the copies evenly around the
        pool; for every ``0 < r < replica_count`` the offset
        ``r * shift`` is strictly inside ``(0, n_osts)``, which is what
        makes all copies of a stripe land on pairwise-distinct OSTs.
        """
        return max(self.base.n_osts // self.replica_count, 1)

    def replica(self, r: int) -> StripeLayout:
        """The plain stripe layout of copy ``r`` (copy 0 = the primary)."""
        if not (0 <= r < self.replica_count):
            raise ValueError(
                f"replica index {r} out of range for "
                f"{self.replica_count} copies"
            )
        if r == 0:
            return self.base
        return StripeLayout(
            stripe_size=self.base.stripe_size,
            stripe_count=self.base.stripe_count,
            n_osts=self.base.n_osts,
            start_ost=(self.base.start_ost + r * self.replica_shift)
            % self.base.n_osts,
        )

    def layouts(self) -> Tuple[StripeLayout, ...]:
        """Every copy's layout, primary first."""
        return tuple(self.replica(r) for r in range(self.replica_count))

    def ost_of_stripe(self, stripe_index: int, r: int = 0) -> int:
        """OST serving copy ``r`` of the given stripe."""
        return self.replica(r).ost_of_stripe(stripe_index)

    def replica_osts(self, stripe_index: int) -> Tuple[int, ...]:
        """All devices holding a copy of the stripe, primary first."""
        return tuple(
            self.ost_of_stripe(stripe_index, r)
            for r in range(self.replica_count)
        )

    def bytes_per_ost(self, offset: int, length: int) -> Dict[int, int]:
        """The extent's full device footprint: bytes each OST holds summed
        over **all** copies.

        Contract: a stalled device in this map affects *some* copy of the
        extent, not necessarily every copy -- so a stall query against
        this footprint answers "is any copy impaired?" (what a mirrored
        write, which must reach every copy, needs to know).  It does NOT
        mean the extent is unreadable; per-copy reachability -- "can copy
        ``r`` serve this read?" -- comes from querying ``replica(r)``'s
        own (single-copy) footprint instead."""
        acc: Dict[int, int] = {}
        for r in range(self.replica_count):
            for ost, nbytes in self.replica(r).bytes_per_ost(
                offset, length
            ).items():
                acc[ost] = acc.get(ost, 0) + nbytes
        return acc

    def osts_touched(self, offset: int, length: int) -> Tuple[int, ...]:
        """Devices of the full footprint (all copies), primary copy first."""
        seen: set = set()
        out: List[int] = []
        for r in range(self.replica_count):
            for ost in self.replica(r).osts_touched(offset, length):
                if ost not in seen:
                    seen.add(ost)
                    out.append(ost)
        return tuple(out)
