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
:class:`~repro.iosys.striping.StripeLayout`); every copy's plain layout
is built once, at construction, and :meth:`replica` returns the stored
one.  Besides copy placement, the descriptor answers footprint queries:
:meth:`bytes_per_ost` reports the extent's *full device footprint*,
the union over all copies -- what a mirrored write, which must reach
every copy, has to wait on.
:func:`union_footprint` forms that union from per-copy footprints a
caller already holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .striping import StripeLayout

__all__ = ["ReplicatedLayout", "union_footprint"]


def union_footprint(copies: Iterable[Dict[int, int]]) -> Dict[int, int]:
    """Bytes per device summed over per-copy footprints, keyed in copy
    order then each copy's own key order (primary first)."""
    acc: Dict[int, int] = {}
    for footprint in copies:
        for ost, nbytes in footprint.items():
            acc[ost] = acc.get(ost, 0) + nbytes
    return acc


@dataclass(frozen=True)
class ReplicatedLayout:
    """Immutable mirrored-placement descriptor for one file."""

    base: StripeLayout
    replica_count: int
    #: every copy's layout, primary first, built once from the fields
    _copies: Tuple[StripeLayout, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise ValueError("replica_count must be >= 1")
        if self.replica_count > self.base.n_osts:
            raise ValueError(
                f"replica_count must be in [1, n_osts]: "
                f"{self.replica_count} vs {self.base.n_osts}"
            )
        b, shift = self.base, self.replica_shift
        object.__setattr__(self, "_copies", (b,) + tuple(
            StripeLayout(
                stripe_size=b.stripe_size,
                stripe_count=b.stripe_count,
                n_osts=b.n_osts,
                start_ost=(b.start_ost + r * shift) % b.n_osts,
            )
            for r in range(1, self.replica_count)
        ))

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
        return self._copies[r]

    def layouts(self) -> Tuple[StripeLayout, ...]:
        """Every copy's layout, primary first."""
        return self._copies

    def ost_of_stripe(self, stripe_index: int, r: int = 0) -> int:
        """OST serving copy ``r`` of the given stripe."""
        return self.replica(r).ost_of_stripe(stripe_index)

    def replica_osts(self, stripe_index: int) -> Tuple[int, ...]:
        """All devices holding a copy of the stripe, primary first."""
        return tuple(c.ost_of_stripe(stripe_index) for c in self._copies)

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
        return union_footprint(
            c.bytes_per_ost(offset, length) for c in self._copies
        )

