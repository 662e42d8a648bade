"""Extent-lock (LDLM-like) contention model.

Lustre grants a client an extent lock per OST object region; when another
client writes an overlapping region the lock is revoked and re-granted,
costing a round trip plus cache flush.  With thousands of clients writing
interleaved, *unaligned* records into a shared file, every record crosses a
stripe owned by someone else and the locks ping-pong -- one of the two
mechanisms behind the slow GCRM baseline (the other is rank-0 metadata
serialisation).

The tracker keeps, per stripe, the last writing client, and charges a
revocation for every ownership change.  Granularity is one stripe, which is
exactly Lustre's unit of server-side ownership for the patterns studied
here.  Ownership is a dense table indexed by stripe (``-1`` = unowned), so
it grows to the highest stripe written; a wide write whose stripes are all
unowned or already the writer's is one slice grant, whatever its width.
"""

from __future__ import annotations

from typing import List, Optional

from .striping import StripeLayout

__all__ = ["ExtentLockTracker"]


#: Writes spanning fewer stripes than this walk every stripe.  Below it
#: slicing the table and counting owners costs more than the walk it
#: saves (GCRM's records span 1-3 stripes); the two break even near 8
#: stripes, in an alternating microbenchmark of 3..8-stripe aligned and
#: 1.5..19 MB unaligned writes on 1 MiB stripes (CPython 3.11).
_SLICE_MIN_STRIPES = 8

#: owner-table entry of a stripe nobody has written
_FREE = -1


class ExtentLockTracker:
    """Stripe-ownership bookkeeping for one file.  Client ids are
    non-negative (``-1`` marks an unowned stripe)."""

    def __init__(self, revoke_cost: float):
        self.revoke_cost = float(revoke_cost)
        #: stripe index -> client (node) id of last writer, or -1
        self._owner: List[int] = []
        self.revocations = 0
        self.grants = 0

    def write_penalty(
        self,
        client: int,
        layout: StripeLayout,
        offset: int,
        length: int,
        scale: float = 1.0,
        full_stripe_discount: float = 0.2,
    ) -> float:
        """Charge the lock cost of ``client`` writing the extent; update
        ownership.  Returns seconds of penalty.

        ``scale`` is the contention multiplier (revocations queue behind
        the OST's other clients); an ownership change of a *fully covered*
        stripe costs only ``full_stripe_discount`` of a revocation, since
        no cached data needs flushing back -- this is why the GCRM
        alignment fix removes the lock cost almost entirely.
        """
        if length <= 0:
            return 0.0
        first, last = layout.stripe_span(offset, length)
        owners = self._owner
        if last >= len(owners):  # grow by at least an eighth: amortised O(1)
            grow = max(last + 1 - len(owners), len(owners) >> 3)
            owners.extend([_FREE] * grow)
        stripes = range(first, last + 1)
        n = last - first + 1
        if n >= _SLICE_MIN_STRIPES:
            inner = owners[first + 1:last]
            free = inner.count(_FREE)
            if free + inner.count(client) == n - 2:
                # nobody else owns an inner stripe: grant them as one
                # slice; only the head and tail can still need revoking
                self.grants += free
                owners[first + 1:last] = [client] * (n - 2)
                stripes = (first, last)
        ss = layout.stripe_size
        # only the head and the tail stripe can be partially covered
        head_full = offset % ss == 0
        tail_full = (offset + length) % ss == 0
        penalty = 0.0
        for stripe in stripes:
            owner = owners[stripe]
            if owner == _FREE:
                self.grants += 1
            elif owner != client:
                self.revocations += 1
                full = (stripe > first or head_full) and (
                    stripe < last or tail_full
                )
                discount = full_stripe_discount if full else 1.0
                penalty += self.revoke_cost * scale * discount
            owners[stripe] = client
        return penalty

    def owner_of(self, stripe: int) -> Optional[int]:
        owners = self._owner
        if 0 <= stripe < len(owners) and owners[stripe] != _FREE:
            return owners[stripe]
        return None

    def reset(self) -> None:
        self._owner.clear()
