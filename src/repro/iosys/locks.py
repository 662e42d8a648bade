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
here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .striping import StripeLayout

__all__ = ["ExtentLockTracker"]


class ExtentLockTracker:
    """Stripe-ownership bookkeeping for one file."""

    def __init__(self, revoke_cost: float):
        self.revoke_cost = float(revoke_cost)
        #: stripe index -> client (node) id of last writer
        self._owner: Dict[int, int] = {}
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
        ss = layout.stripe_size
        # only the head and the tail stripe can be partially covered
        head_full = offset % ss == 0
        tail_full = (offset + length) % ss == 0
        owners = self._owner
        penalty = 0.0
        for stripe in range(first, last + 1):
            owner = owners.get(stripe)
            if owner is None:
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
        return self._owner.get(stripe)

    def reset(self) -> None:
        self._owner.clear()
