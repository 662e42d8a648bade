"""Lustre-style stripe layout arithmetic.

A file's byte stream is chopped into ``stripe_size`` stripes distributed
round-robin over ``stripe_count`` OSTs starting at ``start_ost``.  The
functions here answer the questions the penalty model needs:

- which OSTs (and how many bytes each) does an extent touch,
- how many stripe *boundaries* does an extent cross,
- which stripes are only *partially* covered (triggering read-modify-write
  at the server for writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = ["StripeLayout", "Extent", "partial_stripe_count"]


def partial_stripe_count(stripe_size: int, offset: int, length: int) -> int:
    """Stripes the non-empty extent ``[offset, offset+length)`` touches
    but does not fully cover: at most the head and the tail stripe, and
    only one when the extent lies inside a single stripe.  Arithmetic
    only, no validation (see :meth:`StripeLayout.partial_stripes`)."""
    head = offset % stripe_size
    ragged = (head != 0) + ((offset + length) % stripe_size != 0)
    return min(ragged, 1) if head + length <= stripe_size else ragged


@dataclass(frozen=True)
class Extent:
    """A contiguous byte range of one stripe, mapped to its OST."""

    ost: int
    stripe_index: int
    offset: int  # file offset of the first byte
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class StripeLayout:
    """Immutable layout descriptor for one file."""

    stripe_size: int
    stripe_count: int
    n_osts: int
    start_ost: int = 0

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if not (1 <= self.stripe_count <= self.n_osts):
            raise ValueError(
                f"stripe_count must be in [1, n_osts]: "
                f"{self.stripe_count} vs {self.n_osts}"
            )
        if not (0 <= self.start_ost < self.n_osts):
            raise ValueError("start_ost out of range")

    def ost_of_stripe(self, stripe_index: int) -> int:
        """OST serving the given stripe (round-robin placement)."""
        return (self.start_ost + stripe_index % self.stripe_count) % self.n_osts

    def stripe_of_offset(self, offset: int) -> int:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return offset // self.stripe_size

    def stripe_span(self, offset: int, length: int) -> Tuple[int, int]:
        """First and last stripe index ``[offset, offset+length)`` touches.

        The closed-form core of every per-extent query, so all of them
        reject negative input with the same error.  The pair means
        nothing for an empty extent."""
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        return (
            offset // self.stripe_size,
            (offset + length - 1) // self.stripe_size,
        )

    def extents(self, offset: int, length: int) -> List[Extent]:
        """Split ``[offset, offset+length)`` into per-stripe extents.

        An inspection API: the simulator's queries below are closed-form
        and never build these records."""
        self.stripe_span(offset, length)  # validates
        out: List[Extent] = []
        pos = offset
        end = offset + length
        while pos < end:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            chunk = min(end, stripe_end) - pos
            out.append(
                Extent(
                    ost=self.ost_of_stripe(stripe),
                    stripe_index=stripe,
                    offset=pos,
                    length=chunk,
                )
            )
            pos += chunk
        return out

    def bytes_per_ost(self, offset: int, length: int) -> Dict[int, int]:
        """Total bytes an extent sends to each OST, keyed in stripe order.

        Closed form: the ``n`` touched stripes deal round-robin onto
        ``min(n, stripe_count)`` distinct devices.  The ``i``-th holds
        ``n // stripe_count`` stripes, plus one while
        ``i < n % stripe_count``, less the uncovered head of the first
        stripe (``i == 0``) and the uncovered tail of the last
        (``i == (n-1) % stripe_count``).
        """
        first, last = self.stripe_span(offset, length)
        if length == 0:
            return {}
        ss, sc = self.stripe_size, self.stripe_count
        start, n_osts = self.start_ost, self.n_osts
        if first == last:  # single-stripe extent
            return {(start + first % sc) % n_osts: length}
        if last - first < sc:  # one stripe per device, as GCRM's records
            acc = {(start + first % sc) % n_osts: (first + 1) * ss - offset}
            for k in range(first + 1, last):
                acc[(start + k % sc) % n_osts] = ss
            acc[(start + last % sc) % n_osts] = offset + length - last * ss
            return acc
        n = last - first + 1
        rounds, extra = divmod(n, sc)
        tail_dev = (n - 1) % sc
        acc: Dict[int, int] = {}
        for i in range(min(n, sc)):
            nbytes = (rounds + (i < extra)) * ss
            if i == 0:
                nbytes -= offset - first * ss
            if i == tail_dev:
                nbytes -= (last + 1) * ss - offset - length
            acc[(start + (first + i) % sc) % n_osts] = nbytes
        return acc

    def osts_touched(self, offset: int, length: int) -> Tuple[int, ...]:
        """The devices an extent touches, in stripe order, for callers
        that need the set but not the byte split.  They are pairwise
        distinct because ``stripe_count <= n_osts``."""
        first, last = self.stripe_span(offset, length)
        if length == 0:
            return ()
        start, sc, n_osts = self.start_ost, self.stripe_count, self.n_osts
        return tuple(
            (start + k % sc) % n_osts
            for k in range(first, first + min(last - first + 1, sc))
        )

    def boundary_crossings(self, offset: int, length: int) -> int:
        """Number of stripe boundaries strictly inside the extent."""
        first, last = self.stripe_span(offset, length)
        return last - first if length else 0

    def partial_stripes(self, offset: int, length: int) -> int:
        """Stripes touched but not fully covered by the extent.

        A write to a partial stripe forces the server to read-modify-write
        the stripe (or take a sub-stripe lock), which is the mechanism the
        GCRM alignment optimization removes.  Only the head and the tail
        stripe can be partial.
        """
        self.stripe_span(offset, length)  # validates
        if length == 0:
            return 0
        return partial_stripe_count(self.stripe_size, offset, length)

    def is_aligned(self, offset: int, length: int) -> bool:
        """True when the extent starts and ends on stripe boundaries."""
        self.stripe_span(offset, length)  # validates
        return (
            offset % self.stripe_size == 0
            and (offset + length) % self.stripe_size == 0
        )

    def rpcs_for(self, length: int, rpc_size: int) -> int:
        """Number of bulk RPCs needed to move ``length`` bytes."""
        if rpc_size <= 0:
            raise ValueError(f"rpc_size must be positive: {rpc_size}")
        if length <= 0:
            return 0
        return (length + rpc_size - 1) // rpc_size
