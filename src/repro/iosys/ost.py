"""Object storage target (OST) pool.

Bandwidth metering happens at the node channel (see ``client.py``), so the
OST pool's job is the *latency/penalty* side of the model plus accounting:

- per-RPC software overhead (``rpc_overhead`` x number of bulk RPCs),
- read-modify-write penalties for partially covered stripes,
- service-time noise and rare heavy-tail events (the run-to-run variability
  the paper's ensemble view is designed to see through),
- byte/request counters per OST for diagnostics and load-balance tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..sim.rng import RngStreams
from .erasure import ErasureCodedLayout
from .machine import MachineConfig
from .striping import StripeLayout, partial_stripe_count

__all__ = ["OstPool"]

#: Extents that touch at least this many devices (and run without
#: telemetry) are booked by slicing the layout's device cycle instead of
#: one NumPy scalar update per device.  The slices cost a fixed ~2-4 us;
#: in an alternating microbenchmark (write + read of 4..64-stripe
#: extents on 6..48-device layouts, CPython 3.11, NumPy 2.4) they broke
#: even at 6 devices and won by 15-35% at 8.  The test puts the stripe
#: count first: on a narrow layout (GCRM's 5 devices) it then costs one
#: comparison, which left the narrow path's time unchanged.
_SLICED_MIN_OSTS = 8


class OstPool:
    """Statistics and penalty model for the machine's OSTs."""

    def __init__(self, config: MachineConfig, rng: RngStreams):
        self.config = config
        self.rng = rng
        #: optional TelemetryCollector; every hook below is guarded so the
        #: disabled path costs one attribute check
        self.telemetry = None
        self.bytes_written = np.zeros(config.n_osts, dtype=float)
        self.bytes_read = np.zeros(config.n_osts, dtype=float)
        self.rpcs = np.zeros(config.n_osts, dtype=int)
        self.rmw_events = 0
        #: reads served from a surviving copy while the primary was down
        self.degraded_reads = 0
        #: replica copies a write skipped because their device was stalled
        self.stale_marks = 0
        #: payload bytes those skipped copies never received (resync debt)
        self.stale_bytes = 0
        #: parity bytes erasure-coded writes put on parity devices
        self.parity_bytes = 0
        #: read-old-data + read-old-parity rounds owed by sub-group writes
        self.parity_updates = 0
        #: stripe groups rebuilt by degraded reads (reconstruction fan-out)
        self.ec_reconstructions = 0
        #: total bytes reconstruction reads pulled off surviving devices
        self.recon_bytes = 0
        #: per-OST reconstruction-read load (rebuild pressure on survivors)
        self.recon_reads = np.zeros(config.n_osts, dtype=float)
        #: service stream -> its (tail test, tail factor) stream names
        self._tail_names: Dict[str, Tuple[str, str]] = {}
        #: (start_ost, stripe_count, n_osts) -> the layout's devices in
        #: stripe order twice over, and sorted (see :meth:`_book_sliced`)
        self._cycles: Dict[
            Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]
        ] = {}

    # -- penalties ---------------------------------------------------------
    def write_penalty(
        self,
        layout: StripeLayout,
        offset: int,
        length: int,
        contention: float = 1.0,
        tenant: int = 0,
        footprint: Optional[Dict[int, int]] = None,
    ) -> float:
        """RPC overhead + RMW cost for a write extent; updates counters.

        ``contention`` scales the RMW term: a read-modify-write queues
        behind every other client hammering the same OST, so its effective
        cost grows with the population (see FsArbiter.contention).
        ``tenant`` attributes the traffic on shared machines.
        ``footprint`` is ``layout.bytes_per_ost(offset, length)`` when the
        caller already holds it (see :meth:`_book`).

        The RPC and partial-stripe counts are plain arithmetic on the
        extent.
        """
        cfg = self.config
        rpc_size = cfg.rpc_size
        n_rpcs = (length + rpc_size - 1) // rpc_size
        tel = self.telemetry
        self._book(
            layout, offset, length, n_rpcs, self.bytes_written,
            None if tel is None else tel.record_in, tenant, footprint,
        )
        if not length:
            return 0.0
        penalty = n_rpcs * cfg.rpc_overhead
        if cfg.rmw_cost > 0:
            partial = partial_stripe_count(layout.stripe_size, offset, length)
            if partial:
                self.rmw_events += partial
                penalty += partial * cfg.rmw_cost * contention
        return penalty

    def read_penalty(
        self,
        layout: StripeLayout,
        offset: int,
        length: int,
        tenant: int = 0,
        footprint: Optional[Dict[int, int]] = None,
    ) -> float:
        """RPC overhead for a read extent; updates counters.
        ``footprint`` as in :meth:`write_penalty`."""
        cfg = self.config
        n_rpcs = layout.rpcs_for(length, cfg.rpc_size)
        tel = self.telemetry
        self._book(
            layout, offset, length, n_rpcs, self.bytes_read,
            None if tel is None else tel.record_out, tenant, footprint,
        )
        return n_rpcs * cfg.rpc_overhead

    def _book(
        self, layout: StripeLayout, offset: int, length: int, n_rpcs: int,
        counter: np.ndarray, hook: Optional[Callable[..., None]], tenant: int,
        footprint: Optional[Dict[int, int]],
    ) -> None:
        """Book an extent's bytes on ``counter`` and its ``n_rpcs`` on
        ``rpcs``.  ``hook`` is the telemetry's per-device recorder, or
        None.  Without one, an extent that touches at least
        ``_SLICED_MIN_OSTS`` devices takes :meth:`_book_sliced`, which
        needs no footprint; any other goes device by device over
        ``footprint``, derived here (validating the extent) when the
        caller passed none."""
        if (
            layout.stripe_count >= _SLICED_MIN_OSTS
            and hook is None
            and length >= _SLICED_MIN_OSTS * layout.stripe_size
        ):
            self._book_sliced(layout, offset, length, n_rpcs, counter)
            return
        acc = (
            layout.bytes_per_ost(offset, length)
            if footprint is None else footprint
        )
        base, extra = divmod(n_rpcs, len(acc)) if acc else (0, 0)
        rpcs = self.rpcs
        # RPCs round-robin over the touched OSTs: ost i of n gets one
        # extra while i < n_rpcs mod n
        for i, ost in enumerate(sorted(acc)):
            nbytes = acc[ost]
            share = base + (1 if i < extra else 0)
            counter[ost] += nbytes
            rpcs[ost] += share
            if hook is not None:
                hook(ost, nbytes, share, tenant)

    def _book_sliced(
        self,
        layout: StripeLayout,
        offset: int,
        length: int,
        n_rpcs: int,
        counter: np.ndarray,
    ) -> None:
        """Book a wide extent's bytes on ``counter`` and its ``n_rpcs`` on
        ``rpcs`` in a fixed number of array operations.  The ``n``
        touched stripes deal onto a slice of the layout's device cycle
        (stored twice over, so a rotated run is still one slice): each
        device gets ``n // stripe_count`` stripes, the first
        ``n % stripe_count`` one more, and the head and tail devices lose
        the uncovered part of their stripe.  A device's bytes arrive in
        up to four additions instead of one, but every partial sum is an
        integer below 2**53, so the floats equal the per-device loop's.
        The extra RPCs go to the lowest-numbered devices, as the loop's
        ``sorted(acc)`` deals them."""
        first, last = layout.stripe_span(offset, length)
        ss, sc = layout.stripe_size, layout.stripe_count
        key = (layout.start_ost, sc, layout.n_osts)
        cycle = self._cycles.get(key)
        if cycle is None:
            osts = [layout.ost_of_stripe(k) for k in range(sc)]
            cycle = self._cycles[key] = (
                np.array(osts * 2), np.array(sorted(osts))
            )
        twice, ordered = cycle
        n = last - first + 1
        m = min(n, sc)
        r0 = first % sc
        devs = twice[r0:r0 + m]
        rounds, extra = divmod(n, sc)
        if rounds:
            counter[devs] += rounds * ss
        if extra:
            counter[devs[:extra]] += ss
        head = offset - first * ss
        if head:
            counter[twice[r0]] -= head
        tail = (last + 1) * ss - offset - length
        if tail:
            counter[twice[r0 + (n - 1) % sc]] -= tail
        base, more = divmod(n_rpcs, m)
        if base:
            self.rpcs[devs] += base
        if more:
            low = ordered if m == sc else np.sort(devs)
            self.rpcs[low[:more]] += 1

    def degraded_read_penalty(
        self, layout: StripeLayout, length: int, footprint: Dict[int, int],
    ) -> float:
        """Surcharge of a *degraded* read: the primary copy is behind a
        stall, so the extent is reconstructed from a surviving replica --
        each bulk RPC additionally pays the replica lookup and the
        consistency check against the (possibly stale) primary extent.
        Counts toward ``degraded_reads``; the bulk bytes themselves are
        accounted by the ordinary :meth:`read_penalty` on the replica's
        layout.  ``footprint`` is the serving copy's bytes per device,
        which telemetry records."""
        cfg = self.config
        self.degraded_reads += 1
        if self.telemetry is not None:
            self.telemetry.record_degraded(footprint)
        n_rpcs = layout.rpcs_for(length, cfg.rpc_size)
        return n_rpcs * cfg.degraded_read_cost

    def ec_write_penalty(
        self,
        ec: ErasureCodedLayout,
        offset: int,
        length: int,
        footprint: Dict[int, int],
        contention: float = 1.0,
        tenant: int = 0,
    ) -> "tuple[float, int]":
        """Penalty and parity bytes of an erasure-coded write extent.

        The data side is the ordinary :meth:`write_penalty` on the base
        layout, handed ``footprint`` (the extent's bytes per data device).  On top
        of it, each touched stripe group owes its parity
        maintenance: ``m`` parity units each mirroring the written range
        (RPC overhead + bytes on the parity devices), and -- for groups
        the write only *partially* covers -- one read-old-data +
        read-old-parity round (the RAID small-write problem), scaled by
        ``contention`` exactly like RMW.  A full-group write pays none of
        the read-old rounds, just the ``(k+m)/k`` byte amplification.

        Returns ``(penalty_seconds, parity_bytes)`` so the caller can
        amplify the wire transfer by the parity share.
        """
        cfg = self.config
        penalty = self.write_penalty(
            ec.data_layout, offset, length, contention, tenant, footprint
        )
        total_parity = 0
        tel = self.telemetry
        for upd in ec.parity_updates(offset, length):
            per_unit_rpcs = ec.base.rpcs_for(upd.nbytes, cfg.rpc_size)
            penalty += per_unit_rpcs * len(upd.parity_osts) * cfg.rpc_overhead
            for d in upd.parity_osts:
                self.bytes_written[d] += upd.nbytes
                self.rpcs[d] += per_unit_rpcs
                if tel is not None:
                    tel.record_write(d, upd.nbytes, tenant)
                    tel.record_parity(d, upd.nbytes)
                    tel.record_rpcs(d, per_unit_rpcs, tenant)
            total_parity += upd.total_parity_bytes
            if not upd.full and cfg.parity_update_cost > 0:
                self.parity_updates += 1
                penalty += cfg.parity_update_cost * contention
        self.parity_bytes += total_parity
        return penalty, total_parity

    def ec_degraded_read_penalty(
        self,
        ec: ErasureCodedLayout,
        offset: int,
        length: int,
        lost: "tuple[int, ...]",
        avoid: "tuple[int, ...]" = (),
        tenant: int = 0,
    ) -> "tuple[float, int, int]":
        """Penalty and extra wire bytes of a *degraded* erasure-coded read.

        The bytes on healthy data devices are served normally (accounted
        by the ordinary :meth:`read_penalty` the caller issues on the base
        layout).  The bytes on ``lost`` devices are rebuilt per stripe
        group by reading the missing range from ``k`` survivors -- the
        reconstruction fan-out that loads every surviving device instead
        of one mirror.  Each survivor RPC pays ``ec_reconstruct_cost`` on
        top of the stock overhead.  The gather-and-decode is offloaded to
        the server fabric (which is provisioned for rebuild traffic), so
        the client receives only the payload; the cost the code cannot
        hide is the *device* load, and survivor reads land in
        ``recon_reads`` (rebuild pressure), not ``bytes_read``, so
        payload accounting stays conserved.

        Returns ``(penalty_seconds, fanout_bytes, n_groups)`` where the
        fan-out bytes are the survivor bytes read *beyond* the lost
        payload the client asked for (k reads replace 1):
        ``(k - 1) * lost_bytes`` across the server fabric.
        """
        cfg = self.config
        penalty = 0.0
        fanout = 0
        n_groups = 0
        for step in ec.reconstruction_plan(offset, length, lost, avoid):
            n_groups += 1
            self.ec_reconstructions += 1
            per_unit_rpcs = ec.base.rpcs_for(step.nbytes, cfg.rpc_size)
            n_surv = len(step.survivor_osts)
            # one RPC round per survivor unit, but decode is a single
            # reduction pass over the k gathered buffers per group
            penalty += per_unit_rpcs * (
                n_surv * cfg.rpc_overhead + cfg.ec_reconstruct_cost
            )
            for d in step.survivor_osts:
                self.recon_reads[d] += step.nbytes
                self.rpcs[d] += per_unit_rpcs
                if self.telemetry is not None:
                    self.telemetry.record_recon(d, step.nbytes)
                    self.telemetry.record_rpcs(d, per_unit_rpcs, tenant)
            self.recon_bytes += step.fanout_bytes
            fanout += step.nbytes * (n_surv - 1)
        return penalty, fanout, n_groups

    def mark_stale(
        self,
        ncopies: int,
        nbytes: int,
        extents: "Optional[Dict[int, int]]" = None,
    ) -> None:
        """A mirrored write skipped ``ncopies`` stalled replicas: record
        the copies and the payload bytes they now owe to resync.
        ``extents`` maps each skipped OST to the bytes it missed, for
        telemetry attribution."""
        self.stale_marks += int(ncopies)
        self.stale_bytes += int(ncopies) * int(nbytes)
        if self.telemetry is not None and extents:
            self.telemetry.record_stale(extents)

    def account_rebuild(self, src: int, nbytes: float) -> None:
        """Recovery traffic issued by the self-healing control plane:
        ``nbytes`` of a quarantined device's extents re-read from healthy
        ``src`` during a throttled rebuild.  Lands in ``recon_reads`` (the
        rebuild-pressure ledger), never in ``bytes_read``, so payload
        accounting stays conserved -- the same contract as EC
        reconstruction fan-out."""
        self.recon_reads[src] += nbytes
        self.recon_bytes += nbytes
        if self.telemetry is not None:
            self.telemetry.record_recon(src, nbytes)

    # -- fault injection ------------------------------------------------------
    def slow_factor(
        self, footprint: Optional[Dict[int, int]], now: Optional[float] = None
    ) -> float:
        """Service-time multiplier from injected per-OST slowdowns.

        A striped transfer completes when its slowest stripe completes, so
        the op inherits the worst slowdown among the devices of
        ``footprint`` (the extent's bytes per device).  Combines the
        static ``ost_slowdown`` map with any scheduled ``degrade`` fault
        window active at ``now`` (quasi-static: sampled once at the op's
        start, like the bandwidth shares).  ``footprint`` is read only
        when a slowdown or fault schedule exists, so it may be None
        otherwise.
        """
        cfg = self.config
        if not cfg.ost_slowdown and cfg.faults is None:
            return 1.0
        slow = cfg.ost_slowdown
        factor = 1.0
        if slow:
            factor = max(
                (slow.get(ost, 1.0) for ost in footprint), default=1.0
            )
        if cfg.faults is not None and now is not None:
            factor = max(factor, cfg.faults.degrade_factor(now, footprint))
        return factor

    def stall_until(
        self, footprint: Optional[Dict[int, int]], now: float
    ) -> Optional[float]:
        """End time of the stall covering any device of ``footprint`` at
        ``now``, or None when every serving device is answering.
        ``footprint`` as in :meth:`slow_factor`: read only when a fault
        schedule exists."""
        sched = self.config.faults
        if sched is None or sched.is_empty:
            return None
        return sched.stall_end(now, footprint)

    # -- stochastic service factors ----------------------------------------
    def service_factor(self, stream: str, now: Optional[float] = None) -> float:
        """Multiplicative noise for one bulk transfer: lognormal body plus a
        rare uniform heavy tail.  A scheduled ``burst`` fault window active
        at ``now`` multiplies the tail probability (correlated tail events
        while a neighbouring job thrashes the arrays)."""
        cfg = self.config
        factor = self.rng.lognormal_factor(stream, cfg.noise_sigma)
        tail_prob = cfg.tail_prob
        if cfg.faults is not None and now is not None:
            tail_prob = min(tail_prob * cfg.faults.tail_boost(now), 1.0)
        if tail_prob > 0:
            names = self._tail_names.get(stream)
            if names is None:
                names = self._tail_names[stream] = (
                    stream + "/tail", stream + "/tailf"
                )
            # random() draws what uniform() on [0, 1) would, value and
            # stream state alike (pinned in tests/test_sim_rng.py)
            if self.rng.stream(names[0]).random() < tail_prob:
                factor *= self.rng.uniform(names[1], 1.0, cfg.tail_factor)
        return factor

    # -- diagnostics ----------------------------------------------------------
    def load_imbalance(self) -> float:
        """max/mean of per-OST written bytes (1.0 = perfectly balanced)."""
        total = self.bytes_written.sum()
        if total == 0:
            return 1.0
        mean = total / len(self.bytes_written)
        return float(self.bytes_written.max() / mean) if mean else 1.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "bytes_written": self.bytes_written.copy(),
            "bytes_read": self.bytes_read.copy(),
            "rpcs": self.rpcs.copy(),
            "rmw_events": self.rmw_events,
            "degraded_reads": self.degraded_reads,
            "stale_marks": self.stale_marks,
            "stale_bytes": self.stale_bytes,
            "parity_bytes": self.parity_bytes,
            "parity_updates": self.parity_updates,
            "ec_reconstructions": self.ec_reconstructions,
            "recon_bytes": self.recon_bytes,
            "recon_reads": self.recon_reads.copy(),
        }
