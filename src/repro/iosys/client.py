"""Per-node Lustre client and the file-system bandwidth arbiter.

Bandwidth model (quasi-static fair share, recomputed per operation):

- Each OST sustains ``fs_bw / n_osts``; a *file* striped over
  ``stripe_count`` OSTs can move at most ``stripe_count * ost_rate`` in
  aggregate -- shared-file bandwidth depends on striping, and a handful of
  well-placed writers saturate the system (Section V: "as few as 80 tasks
  can saturate the I/O subsystem").
- That file bandwidth is shared equally among the *nodes* actively doing
  I/O to the file, capped by the node's client bandwidth and a per-task
  RPC-pipeline ceiling.

Node service discipline (the harmonic-mode mechanism of Figure 1c):

- Each node has an I/O *token semaphore*.  At the start of an I/O burst
  (node idle -> active) the client draws the token count from
  ``discipline_weights``: with one token, one task's operation runs at the
  full node share while its siblings wait, completing the node's k-th task
  at k*T/4 -- the R, R/4, R/2 peaks ("one task on the node (or two) took
  all the available I/O resources until it was done").

Write path: absorb into the page cache at memory speed up to the dirty
quota (Figure 1b's initial plateau), then throttle chunk-by-chunk through
the node channel; absorbed pages are flushed by a background process after
the writeback delay, which is what keeps memory pressure high during
MADbench's interleaved phase.  Read path: consult the read-ahead engine;
a widened strided window under pressure degrades to page-granular RPCs
(the Lustre bug of Section IV).

Extent-lock and read-modify-write penalties scale *quadratically* with the
number of active clients per OST: both the probability that someone else
owns the stripe and the queueing delay of the revocation round trip grow
with the client count -- the mechanism behind GCRM's slow unaligned
baseline.

Fault recovery (the time-varying fault layer of ``iosys/faults.py``)
speaks one device vocabulary.  Every data op issues a synchronous RPC
round (lock enqueue + bulk request) against its serving OSTs before
bytes move.  A scheduled ``stall`` window on one of them swallows that
RPC (a recovering OST discards its request queue), so the client learns
of the stall only by a *resend*: it waits
``MachineConfig.retry_wait(attempt)`` (adaptive backoff or the stock
fixed interval, per ``client_retry``) and aborts the stuck RPC with an
:class:`~repro.sim.engine.Interrupt`.  Each device is *healthy*,
*avoided* (this node timed out on it within ``failover_probe_interval``,
or the health monitor quarantined it) or *fresh* (stalled but not yet
diagnosed).  The placement decides what the client does with that:

- plain stripes ride the stall out, resending until every device answers;
- mirrors (:class:`~repro.iosys.replication.ReplicatedLayout`, with
  ``client_failover``) steer per copy: a read pays one timeout per fresh
  copy and is served by the lowest copy that answers (at the degraded-read
  surcharge), a write skips unreachable copies and marks them stale;
- erasure codes (:class:`~repro.iosys.erasure.ErasureCodedLayout`, with
  ``client_failover``) rebuild per stripe group: a read's lost data units
  are decoded server-side from ``k`` survivors, so the survivor *devices*
  absorb the fan-out while the client wire still carries only the
  payload.  Writes also move the parity: a sub-group write pays the
  read-old-data + read-old-parity round, a full-group write only the
  ``(k+m)/k`` amplification.

When nothing is left to steer to -- every copy avoided, or a group past
the code's tolerance -- the client polls with backoff until a device
recovers.  Resends, failovers and rebuilds are counted as trace
meta-events; the last two carry the stall time they averted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.engine import Engine, Interrupt
from ..sim.resources import Semaphore, SlotChannel
from ..sim.rng import RngStreams
from .cache import PageCache
from .machine import MachineConfig
from .mds import MetadataServer
from .ost import OstPool
from .readahead import ReadAheadEngine, ReadPlan
from .replication import union_footprint

__all__ = ["FsArbiter", "LustreClient", "IoResult"]

#: quadratic contention coefficient (clients-per-OST -> penalty scale)
CONTENTION_COEFF = 0.15
#: an ownership change of a *fully covered* stripe is cheap: no flush-back
FULL_STRIPE_REVOKE_DISCOUNT = 0.2


@dataclass
class IoResult:
    """Per-operation diagnostics returned by the client to the VFS layer."""

    duration: float
    degraded: bool = False
    readahead_window: int = 0
    penalty: float = 0.0
    #: RPC resends forced by a stalled OST (0 on a healthy pool)
    retries: int = 0
    #: wallclock spent stuck behind the stall (waiting + backing off)
    stall_wait: float = 0.0
    #: replica copies this op steered around instead of re-driving (reads:
    #: 1 when served by a non-primary copy; writes: copies marked stale)
    failovers: int = 0
    #: stall time the steer *averted*: the worst remaining stall window
    #: among the bypassed copies at the moment of the switch
    masked_wait: float = 0.0
    #: True when a read was reconstructed from a surviving replica while
    #: its primary copy was unreachable (degraded read)
    reconstructed: bool = False
    #: stripe groups an erasure-coded read rebuilt from survivors (0 when
    #: the read was served from intact data units)
    reconstructions: int = 0


class FsArbiter:
    """Tracks which nodes are actively doing I/O to which file and hands
    out quasi-static bandwidth shares."""

    def __init__(self, config: MachineConfig, now_fn=None):
        self.config = config
        #: clock accessor for time-varying background load (set by IoSystem)
        self._now_fn = now_fn
        #: OST streaming rate implied by the aggregate figures
        self.ost_write_rate = config.fs_bw / config.n_osts
        self.ost_read_rate = config.fs_read_bw / config.n_osts
        #: file_id -> {node_id: refcount}
        self._active: Dict[int, Dict[int, int]] = {}
        #: per-task throughput ceiling (client-side RPC pipeline limit)
        self.task_bw = min(config.client_bw, 100.0 * 1024 * 1024)
        # -- cross-file OST sharing (multi-tenant machines only) ----------
        #: when on, concurrently active files *split* each OST's streaming
        #: rate instead of each seeing the full device -- the contention a
        #: shared facility's co-resident jobs inflict on each other.  Off
        #: by default: solo runs keep the original per-file model (and the
        #: golden digests pinning it).
        self._shared = False
        #: file_id -> the OSTs the file's stripes live on
        self._file_osts: Dict[int, tuple] = {}
        #: per-OST count of distinct files with active I/O
        self._ost_load = [0] * config.n_osts

    def enable_cross_file_sharing(self) -> None:
        self._shared = True

    def register_file(self, file_id: int, osts: tuple) -> None:
        """Declare where a file's stripes live (used only when cross-file
        sharing is on, but registration is always harmless)."""
        self._file_osts[file_id] = tuple(osts)

    def begin(self, file_id: int, node: int) -> bool:
        """Register an op; True when the node was idle on this file."""
        nodes = self._active.setdefault(file_id, {})
        first_on_file = not nodes
        nodes[node] = nodes.get(node, 0) + 1
        if first_on_file and self._shared:
            for o in self._file_osts.get(file_id, ()):
                self._ost_load[o] += 1
        return nodes[node] == 1

    def end(self, file_id: int, node: int) -> None:
        nodes = self._active.get(file_id)
        if not nodes or node not in nodes:
            raise RuntimeError("arbiter end without begin")
        nodes[node] -= 1
        if nodes[node] == 0:
            del nodes[node]
        if not nodes and self._shared:
            for o in self._file_osts.get(file_id, ()):
                self._ost_load[o] -= 1

    def active_nodes(self, file_id: int) -> int:
        return len(self._active.get(file_id, ()))

    def file_bw(self, stripe_count: int, read: bool = False) -> float:
        rate = self.ost_read_rate if read else self.ost_write_rate
        return stripe_count * rate

    def node_share(
        self, file_id: int, stripe_count: int, read: bool = False
    ) -> float:
        """Per-node share of the file's bandwidth right now.

        With cross-file sharing on, each of the file's OSTs contributes
        its streaming rate *divided by the number of files actively
        hammering it* -- a bandwidth-hog tenant striped over the pool
        shrinks everyone else's file bandwidth.
        """
        n = max(self.active_nodes(file_id), 1)
        osts = self._file_osts.get(file_id) if self._shared else None
        if osts:
            rate = self.ost_read_rate if read else self.ost_write_rate
            fbw = sum(rate / max(self._ost_load[o], 1) for o in osts)
        else:
            fbw = self.file_bw(stripe_count, read)
        share = min(self.config.client_bw, fbw / n)
        return share * self._available_fraction()

    def _available_fraction(self) -> float:
        if not self.config.background_load or self._now_fn is None:
            return 1.0
        return self.config.available_fraction(self._now_fn())

    def contention(self, file_id: int, stripe_count: int) -> float:
        """Lock/RMW penalty scale: grows with active clients per OST."""
        per_ost = self.active_nodes(file_id) / max(stripe_count, 1)
        return 1.0 + CONTENTION_COEFF * per_ost * per_ost


class LustreClient:
    """The I/O stack of one compute node."""

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        node_id: int,
        arbiter: FsArbiter,
        osts: OstPool,
        mds: MetadataServer,
        rng: RngStreams,
        tenant: int = 0,
    ):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.arbiter = arbiter
        self.osts = osts
        self.mds = mds
        self.rng = rng
        #: owning tenant on a shared (multi-tenant) machine; 0 = untagged
        self.tenant = tenant
        self.channel = SlotChannel(
            engine, bandwidth=config.client_bw, slots=config.tasks_per_node
        )
        self.cache = PageCache(
            engine,
            quota_per_task=config.dirty_quota,
            tasks_per_node=config.tasks_per_node,
            mem_bw=config.mem_bw,
            writeback_delay=config.writeback_delay,
        )
        self.readahead = ReadAheadEngine(config)
        self.token = Semaphore(
            engine, capacity=config.tasks_per_node, name=f"iotoken{node_id}"
        )
        self._slots = config.tasks_per_node
        #: the per-burst discipline draw: slot counts in sorted order, their
        #: weights, and this node's stream
        self._disc_options = sorted(config.discipline_weights)
        self._disc_weights = tuple(
            config.discipline_weights[o] for o in self._disc_options
        )
        self._disc_stream = f"node{node_id}/discipline"
        #: this node's service-noise streams
        self._write_stream = f"node{node_id}/write"
        self._read_stream = f"node{node_id}/read"
        self.writes = 0
        self.reads = 0
        #: RPC resends forced by stalled OSTs (fault-injection diagnostics)
        self.retry_events = 0
        #: ops that steered around an unreachable replica copy
        self.failover_events = 0
        #: erasure-coded reads served by survivor reconstruction
        self.reconstruction_events = 0
        #: the run has a fault schedule or slowed devices (see _footprints)
        self._faulty = config.faults is not None or bool(config.ost_slowdown)
        #: client-side device health memory: OST -> time until which this
        #: node distrusts it (set by a timeout, cleared by the next probe)
        self._avoid: Dict[int, float] = {}
        #: facility-wide health monitor (repro.iosys.health), set by
        #: IoSystem when MachineConfig.heal is on; None otherwise.  Its
        #: quarantine set augments _avoid: one client's detection steers
        #: every client, without each node paying its own timeout.
        self.health = None

    def _sick(self, d: int) -> bool:
        """Device currently quarantined by the facility control plane."""
        h = self.health
        return h is not None and h.is_quarantined(d)

    # -- discipline -------------------------------------------------------
    def _resample_discipline(self) -> None:
        """Draw the burst's service concurrency; only takes effect when the
        node is idle (no holder, no waiter), like a real scheduler choosing
        an ordering as a burst begins."""
        if self.token._in_use > 0 or self.token.n_waiting > 0:
            return
        slots = int(
            self.rng.choice_weighted(
                self._disc_stream, self._disc_options, self._disc_weights
            )
        )
        self._slots = max(min(slots, self.config.tasks_per_node), 1)
        self.token.capacity = self._slots

    def _tune_channel(self, share: float) -> None:
        """Lane rate = min(per-task ceiling, share / concurrently serviced
        ops).  Uses the *actual* in-flight count so a lone writer on a node
        is not throttled to a quarter share."""
        active = max(min(self.token._in_use, self._slots), 1)
        lane = min(self.arbiter.task_bw, share / active)
        self.channel.bandwidth = lane * active
        self.channel.set_slots(active)

    # -- fault recovery: the device vocabulary (see the module docstring) --
    def _stall_end(self, devices) -> Optional[float]:
        """End of the latest stall covering any of ``devices`` now."""
        sched = self.config.faults
        if sched is None:
            return None
        return sched.stall_end(self.engine.now, devices)

    def _stalled(self):
        """Devices a stall window covers now."""
        sched = self.config.faults
        return () if sched is None else sched.stalled_devices(self.engine.now)

    def _device_states(self, devices, stalled=None):
        """Partition ``devices`` into ``(healthy, avoided, fresh)`` lists,
        preserving their order.  ``stalled`` is :meth:`_stalled` when the
        caller already holds it."""
        now = self.engine.now
        if stalled is None:
            stalled = self._stalled()
        healthy, avoided, fresh = [], [], []
        for d in devices:
            if self._avoid.get(d, 0.0) > now or self._sick(d):
                avoided.append(d)
            elif d in stalled:
                fresh.append(d)
            else:
                healthy.append(d)
        return healthy, avoided, fresh

    def _distrust(self, devices) -> None:
        """Remember the stalled ones of ``devices`` until the next probe
        (``failover_probe_interval`` from now)."""
        horizon = self.engine.now + self.config.failover_probe_interval
        stalled = self._stalled()
        for d in devices:
            if d in stalled:
                self._avoid[d] = max(self._avoid.get(d, 0.0), horizon)

    def _masked_time(self, devices) -> float:
        """Stall time a steer around ``devices`` averts: their worst
        remaining stall window (0 once they recovered)."""
        now = self.engine.now
        worst = 0.0
        for d in devices:
            end = self._stall_end((d,))
            if end is not None:
                worst = max(worst, end - now)
        return worst

    def _resend(self, attempt: int, footprint):
        """Generator: one lost-RPC round.  The RPC sent to ``footprint``
        was swallowed by a stall, so the client records the resend
        against the stalled devices (telemetry only), waits
        ``config.retry_wait(attempt)`` and aborts the stuck RPC."""
        tel = self.osts.telemetry
        if tel is not None and self.config.faults is not None:
            now_stalled = self._stalled()
            stalled = [d for d in footprint if d in now_stalled]
            if stalled:
                tel.record_retries(stalled)
        rpc = self.engine.process(self._lost_rpc(), name=f"rpc{self.node_id}")
        yield self.engine.timeout(self.config.retry_wait(attempt))
        rpc.interrupt("rpc-timeout")

    def _lost_rpc(self):
        """A bulk RPC swallowed by a stalled OST.  The reply never arrives
        (a recovering OST discards its request queue), so the only way this
        process ends is the issuing client aborting the wait."""
        try:
            yield self.engine.event()  # a reply that never comes
        except Interrupt:
            pass
        return None

    def _ride_out_stall(self, footprint):
        """Generator: resend until every device of ``footprint`` answers.
        Returns ``(resends, waited_seconds)``."""
        t0 = self.engine.now
        attempt = 0
        while self._stall_end(footprint) is not None:
            yield from self._resend(attempt, footprint)
            attempt += 1
        if attempt:
            # the resend that got through pays the reconnect/replay trip
            yield self.engine.timeout(self.config.stall_replay_latency)
        self.retry_events += attempt
        return attempt, self.engine.now - t0

    # -- the op's device footprint ------------------------------------------
    def _footprints(self, file, offset: int, nbytes: int, write: bool):
        """The op's device footprints, each derived once and handed to
        every consumer: ``(copies, full)``.

        ``copies`` holds each copy's bytes per device, primary first (an
        erasure-coded file's data devices are its one copy).  ``full`` is
        the placement's whole footprint, which stall, slow-down and
        telemetry queries read: the union of a mirror's copies, an erasure
        code's data plus the parity its groups update, or the plain
        stripes.  Both are derived whenever telemetry, a fault schedule or
        a slowed device exists, the only ways a device can be stalled,
        avoided, slow or observed; an erasure-coded read derives ``full``
        for telemetry only.  Otherwise a plain op gets ``(None,), None``
        and its booking derives what it uses, so a wide extent still books
        without a footprint, while a mirror or erasure code still derives
        the copies its steering and booking read.  Consumers only read
        the dicts."""
        tel = self.osts.telemetry is not None
        probe = tel or self._faulty
        rep, ec = file.replication, file.erasure
        if rep is not None:
            copies = [c.bytes_per_ost(offset, nbytes) for c in rep.layouts()]
            return copies, union_footprint(copies) if probe else None
        if ec is None and not probe:
            return (None,), None
        data = file.layout.bytes_per_ost(offset, nbytes)
        if ec is None:
            return (data,), data
        if tel or (write and probe):
            return (data,), ec.bytes_per_ost(offset, nbytes, data)
        return (data,), None

    # -- mirrors: per-copy steering -----------------------------------------
    def _replica_states(self, copies):
        """Partition copy indices into ``(healthy, avoided, fresh)``: a
        copy is avoided if any of its devices is, otherwise fresh if any
        of them is stalled."""
        stalled = self._stalled()
        healthy, avoided, fresh = [], [], []
        for r, devices in enumerate(copies):
            _, a, f = self._device_states(devices, stalled)
            (avoided if a else fresh if f else healthy).append(r)
        return healthy, avoided, fresh

    def _truth_healthy(self, copies):
        """Copies whose devices actually answer right now, ignoring the
        distrust map (the desperate-poll view)."""
        return [
            r for r, devices in enumerate(copies)
            if self._stall_end(devices) is None
        ]

    def _read_source(self, copies, full):
        """Generator: choose the copy a read is served from.

        The client tries the lowest-indexed copy it still trusts; if that
        copy's RPC is swallowed it times out, distrusts the device, and
        moves to the next copy.  With every copy distrusted or stalled it
        polls all of them (``full``) with backoff until one answers.
        Returns ``(replica_index, retries, waited, failovers,
        masked_wait)``.
        """
        cfg = self.config
        t0 = self.engine.now
        retries = 0
        # averted stall is measured at each *decision* point -- once the
        # detection timeouts have been paid the window may already be over
        masked = 0.0
        while True:
            healthy, avoided, fresh = self._replica_states(copies)
            if healthy or fresh:
                r = min(healthy + fresh)
                if r in healthy:
                    break
                # the preferred copy's RPC was swallowed: time out, abort,
                # distrust its devices, and try the next copy
                masked = max(masked, self._masked_time(copies[r]))
                yield from self._resend(retries, copies[r])
                retries += 1
                self._distrust(copies[r])
                continue
            # every copy distrusted: probe reality (nothing else to try)
            truth = self._truth_healthy(copies)
            if truth:
                r = truth[0]
                break
            yield from self._resend(retries, full)
            retries += 1
        if retries:
            # the resend that got through pays the reconnect/replay trip
            yield self.engine.timeout(cfg.stall_replay_latency)
        failovers = 0
        if r != 0:
            if retries:
                # the switching op re-enqueues its extent lock on the
                # replica's OST
                yield self.engine.timeout(cfg.failover_latency)
            self.failover_events += 1
            failovers = 1
        self.retry_events += retries
        masked = max(masked, self._masked_time(d for c in copies[:r] for d in c))
        return r, retries, self.engine.now - t0, failovers, masked

    def _mirror_write_targets(self, rep, copies, full, nbytes: int):
        """Generator: pick the copies a mirrored write will reach.

        With failover enabled, copies on distrusted devices are skipped
        outright and undiagnosed stalled copies cost one shared timeout
        round before being marked stale; the payload lands on whatever
        answers.  Without failover every copy must be written, so the op
        rides out the union of the copies' stall windows (``full``).
        Returns ``(replica_indices, retries, waited, failovers,
        masked_wait)``.
        """
        cfg = self.config
        t0 = self.engine.now
        if not cfg.client_failover:
            # the ride-out ends only when every copy's devices answer
            retries = 0
            if self.osts.stall_until(full, t0) is not None:
                retries, _ = yield from self._ride_out_stall(full)
            waited = self.engine.now - t0
            return list(range(rep.replica_count)), retries, waited, 0, 0.0
        healthy, avoided, fresh = self._replica_states(copies)
        retries = 0
        # averted stall at the decision point (see _read_source)
        masked = self._masked_time(d for r in fresh + avoided for d in copies[r])
        if fresh:
            # RPCs to the undiagnosed copies were swallowed; one shared
            # timeout round diagnoses them all
            yield from self._resend(0, full)
            retries += 1
            self._distrust(d for r in fresh for d in copies[r])
        # every copy unreachable or distrusted: poll all of them with
        # backoff; the first device to recover takes the write
        while not healthy:
            healthy = self._truth_healthy(copies)
            if not healthy:
                yield from self._resend(retries, full)
                retries += 1
        if retries:
            yield self.engine.timeout(cfg.stall_replay_latency)
        skipped = [r for r in range(rep.replica_count) if r not in healthy]
        masked = max(
            masked, self._masked_time(d for r in skipped for d in copies[r])
        )
        if skipped:
            self.failover_events += 1
            stale_extents: Dict[int, int] = {}
            for r in skipped:
                for d, nb in copies[r].items():
                    stale_extents[d] = stale_extents.get(d, 0) + nb
            self.osts.mark_stale(len(skipped), nbytes, stale_extents)
        self.retry_events += retries
        return healthy, retries, self.engine.now - t0, len(skipped), masked

    # -- erasure codes: per-group rebuild -----------------------------------
    def _ec_unusable(self, ec, offset: int, nbytes: int, lost):
        """Devices a reconstruction must not read from right now: the
        lost set plus every group member (data *or* parity) that is
        avoided or stalled."""
        _, avoided, fresh = self._device_states(
            [d for g in ec.groups_for(offset, nbytes) for d in ec.group_osts(g)]
        )
        return tuple(sorted(set(lost).union(avoided, fresh)))

    def _ec_read_source(self, ec, data, full, offset: int, nbytes: int):
        """Generator: decide how an erasure-coded read is served.

        Stalled-but-undiagnosed ``data`` devices each cost one shared
        timeout round before being distrusted; once every sick device is
        diagnosed the client checks that each affected stripe group still
        holds ``k`` usable units and, if so, commits to the degraded
        read.  A group past the code's tolerance forces backoff polling
        of the ``full`` footprint (derived here if the op holds none)
        until a device recovers (distrust expires at the probe horizon).
        Returns ``(lost_devices, avoid_devices, retries, waited,
        masked_wait)``.
        """
        cfg = self.config
        t0 = self.engine.now
        data_devices = sorted(data)
        retries = 0
        # averted stall is measured at each *decision* point (see
        # _read_source)
        masked = 0.0
        while True:
            _, avoided, fresh = self._device_states(data_devices)
            if not avoided and not fresh:
                lost, avoid = (), ()
                break
            if fresh:
                # RPCs to the undiagnosed devices were swallowed; one
                # shared timeout round diagnoses them all
                masked = max(masked, self._masked_time(fresh + avoided))
                yield from self._resend(retries, fresh)
                retries += 1
                self._distrust(fresh)
                continue
            # every sick data device diagnosed: reconstructible?
            lost = tuple(avoided)
            avoid = self._ec_unusable(ec, offset, nbytes, lost)
            try:
                ec.reconstruction_plan(offset, nbytes, lost, avoid)
            except ValueError:
                # some group lost more than m units: nothing to rebuild
                # from, poll with backoff until a device recovers
                if full is None:
                    full = ec.bytes_per_ost(offset, nbytes, data)
                yield from self._resend(retries, full)
                retries += 1
                continue
            break
        if retries:
            # the resend that got through pays the reconnect/replay trip
            yield self.engine.timeout(cfg.stall_replay_latency)
        if lost:
            if retries:
                # the switching op re-enqueues its locks on the survivors
                yield self.engine.timeout(cfg.failover_latency)
            masked = max(masked, self._masked_time(lost))
        self.retry_events += retries
        return lost, avoid, retries, self.engine.now - t0, masked

    # -- admission ---------------------------------------------------------------
    def _enter(self, file, full):
        """Generator: the prologue of every data op.  Applies the tenant
        throttle, registers the node with the arbiter (a fresh burst
        redraws the discipline), samples queue depth over the devices of
        the op's ``full`` footprint (mirror union / k+m group / plain
        stripes), and yields once so every same-timestamp peer registers
        before shares are sampled.  Returns the sampled devices."""
        if self.health is not None:
            throttle = self.health.throttle_delay(self.tenant)
            if throttle > 0.0:
                yield self.engine.timeout(throttle)
        if self.arbiter.begin(file.file_id, self.node_id):
            self._resample_discipline()
        tel = self.osts.telemetry
        tel_devs = ()
        if tel is not None:
            tel_devs = full
            tel.op_begin(tel_devs, self.tenant)
        yield self.engine.timeout(0.0)
        return tel_devs

    def _leave(self, file, t0: float, tel_devs) -> None:
        """The epilogue of every data op, run however it ends."""
        self.token.release()
        self.arbiter.end(file.file_id, self.node_id)
        if tel_devs:
            self.osts.telemetry.op_end(tel_devs, self.tenant)
            if self.health is not None:
                self.health.observe_op(tel_devs, self.engine.now - t0)

    # -- write path ------------------------------------------------------------
    def write(
        self, task, file, offset: int, nbytes: int, sync: bool = False
    ):
        """Generator: full write path.  Returns :class:`IoResult`.

        ``sync`` bypasses the page cache (O_SYNC / write-through), used by
        middleware that must not leave data in volatile cache.
        """
        cfg = self.config
        t0 = self.engine.now
        copies, full = self._footprints(file, offset, nbytes, write=True)
        tel_devs = yield from self._enter(file, full)
        yield self.token.acquire()
        try:
            rep = file.replication
            ec = file.erasure
            retries, stall_wait = 0, 0.0
            failovers, masked_wait = 0, 0.0
            if rep is not None:
                idx, retries, stall_wait, failovers, masked_wait = (
                    yield from self._mirror_write_targets(
                        rep, copies, full, nbytes
                    )
                )
                lays = rep.layouts()
                targets = [(lays[r], copies[r]) for r in idx]
            else:
                targets = [(file.layout, copies[0])]
                # an erasure-coded commit must reach the parity devices
                # too, so the stall query covers the full k+m footprint
                if self.osts.stall_until(full, self.engine.now) is not None:
                    retries, stall_wait = yield from self._ride_out_stall(full)
            share = self.arbiter.node_share(
                file.file_id, file.layout.stripe_count
            )
            self._tune_channel(share)
            contention = self.arbiter.contention(
                file.file_id, file.layout.stripe_count
            )
            ec_parity_bytes = 0
            if ec is not None:
                # data write + parity maintenance (read-old rounds for
                # partially covered groups), one call does the accounting
                penalty, ec_parity_bytes = self.osts.ec_write_penalty(
                    ec, offset, nbytes, copies[0], contention=contention,
                    tenant=self.tenant,
                )
            else:
                # every written copy pays its own RPCs and byte
                # accounting; the extent lock is logical (per file),
                # charged once
                penalty = sum(
                    self.osts.write_penalty(
                        lay, offset, nbytes, contention=contention,
                        tenant=self.tenant, footprint=fp,
                    )
                    for lay, fp in targets
                )
            if sync:
                penalty += cfg.sync_write_latency
            penalty += file.locks.write_penalty(
                self.node_id,
                file.layout,
                offset,
                nbytes,
                scale=contention,
                full_stripe_discount=FULL_STRIPE_REVOKE_DISCOUNT,
            )
            factor = self.osts.service_factor(
                self._write_stream, now=self.engine.now
            )
            # a mirrored (or parity-bearing) transfer completes when its
            # slowest copy/unit does
            if ec is not None:
                factor *= self.osts.slow_factor(full, now=self.engine.now)
            else:
                factor *= max(
                    self.osts.slow_factor(fp, now=self.engine.now)
                    for _, fp in targets
                )

            # wire amplification: one chunk per mirror copy, or the
            # (k+m)/k parity share for an erasure-coded file
            if ec is not None and nbytes > 0:
                fanout = 1.0 + ec_parity_bytes / nbytes
            else:
                fanout = len(targets)
            remaining = nbytes
            while remaining > 0:
                absorbed = 0.0 if sync else self.cache.absorb(task, remaining)
                if absorbed > 0:
                    yield self.engine.timeout(absorbed / cfg.mem_bw)
                    self._schedule_writeback(task, absorbed, fanout)
                    remaining -= int(absorbed)
                else:
                    chunk = min(remaining, cfg.io_chunk)
                    # the wire carries one chunk per written copy
                    yield self.channel.transfer(chunk * fanout, factor)
                    remaining -= chunk
            if penalty > 0:
                yield self.engine.timeout(penalty * factor)
        finally:
            self._leave(file, t0, tel_devs)
        self.writes += 1
        return IoResult(
            duration=self.engine.now - t0,
            penalty=penalty,
            retries=retries,
            stall_wait=stall_wait,
            failovers=failovers,
            masked_wait=masked_wait,
        )

    def _schedule_writeback(self, task: int, nbytes: float, fanout: int = 1) -> None:
        def _kick(_ev) -> None:
            self.cache.flushes += 1
            self.engine.process(
                self._bg_flush(task, nbytes, fanout), name=f"wb{self.node_id}"
            )

        tmo = self.engine.timeout(self.cache.writeback_delay)
        tmo.add_callback(_kick)

    def _bg_flush(self, task: int, nbytes: float, fanout: int = 1):
        """Background writeback: drain dirty pages chunk by chunk so quota
        frees gradually (steady-state throttling, not alternating bursts).
        ``fanout`` is the mirror width at absorb time: the cache holds one
        copy of the payload but the wire carries one per replica."""
        remaining = nbytes
        chunk_size = self.config.io_chunk
        while remaining > 0:
            chunk = min(remaining, chunk_size)
            yield self.channel.transfer(chunk * fanout)
            self.cache.mark_clean(task, chunk)
            remaining -= chunk
        return None

    # -- read path ------------------------------------------------------------
    def read(self, task, file, offset: int, nbytes: int):
        """Generator: full read path.  Returns :class:`IoResult`."""
        cfg = self.config
        t0 = self.engine.now
        copies, full = self._footprints(file, offset, nbytes, write=False)
        tel_devs = yield from self._enter(file, full)
        # Read-ahead observes the stream in arrival order (before queueing).
        plan: ReadPlan = self.readahead.observe(
            task, file.file_id, offset, nbytes, self.cache.pressure()
        )
        yield self.token.acquire()
        try:
            rep = file.replication
            ec = file.erasure
            serving, fp = file.layout, copies[0]
            retries, stall_wait = 0, 0.0
            failovers, masked_wait = 0, 0.0
            reconstructed = False
            ec_lost, ec_avoid = (), ()
            if rep is not None and cfg.client_failover:
                r, retries, stall_wait, failovers, masked_wait = (
                    yield from self._read_source(copies, full)
                )
                if r != 0:
                    serving, fp = rep.replica(r), copies[r]
                    reconstructed = True
            elif ec is not None and cfg.client_failover:
                ec_lost, ec_avoid, retries, stall_wait, masked_wait = (
                    yield from self._ec_read_source(
                        ec, fp, full, offset, nbytes
                    )
                )
                reconstructed = bool(ec_lost)
            else:
                if self.osts.stall_until(fp, self.engine.now) is not None:
                    retries, stall_wait = yield from self._ride_out_stall(fp)
            share = self.arbiter.node_share(
                file.file_id, file.layout.stripe_count, read=True
            )
            self._tune_channel(share)
            # the payload is always booked against the file's placement
            # (rebuilt bytes are still delivered to the caller); the
            # physical survivor traffic of a rebuild lands in recon_reads
            penalty = self.osts.read_penalty(
                serving, offset, nbytes, tenant=self.tenant, footprint=fp
            )
            recon_groups = 0
            if ec_lost:
                # data device(s) unreachable: rebuild their ranges from
                # the k survivors of each affected stripe group; the
                # fan-out is gathered and decoded server-side, so the
                # client wire below still carries only the payload
                ec_pen, _fanout, recon_groups = (
                    self.osts.ec_degraded_read_penalty(
                        ec, offset, nbytes, ec_lost, ec_avoid,
                        tenant=self.tenant,
                    )
                )
                penalty += ec_pen
                self.reconstruction_events += 1
            elif reconstructed:
                # the primary copy is unreachable: the extent is rebuilt
                # from the surviving replica at a per-RPC surcharge
                penalty += self.osts.degraded_read_penalty(serving, nbytes, fp)
            factor = self.osts.service_factor(
                self._read_stream, now=self.engine.now
            )
            factor *= self.osts.slow_factor(fp, now=self.engine.now)
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, cfg.io_chunk)
                yield self.channel.transfer(chunk, factor)
                remaining -= chunk
            if plan.degraded:
                # The widened window cannot be backed by cache pages: the
                # transfer re-issues as page-granular RPCs.  Cost scales
                # with the window ramp and a heavy-tailed queueing factor
                # -- this is the 30..500 s read shoulder of Figure 4c.
                npages = max(nbytes // cfg.page_size, 1)
                page_noise = self.rng.lognormal_factor(
                    f"node{self.node_id}/pagestorm", 0.6, cap=3.0
                )
                penalty += (
                    npages * cfg.page_read_cost * plan.severity * page_noise
                )
            if penalty > 0:
                yield self.engine.timeout(penalty)
        finally:
            self._leave(file, t0, tel_devs)
        self.reads += 1
        return IoResult(
            duration=self.engine.now - t0,
            degraded=plan.degraded,
            readahead_window=plan.window,
            penalty=penalty,
            retries=retries,
            stall_wait=stall_wait,
            failovers=failovers,
            masked_wait=masked_wait,
            reconstructed=reconstructed,
            reconstructions=recon_groups,
        )

    # -- sync ------------------------------------------------------------------
    def sync(self, task):
        """Generator: wait until the node's dirty pages have drained."""
        yield self.cache.sync_event()
        return None
