"""Machine models for the simulated Cray XT + Lustre platforms.

A :class:`MachineConfig` gathers every parameter of the mechanistic I/O
model.  Two presets mirror the paper's platforms:

- :meth:`MachineConfig.franklin` -- the NERSC Cray XT4 (quad-core nodes,
  Lustre ``/scratch``: 24 OSS x 2 OST = 48 OSTs, ~16 GB/s available
  aggregate), with the *buggy* client whose strided read-ahead detection
  causes the MADbench pathology.
- :meth:`MachineConfig.jaguar` -- the ORNL XT4 partition (72 OSS x 2 OST =
  144 OSTs), with a patched client and lower service variability.

One value describes the whole machine a job runs on: the job's
interconnect and the page-cache writeback delay are fields too.
:meth:`MachineConfig.resilience_testbox` is the small machine the
resilience experiments share.

All rates are bytes/second and all sizes bytes.  Parameters are calibrated
so the reproduction matches the paper's *shape* (mode structure, relative
speedups); they are not claimed to be the machines' exact hardware values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..mpi.comm import Interconnect
from .faults import FaultSchedule

__all__ = ["MachineConfig", "KiB", "MiB", "GiB"]

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


@dataclass
class MachineConfig:
    """Every knob of the simulated platform in one (immutable-ish) record."""

    name: str = "testbox"

    # -- node architecture ---------------------------------------------------
    tasks_per_node: int = 4
    #: peak Lustre-client bandwidth of one node (LNET/SeaStar bound)
    client_bw: float = 800.0 * MiB
    #: rate at which write() data is absorbed into the page cache
    mem_bw: float = 2.5 * GiB
    #: dirty-page quota per task before write() throttles to drain rate
    dirty_quota: float = 32.0 * MiB
    #: granularity of throttled transfers and background writeback
    io_chunk: int = 16 * MiB
    #: age (seconds) at which a dirty page-cache extent is flushed by
    #: background writeback
    writeback_delay: float = 30.0
    #: the job's message-passing network (collective and p2p costs)
    interconnect: Interconnect = Interconnect(latency=5e-6, bandwidth=1.6e9)

    # -- file system ----------------------------------------------------------
    #: aggregate file-system bandwidth available to the job (writes)
    fs_bw: float = 16.0 * GiB
    #: aggregate read bandwidth (storage arrays often read a bit faster)
    fs_read_bw: float = 16.0 * GiB
    n_osts: int = 48
    stripe_size: int = 1 * MiB
    default_stripe_count: int = 4
    #: Lustre RPC (bulk transfer) granularity
    rpc_size: int = 1 * MiB
    #: fixed software cost per RPC issued
    rpc_overhead: float = 0.3e-3

    #: commit round trip paid by every O_SYNC (write-through) operation
    sync_write_latency: float = 5.0e-3

    # -- metadata server -------------------------------------------------------
    mds_latency: float = 1.0e-3
    mds_concurrency: int = 16

    # -- locking / alignment penalties -----------------------------------------
    #: cost of revoking an extent lock held by another client
    lock_revoke_cost: float = 2.0e-3
    #: cost of a read-modify-write for a partially covered stripe
    rmw_cost: float = 4.0e-3

    # -- fault injection ---------------------------------------------------------
    #: per-OST service slowdown factors (e.g. a degraded RAID rebuild:
    #: ``{17: 6.0}`` makes OST 17 six times slower).  An op striped over a
    #: slow OST completes at the slow stripe's pace.
    ost_slowdown: Dict[int, float] = field(default_factory=dict)
    #: production interference: (t_start, t_end, fraction) intervals during
    #: which other jobs consume ``fraction`` of the file system's bandwidth
    #: ("factors affecting performance include the load from other jobs on
    #: the HPC system").  Sampled quasi-statically at each op's start.
    background_load: Tuple[Tuple[float, float, float], ...] = ()
    #: scheduled time-varying faults (OST degradation windows, transient
    #: full-OST stalls, MDS hiccups, heavy-tail bursts); None = healthy.
    #: Degradation is sampled quasi-statically at each op's start; a stall
    #: makes bulk RPCs issued against the device *lost* until its window
    #: ends (see ``client_retry`` below for the recovery path).
    faults: Optional[FaultSchedule] = None

    # -- client retry / recovery -------------------------------------------------
    #: master switch for the adaptive retry path: on timeout the client
    #: aborts the stuck RPC (sim-kernel Interrupt) and re-issues it with
    #: exponential backoff.  When False the stock client re-drives a lost
    #: RPC only every ``rpc_resend_interval`` seconds (the conservative
    #: Lustre default), so a transient stall costs far more wallclock.
    client_retry: bool = False
    #: first retry timeout (seconds); doubles each attempt up to the cap
    retry_base_timeout: float = 1.0
    #: multiplicative backoff per failed attempt
    retry_backoff: float = 2.0
    #: ceiling on the per-attempt timeout
    retry_max_timeout: float = 16.0
    #: resend period of the non-adaptive client (client_retry=False)
    rpc_resend_interval: float = 60.0
    #: reconnect/replay round trip paid by the first resend that succeeds
    #: after a stall clears
    stall_replay_latency: float = 50e-3

    # -- replicated placement / client failover -----------------------------------
    #: copies kept of every stripe (1 = no replication).  Copy ``r`` of a
    #: stripe is placed ``r * (n_osts // replica_count)`` devices after its
    #: primary, so a replica never shares its primary's OST; every copy's
    #: writes consume real bandwidth and RPCs on its own device.
    replica_count: int = 1
    #: master switch for client-side OST failover: when a replicated
    #: extent's serving OST stalls, the client times out once and steers
    #: the resend at a surviving copy instead of re-driving the sick
    #: device.  False = mirrored placement without failover (writes must
    #: reach every copy; reads ride out the stall in place, the PR-1 path).
    client_failover: bool = True
    #: reconnect + lock re-enqueue trip paid when an op switches from its
    #: primary extent onto a replica's OST
    failover_latency: float = 25e-3
    #: per-RPC surcharge of a *degraded* read served from a surviving copy
    #: while the primary is unreachable (replica lookup plus the
    #: stale-extent consistency check)
    degraded_read_cost: float = 1.0e-3
    #: how long a client distrusts a device after timing out on it before
    #: re-probing (the failback period); steered ops in between skip the
    #: detection timeout entirely
    failover_probe_interval: float = 5.0

    # -- erasure-coded placement (k+m) --------------------------------------------
    #: data units per stripe group (0 = erasure coding disabled).  Every
    #: group of ``ec_k`` data stripes carries ``ec_m`` parity units on
    #: devices distinct from the group's data devices, rotated per group
    #: so parity load stays balanced.  Mutually exclusive with mirrored
    #: placement (``replica_count > 1``): a file is either mirrored or
    #: erasure-coded, never both.
    ec_k: int = 0
    #: parity units per stripe group (0 = erasure coding disabled)
    ec_m: int = 0
    #: server-side cost of one read-old-data + read-old-parity round for
    #: a sub-stripe-group write (the RAID small-write problem); paid per
    #: partially covered group, scaled by the contention factor like RMW
    parity_update_cost: float = 2.0e-3
    #: per-RPC surcharge of a reconstruction read served from a group's
    #: survivors while a data device is unreachable (decode matrix setup
    #: plus the extra lock round on each survivor)
    ec_reconstruct_cost: float = 1.0e-3

    # -- server-side telemetry ----------------------------------------------------
    #: master switch for the server-side observability layer: when on, the
    #: I/O system samples per-OST byte/RPC/queue counters into a
    #: :class:`~repro.iosys.telemetry.TelemetryTimeline` as the run
    #: progresses.  Pure observation -- enabling it never changes simulated
    #: behaviour (the golden traces pin this).
    telemetry: bool = False
    #: width of one telemetry bucket in simulated seconds
    telemetry_dt: float = 0.1

    # -- determinism sanitizer ------------------------------------------------
    #: run the engine's sim-race detector: flag same-timestamp events on one
    #: resource whose order is decided only by heap insertion sequence, and
    #: seal exported telemetry against late writes.  Pure observation -- a
    #: sanitized run is byte-identical to an unsanitized one (the golden
    #: suite re-runs with this on to pin that).
    sanitize: bool = False

    # -- self-healing control plane -----------------------------------------------
    #: master switch for the online health monitor: per-OST failure
    #: detectors (EWMA latency + decayed retry score) driving quarantine,
    #: throttled rebuild, and facility backpressure during the run.
    #: Requires ``telemetry=True`` (the detectors watch the collector's
    #: stream).  Quarantine needs *retry evidence* -- latency drift alone
    #: never triggers an action -- so a fault-free run with healing on is
    #: byte-identical to the same run with it off (golden-pinned).
    heal: bool = False
    #: detector score weight of the decayed per-device retry rate
    heal_retry_weight: float = 1.0
    #: detector score weight of the relative latency-EWMA excess
    heal_latency_weight: float = 0.5
    #: EWMA smoothing for per-device op latencies (0 < alpha <= 1)
    heal_latency_alpha: float = 0.3
    #: e-folding time (s) of the decayed per-device retry counter
    heal_retry_tau: float = 4.0
    #: detector score at or above which a device is quarantined
    heal_score_threshold: float = 1.0
    #: after a readmit, re-quarantine of the same device is suppressed
    #: for this long (flap damping)
    heal_flap_damping: float = 1.0
    #: minimum time a quarantined device stays out before the monitor
    #: probes it for readmission
    heal_quarantine_hold: float = 4.0
    #: bandwidth cap (bytes/s) of the background rebuild copying a
    #: quarantined device's extents onto healthy peers; keeps recovery
    #: traffic from starving foreground I/O
    heal_rebuild_bw: float = 50.0 * MiB
    #: aggregate in-flight-op depth at or above which the facility sheds
    #: load (admission deferral + per-tenant RPC throttling)
    heal_backpressure_depth: int = 24
    #: hysteresis: backpressure clears once aggregate depth falls to this
    #: fraction of the threshold
    heal_backpressure_exit: float = 0.5
    #: RPC delay injected into the dominant tenant while saturated
    heal_throttle_delay: float = 5e-3
    #: how often a deferred admission re-checks the saturation flag
    heal_admit_recheck: float = 0.25

    # -- service-time variability ----------------------------------------------
    #: lognormal sigma on bulk-transfer service time
    noise_sigma: float = 0.12
    #: probability that a transfer hits a pathological slow path
    tail_prob: float = 0.004
    #: multiplicative slowdown of a tail event (upper bound; drawn uniform 1..x)
    tail_factor: float = 6.0

    # -- client scheduling (harmonic-mode mechanism) ----------------------------
    #: weights for the per-burst node service discipline: number of
    #: concurrently serviced tasks -> weight.  ``1`` = one task takes the
    #: whole node share until done ("a particular order to the processing in
    #: the Lustre parallel file system"), ``tasks_per_node`` = fair share.
    discipline_weights: Dict[int, float] = field(
        default_factory=lambda: {1: 0.35, 2: 0.30, 4: 0.35}
    )

    # -- read-ahead (the MADbench Lustre bug) ------------------------------------
    #: master switch: the patch that "removed strided read-ahead detection
    #: entirely" sets this False
    strided_readahead: bool = True
    #: strided pattern recognised on this many consecutive matching accesses
    stride_detect_count: int = 3
    #: dirty/quota node ratio above which the widened window degrades to
    #: page-granular RPCs
    pressure_threshold: float = 0.6
    page_size: int = 4 * KiB
    #: service cost of one 4 KiB read RPC in the degraded path
    page_read_cost: float = 1.8e-3
    #: read-ahead window ramp: doubles per matching strided access
    readahead_base_window: int = 2 * MiB
    readahead_max_window: int = 64 * MiB

    def __post_init__(self) -> None:
        if self.tasks_per_node < 1:
            raise ValueError("tasks_per_node must be >= 1")
        if self.stripe_size <= 0 or self.rpc_size <= 0:
            raise ValueError("sizes must be positive")
        if self.writeback_delay <= 0:
            raise ValueError("writeback_delay must be positive")
        if self.interconnect.latency < 0:
            raise ValueError("interconnect latency must be >= 0")
        if self.interconnect.bandwidth <= 0:
            raise ValueError("interconnect bandwidth must be positive")
        if not self.discipline_weights:
            raise ValueError("discipline_weights must be non-empty")
        for slots in self.discipline_weights:
            if slots < 1:
                raise ValueError("discipline slot counts must be >= 1")
        for ost, factor in self.ost_slowdown.items():
            if not (0 <= ost < self.n_osts):
                raise ValueError(f"slow OST index {ost} out of range")
            if factor < 1.0:
                raise ValueError("ost_slowdown factors must be >= 1")
        for t0, t1, frac in self.background_load:
            if t1 <= t0:
                raise ValueError("background_load interval must have t1 > t0")
            if not (0.0 <= frac < 1.0):
                raise ValueError("background_load fraction must be in [0, 1)")
        if self.faults is not None:
            self.faults.validate_devices(self.n_osts)
        if self.retry_base_timeout <= 0 or self.rpc_resend_interval <= 0:
            raise ValueError("retry timeouts must be positive")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if self.retry_max_timeout < self.retry_base_timeout:
            raise ValueError("retry_max_timeout must be >= retry_base_timeout")
        if not (1 <= self.replica_count <= self.n_osts):
            raise ValueError(
                f"replica_count must be in [1, n_osts]: "
                f"{self.replica_count} vs {self.n_osts}"
            )
        if self.failover_latency < 0 or self.degraded_read_cost < 0:
            raise ValueError("failover costs must be >= 0")
        if self.failover_probe_interval <= 0:
            raise ValueError("failover_probe_interval must be positive")
        if (self.ec_k == 0) != (self.ec_m == 0):
            raise ValueError("ec_k and ec_m must be set together (or both 0)")
        if self.ec_k < 0 or self.ec_m < 0:
            raise ValueError("ec_k/ec_m must be >= 0")
        if self.ec_k:
            if self.ec_k + self.ec_m > self.n_osts:
                raise ValueError(
                    f"ec_k + ec_m must be in [2, n_osts]: "
                    f"{self.ec_k}+{self.ec_m} vs {self.n_osts}"
                )
            if self.replica_count > 1:
                raise ValueError(
                    "mirrored placement (replica_count > 1) and erasure "
                    "coding (ec_k/ec_m) are mutually exclusive"
                )
        if self.parity_update_cost < 0 or self.ec_reconstruct_cost < 0:
            raise ValueError("erasure-coding costs must be >= 0")
        if self.telemetry_dt <= 0:
            raise ValueError("telemetry_dt must be positive")
        if self.heal:
            if not self.telemetry:
                raise ValueError(
                    "heal=True requires telemetry=True: the health "
                    "monitor watches the telemetry collector's stream"
                )
            if not (0.0 < self.heal_latency_alpha <= 1.0):
                raise ValueError("heal_latency_alpha must be in (0, 1]")
            for knob in ("heal_retry_tau", "heal_score_threshold",
                         "heal_quarantine_hold", "heal_rebuild_bw",
                         "heal_throttle_delay", "heal_admit_recheck"):
                if getattr(self, knob) <= 0:
                    raise ValueError(f"{knob} must be positive")
            if self.heal_retry_weight < 0 or self.heal_latency_weight < 0:
                raise ValueError("heal detector weights must be >= 0")
            if self.heal_flap_damping < 0:
                raise ValueError("heal_flap_damping must be >= 0")
            if self.heal_backpressure_depth < 1:
                raise ValueError("heal_backpressure_depth must be >= 1")
            if not (0.0 < self.heal_backpressure_exit <= 1.0):
                raise ValueError("heal_backpressure_exit must be in (0, 1]")

    def retry_wait(self, attempt: int) -> float:
        """How long the client waits before re-driving a lost RPC.

        ``attempt`` counts failed resends so far.  The adaptive path backs
        off exponentially from ``retry_base_timeout`` up to
        ``retry_max_timeout``; the stock client uses the fixed
        ``rpc_resend_interval`` regardless of attempt.
        """
        if not self.client_retry:
            return self.rpc_resend_interval
        return min(
            self.retry_base_timeout * self.retry_backoff ** attempt,
            self.retry_max_timeout,
        )

    def available_fraction(self, t: float) -> float:
        """Fraction of the file system's bandwidth available at time t
        (1.0 minus the strongest overlapping background-load interval)."""
        taken = 0.0
        for t0, t1, frac in self.background_load:
            if t0 <= t < t1:
                taken = max(taken, frac)
        return 1.0 - taken

    # -- derived quantities ------------------------------------------------------
    def nodes_for(self, ntasks: int) -> int:
        """Number of nodes a job of ``ntasks`` occupies (packed layout)."""
        return (ntasks + self.tasks_per_node - 1) // self.tasks_per_node

    def fair_share_per_task(self, ntasks: int) -> float:
        """The paper's 'fair share' rate: aggregate bandwidth / tasks."""
        return self.fs_bw / max(ntasks, 1)

    def node_share(self, active_nodes: int) -> float:
        """Quasi-static per-node share of the aggregate, client-capped."""
        if active_nodes < 1:
            active_nodes = 1
        return min(self.client_bw, self.fs_bw / active_nodes)

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with selected fields replaced (presets stay pristine)."""
        return replace(self, **kwargs)

    # -- presets --------------------------------------------------------------
    @classmethod
    def franklin(cls, **overrides) -> "MachineConfig":
        """NERSC Franklin XT4 with the buggy Lustre client (pre-patch)."""
        cfg = cls(
            name="franklin",
            tasks_per_node=4,
            client_bw=700.0 * MiB,
            mem_bw=2.5 * GiB,
            dirty_quota=32.0 * MiB,
            fs_bw=16.0 * GiB,
            fs_read_bw=14.0 * GiB,
            n_osts=48,
            stripe_size=1 * MiB,
            default_stripe_count=4,
            noise_sigma=0.14,
            tail_prob=0.002,
            tail_factor=3.5,
            strided_readahead=True,
        )
        return cfg.with_overrides(**overrides) if overrides else cfg

    @classmethod
    def franklin_patched(cls, **overrides) -> "MachineConfig":
        """Franklin after the Lustre read-ahead patch (Section IV.C)."""
        return cls.franklin(strided_readahead=False, **overrides)

    @classmethod
    def jaguar(cls, **overrides) -> "MachineConfig":
        """ORNL Jaguar XT4 partition: 144 OSTs, patched client, steadier
        service ("only modest variability in I/O rate")."""
        cfg = cls(
            name="jaguar",
            tasks_per_node=4,
            client_bw=900.0 * MiB,
            mem_bw=2.5 * GiB,
            dirty_quota=32.0 * MiB,
            fs_bw=40.0 * GiB,
            fs_read_bw=36.0 * GiB,
            n_osts=144,
            stripe_size=1 * MiB,
            default_stripe_count=4,
            noise_sigma=0.06,
            tail_prob=0.001,
            tail_factor=3.0,
            strided_readahead=False,
        )
        return cfg.with_overrides(**overrides) if overrides else cfg

    @classmethod
    def testbox(cls, **overrides) -> "MachineConfig":
        """A tiny deterministic machine for unit tests: no noise, no tails."""
        cfg = cls(
            name="testbox",
            tasks_per_node=2,
            client_bw=100.0 * MiB,
            mem_bw=1.0 * GiB,
            dirty_quota=8.0 * MiB,
            io_chunk=1 * MiB,
            fs_bw=400.0 * MiB,
            fs_read_bw=400.0 * MiB,
            n_osts=4,
            stripe_size=1 * MiB,
            default_stripe_count=2,
            rpc_overhead=0.0,
            sync_write_latency=0.0,
            mds_latency=0.0,
            lock_revoke_cost=0.0,
            rmw_cost=0.0,
            noise_sigma=0.0,
            tail_prob=0.0,
            discipline_weights={2: 1.0},
            strided_readahead=True,
        )
        return cfg.with_overrides(**overrides) if overrides else cfg

    @classmethod
    def resilience_testbox(cls, **overrides) -> "MachineConfig":
        """The testbox the resilience studies share: 16 OSTs, a fat file
        system, 4-wide default stripes, and client retry with timeouts
        sized to their seconds-scale stall windows."""
        kwargs = dict(
            n_osts=16,
            fs_bw=2048 * MiB,
            fs_read_bw=2048 * MiB,
            default_stripe_count=4,
            client_retry=True,
            retry_base_timeout=0.05,
            retry_max_timeout=0.8,
            failover_probe_interval=0.5,
        )
        kwargs.update(overrides)
        return cls.testbox(**kwargs)

    @classmethod
    def shared_testbox(cls, **overrides) -> "MachineConfig":
        """The testbox operated as a shared facility: metadata ops carry a
        real (still deterministic) service cost and the MDS admits few at
        once, so co-resident tenants genuinely contend for it.  Telemetry
        is on -- a facility without a ledger cannot attribute anything."""
        kwargs = dict(
            name="shared-testbox",
            mds_latency=2e-3,
            mds_concurrency=2,
            telemetry=True,
        )
        kwargs.update(overrides)
        return cls.testbox(**kwargs)
