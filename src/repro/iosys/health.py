"""Self-healing control plane: online failure detection and response.

Everything before this module is *post-mortem*: faults are injected,
clients ride them out, and the diagnosis layer names the sick device
after the run.  :class:`HealthMonitor` closes the loop -- it watches the
live :class:`~repro.iosys.telemetry.TelemetryCollector` stream through a
forwarded-hook observer and reacts **during** the run:

- **Detection.**  Per-OST failure scores combine an exponentially
  decayed retry counter (client RPC resends attributed to the device)
  with an EWMA service-latency ratio against the machine-wide EWMA.  A
  device is quarantined when its score crosses
  ``MachineConfig.heal_score_threshold`` -- but *only* with retry
  evidence present.  Latency alone never quarantines: a no-fault run
  records zero retries, so the monitor takes zero actions, schedules
  zero engine events, and draws zero random numbers -- a heal-on run
  without faults is **byte-identical** to heal-off (golden-pinned).
- **Quarantine + steering.**  The quarantine set augments every
  client's private distrust map (``LustreClient._avoid``): one client's
  detection timeout steers *every* client's replicated/EC reads and
  mirrored writes around the device, and new files drain away from it
  (:meth:`placement_start`).  Unlike ``_avoid`` entries, quarantine does
  not expire on a probe horizon -- the monitor re-probes device health
  itself and readmits on recovery, with flap damping
  (``heal_flap_damping``) so a flapping device cannot thrash the
  placement.
- **Rebuild.**  A quarantined device's resident extents are re-read
  from healthy peers at a configurable bandwidth cap
  (``heal_rebuild_bw``, paced in ``io_chunk`` steps) so recovery
  traffic cannot starve foreground I/O.  Rebuild reads land in
  ``OstPool.recon_reads`` -- the same rebuild-pressure ledger EC
  reconstruction uses -- never in payload accounting.
- **Backpressure.**  When aggregate pressure (in-flight client ops, or
  the MDS request queue) crosses ``heal_backpressure_depth``, the
  monitor declares saturation ("shed"): the facility scheduler defers
  new admissions (:meth:`repro.iosys.scheduler.Facility` consults
  :attr:`saturated`) and the dominant non-victim tenant's RPCs are
  throttled by ``heal_throttle_delay`` per op.  Saturation clears with
  hysteresis at ``heal_backpressure_exit`` of the threshold -- graceful
  re-admission, no flapping on the boundary.

Every action is logged as a :class:`HealAction` and graded
CONFIRMED/CONTRADICTED against the injected fault schedule by
:func:`repro.ensembles.oracle.verify_healing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .faults import DEGRADE, STALL
from .machine import MachineConfig

__all__ = [
    "HealthMonitor",
    "HealAction",
    "QUARANTINE",
    "REBUILD",
    "READMIT",
    "SHED",
]

QUARANTINE = "quarantine"
REBUILD = "rebuild"
READMIT = "readmit"
SHED = "shed"


@dataclass
class HealAction:
    """One control decision the monitor took, with its evidence.

    ``t_end`` is None while the action is still open (a quarantine whose
    device has not been readmitted, a shed still in force at end of
    run); the oracle treats an open action as extending to +inf.
    """

    kind: str
    device: Optional[int]
    t_start: float
    t_end: Optional[float] = None
    info: Dict[str, float] = field(default_factory=dict)


class HealthMonitor:
    """Online per-OST/MDS failure detection + quarantine/rebuild/shed.

    Attached by :class:`~repro.iosys.posix.IoSystem` when
    ``MachineConfig.heal`` is on (requires ``telemetry``); registers
    itself as the collector's forwarded-hook observer until the
    launcher calls :meth:`detach` at the end of the run.
    """

    def __init__(self, engine, config: MachineConfig, osts, mds, collector):
        self.engine = engine
        self.config = config
        self.osts = osts
        self.mds = mds
        self._n = int(config.n_osts)
        # -- detector state (pure bookkeeping: no events, no RNG) ----------
        self._lat_ewma = [0.0] * self._n
        self._lat_known = [False] * self._n
        self._lat_global = 0.0
        self._lat_global_known = False
        #: exponentially decayed retry count per device (tau = heal_retry_tau)
        self._retry_score = [0.0] * self._n
        self._retry_last = [0.0] * self._n
        # -- quarantine state ----------------------------------------------
        self._quarantined: Set[int] = set()
        self._last_readmit = [-math.inf] * self._n
        self._open_q: Dict[int, HealAction] = {}
        # -- backpressure state --------------------------------------------
        self._inflight = 0
        self._saturated = False
        self._shed: Optional[HealAction] = None
        #: decayed per-tenant RPC rate (OST ops + MDS requests), used to
        #: pick the dominant tenant to throttle under saturation
        self._rate: Dict[int, List[float]] = {}
        # -- ledger ---------------------------------------------------------
        self._actions: List[HealAction] = []
        self._counters: Dict[str, float] = {
            "heal_quarantines": 0,
            "heal_readmits": 0,
            "heal_rebuilds": 0,
            "heal_rebuild_bytes": 0,
            "heal_sheds": 0,
            "heal_throttled_ops": 0,
            "heal_deferred_admissions": 0,
        }
        self._collector = collector
        collector._observer = self

    def detach(self) -> None:
        """Unhook from the collector and the MDS once the run is over.

        Both point back at the monitor, which holds the engine: left
        hooked, a finished run is a reference cycle that only a gen-2
        collection frees.  The ledger and counters stay readable."""
        self._collector._observer = None
        self.mds.health = None

    # -- exports -----------------------------------------------------------
    def actions(self) -> Tuple[HealAction, ...]:
        return tuple(self._actions)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def quarantined_devices(self) -> Tuple[int, ...]:
        return tuple(sorted(self._quarantined))

    def is_quarantined(self, device: int) -> bool:
        return device in self._quarantined

    # -- forwarded telemetry hooks -----------------------------------------
    def on_retries(self, devices: Sequence[int], n: int = 1) -> None:
        """Client RPC resends: the detector's *hard* evidence."""
        now = self.engine.now
        tau = self.config.heal_retry_tau
        for d in devices:
            s = self._retry_score[d]
            if s > 0.0:
                s *= math.exp(-(now - self._retry_last[d]) / tau)
            self._retry_score[d] = s + n
            self._retry_last[d] = now
            self._maybe_quarantine(d, now)

    def on_op_begin(self, devices: Sequence[int], tenant: int = 0) -> None:
        self._inflight += 1
        self._bump_rate(tenant)
        self._update_pressure()

    def on_op_end(self, devices: Sequence[int], tenant: int = 0) -> None:
        self._inflight -= 1
        self._update_pressure()

    def on_mds(self, queue_depth: int, tenant: int = 0) -> None:
        self._bump_rate(tenant)
        self._update_pressure()

    def observe_op(self, devices: Sequence[int], duration: float) -> None:
        """Completed-op latency sample over the op's device footprint
        (called by the client; a striped op's duration is attributed to
        each device it touched -- a *relative* detector)."""
        a = self.config.heal_latency_alpha
        for d in devices:
            if self._lat_known[d]:
                self._lat_ewma[d] += a * (duration - self._lat_ewma[d])
            else:
                self._lat_ewma[d] = duration
                self._lat_known[d] = True
            # latency can finish the argument, never start it: without
            # retry evidence the score gate below fails closed
            if self._retry_score[d] > 0.0:
                self._maybe_quarantine(d, self.engine.now)
        if self._lat_global_known:
            self._lat_global += a * (duration - self._lat_global)
        else:
            self._lat_global = duration
            self._lat_global_known = True

    # -- detector ----------------------------------------------------------
    def _decayed_retry(self, device: int, now: float) -> float:
        s = self._retry_score[device]
        if s <= 0.0:
            return 0.0
        return s * math.exp(-(now - self._retry_last[device]) / self.config.heal_retry_tau)

    def score(self, device: int, now: Optional[float] = None) -> float:
        """retry_weight * decayed-retries + latency_weight * EWMA excess."""
        cfg = self.config
        if now is None:
            now = self.engine.now
        r = self._decayed_retry(device, now)
        lat = 0.0
        if self._lat_known[device] and self._lat_global > 0.0:
            lat = max(self._lat_ewma[device] / self._lat_global - 1.0, 0.0)
        return cfg.heal_retry_weight * r + cfg.heal_latency_weight * lat

    def _maybe_quarantine(self, device: int, now: float) -> None:
        cfg = self.config
        if device in self._quarantined:
            return
        # flap damping: a freshly readmitted device gets a grace period
        if now < self._last_readmit[device] + cfg.heal_flap_damping:
            return
        # byte-identity gate: latency alone never quarantines
        if self._decayed_retry(device, now) <= 0.0:
            return
        if self.score(device, now) < cfg.heal_score_threshold:
            return
        self._quarantine(device, now)

    # -- quarantine / rebuild / readmit ------------------------------------
    def _quarantine(self, device: int, now: float) -> None:
        self._quarantined.add(device)
        act = HealAction(
            QUARANTINE, device, now, info={"score": self.score(device, now)}
        )
        self._actions.append(act)
        self._open_q[device] = act
        self._counters["heal_quarantines"] += 1
        # evidence consumed: readmission starts from a clean slate
        self._retry_score[device] = 0.0
        self._lat_known[device] = False
        self._lat_ewma[device] = 0.0
        self.engine.process(
            self._quarantine_proc(device), name=f"heal-q{device}"
        )

    def _quarantine_proc(self, device: int):
        """Engine process owning one quarantine's lifecycle: throttled
        rebuild -> dwell -> probe until recovered -> readmit."""
        engine = self.engine
        cfg = self.config
        t_q = engine.now
        # -- throttled rebuild of the device's resident extents ------------
        debt = float(self.osts.bytes_written[device])
        if debt > 0.0:
            t0 = engine.now
            chunk = float(cfg.io_chunk)
            bw = float(cfg.heal_rebuild_bw)
            done = 0.0
            i = 0
            while done < debt:
                step = min(chunk, debt - done)
                # the bandwidth cap *is* the pacing: recovery traffic
                # trickles at heal_rebuild_bw regardless of foreground load
                yield engine.timeout(step / bw)
                healthy = [
                    o for o in range(self._n)
                    if o != device and o not in self._quarantined
                ]
                if not healthy:
                    break
                self.osts.account_rebuild(healthy[i % len(healthy)], step)
                done += step
                i += 1
            self._actions.append(
                HealAction(REBUILD, device, t0, engine.now,
                           info={"bytes": done})
            )
            self._counters["heal_rebuilds"] += 1
            self._counters["heal_rebuild_bytes"] += done
        # -- dwell ----------------------------------------------------------
        hold_until = t_q + cfg.heal_quarantine_hold
        if engine.now < hold_until:
            yield engine.timeout_until(hold_until)
        # -- probe until the device actually answers ------------------------
        while True:
            end = self._recovery_wait(device, engine.now)
            if end is None:
                break
            if end == math.inf:
                # statically slowed device: it will never recover, keep it
                # out of the placement for good and end the controller
                return
            yield engine.timeout_until(end)
        self._readmit(device, engine.now)

    def _recovery_wait(self, device: int, now: float) -> Optional[float]:
        """None when the device answers at ``now``; +inf when it never
        will (static ``ost_slowdown``); else the end of the latest
        stall/degrade window covering it -- the probe's next wakeup."""
        if self.config.ost_slowdown.get(device, 1.0) > 1.0:
            return math.inf
        sched = self.config.faults
        if sched is None:
            return None
        end: Optional[float] = None
        for w in sched.windows:
            if w.kind not in (STALL, DEGRADE):
                continue
            if w.device != device:
                continue
            if w.active_at(now):
                end = w.t_end if end is None else max(end, w.t_end)
        return end

    def _readmit(self, device: int, now: float) -> None:
        self._quarantined.discard(device)
        self._last_readmit[device] = now
        self._retry_score[device] = 0.0
        open_q = self._open_q.pop(device, None)
        if open_q is not None:
            open_q.t_end = now
        self._actions.append(HealAction(READMIT, device, now, now))
        self._counters["heal_readmits"] += 1

    # -- placement drain ----------------------------------------------------
    def placement_start(
        self, start: int, stripe_count: int, n_osts: int
    ) -> int:
        """First start OST at or after ``start`` (cyclic) whose stripe
        footprint avoids every quarantined device; ``start`` itself when
        nothing is quarantined or no clean footprint exists.
        Deterministic -- a pure scan, no RNG."""
        if not self._quarantined:
            return start
        width = min(stripe_count, n_osts)
        for off in range(n_osts):
            s = (start + off) % n_osts
            if all(
                (s + i) % n_osts not in self._quarantined
                for i in range(width)
            ):
                return s
        return start

    # -- backpressure --------------------------------------------------------
    @property
    def saturated(self) -> bool:
        """Live saturation state (recomputed on read, so a deferred
        admission loop converges even with no I/O events in flight)."""
        self._update_pressure()
        return self._saturated

    def note_deferred(self) -> None:
        """The facility deferred one admission while saturated."""
        self._counters["heal_deferred_admissions"] += 1

    def _update_pressure(self) -> None:
        cfg = self.config
        depth = self._inflight
        mq = self.mds.queue_depth
        if mq > depth:
            depth = mq
        if not self._saturated:
            if depth >= cfg.heal_backpressure_depth:
                self._saturated = True
                act = HealAction(
                    SHED, None, self.engine.now,
                    info={
                        "depth": float(depth),
                        "threshold": float(cfg.heal_backpressure_depth),
                        "peak_depth": float(depth),
                    },
                )
                self._actions.append(act)
                self._shed = act
                self._counters["heal_sheds"] += 1
            return
        act = self._shed
        if act is not None and depth > act.info["peak_depth"]:
            act.info["peak_depth"] = float(depth)
        if depth <= cfg.heal_backpressure_exit * cfg.heal_backpressure_depth:
            self._saturated = False
            if act is not None:
                act.t_end = self.engine.now
            self._shed = None

    def _bump_rate(self, tenant: int) -> None:
        now = self.engine.now
        tau = self.config.heal_retry_tau
        r = self._rate.get(tenant)
        if r is None:
            self._rate[tenant] = [1.0, now]
        else:
            r[0] = r[0] * math.exp(-(now - r[1]) / tau) + 1.0
            r[1] = now

    def _dominant_tenant(self) -> Optional[int]:
        now = self.engine.now
        tau = self.config.heal_retry_tau
        best: Optional[int] = None
        best_rate = -1.0
        # dict preserves insertion order; ties break toward the lower
        # tenant id, so the pick is deterministic
        for t, (val, last) in self._rate.items():
            cur = val * math.exp(-(now - last) / tau)
            if cur > best_rate or (cur == best_rate and (best is None or t < best)):
                best = t
                best_rate = cur
        return best

    def throttle_delay(self, tenant: int) -> float:
        """Per-op RPC delay for ``tenant`` right now: positive only while
        saturated *and* the tenant is the dominant RPC issuer.  Tenant 0
        (a solo/untagged run) is never throttled -- one comparison keeps
        the solo hot path byte-identical."""
        if tenant == 0:
            return 0.0
        self._update_pressure()
        if not self._saturated:
            return 0.0
        if self._dominant_tenant() != tenant:
            return 0.0
        self._counters["heal_throttled_ops"] += 1
        return self.config.heal_throttle_delay
