"""Differential tests for the ground-truth oracle.

Every finding kind the client-side diagnosis can produce is exercised on
a scenario whose injected truth is known, and the oracle must CONFIRM
the correctly-attributed finding while CONTRADICTING a deliberately
mis-attributed twin (wrong device, shifted window, or a claim against a
healthy pool).  The scenarios mirror the golden-trace recipes so the
workloads are already pinned byte-for-byte elsewhere.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.harness import SimJob
from repro.ensembles.diagnose import Finding, diagnose
from repro.ensembles.locate import (
    OstSuspect,
    find_masked_faults,
    find_rebuild_pressure,
    find_slow_osts,
    find_transient_faults,
)
from repro.ensembles.oracle import (
    CONFIRMED,
    CONTRADICTED,
    UNVERIFIED,
    verify_finding,
    verify_findings,
    verify_masked,
    verify_rebuilds,
    verify_slow_osts,
    verify_transients,
)
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR
from repro.iosys.scheduler import fpt_write_read, shared_write

SICK = 5
SLOW = 3


@pytest.fixture(scope="module")
def stall_run():
    """Slow OST + transient stall, shared-file writes, telemetry on."""
    machine = MachineConfig.testbox(
        n_osts=16,
        fs_bw=2048 * MiB,
        discipline_weights={4: 1.0},
        ost_slowdown={SLOW: 4.0},
    ).with_overrides(
        faults=FaultSchedule.of(FaultWindow(STALL, 0.3, 0.9, device=SICK)),
        client_retry=True,
        telemetry=True,
    )
    job = SimJob(machine, 8, seed=13, placement="packed")
    return job.run(
        shared_write, "/scratch/oracle.dat", 60, MiB, machine.n_osts
    )


@pytest.fixture(scope="module")
def healthy_run():
    machine = MachineConfig.testbox(
        n_osts=16,
        fs_bw=2048 * MiB,
        discipline_weights={4: 1.0},
    ).with_overrides(client_retry=True, telemetry=True)
    job = SimJob(machine, 8, seed=13, placement="packed")
    return job.run(
        shared_write, "/scratch/oracle.dat", 60, MiB, machine.n_osts
    )


def _mirror_machine(**extra):
    return MachineConfig.testbox(
        n_osts=8,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        replica_count=2,
        failover_probe_interval=0.5,
        telemetry=True,
        **extra,
    )


def _read_phase_stall(res, device):
    """A stall covering the middle of this run's (healthy) read phase, so
    only reads steer around it and every failover event attributes to the
    device the server really stalled."""
    reads = res.trace.filter(ops=["pread"])
    t0 = float(reads.starts.min())
    span = float(reads.ends.max()) - t0
    return FaultSchedule.of(
        FaultWindow(
            STALL, t0 + 0.15 * span, t0 + 0.55 * span, device=device
        )
    )


@pytest.fixture(scope="module")
def mirror_run():
    """2-way mirrored file-per-task records with a read-phase stall."""
    probe = SimJob(_mirror_machine(), 4, seed=17, placement="packed").run(
        fpt_write_read, "/scratch/mirror.dat", 12, MiB, MiB, 4
    )
    machine = _mirror_machine(faults=_read_phase_stall(probe, 2))
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(fpt_write_read, "/scratch/mirror.dat", 12, MiB, MiB, 4)


@pytest.fixture(scope="module")
def ec_run():
    """4+1 erasure-coded file-per-task records with a read-phase stall."""
    machine = MachineConfig.testbox(
        n_osts=8,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        faults=FaultSchedule.of(FaultWindow(STALL, 0.10, 0.60, device=2)),
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        ec_k=4,
        ec_m=1,
        failover_probe_interval=0.5,
        telemetry=True,
    )

    def worker(ctx, nrec, base):
        path = f"{base}.{ctx.rank:04d}"
        ctx.iosys.set_stripe_count(path, 4)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        ctx.io.region("write")
        for j in range(nrec):
            yield from ctx.io.pwrite(fd, 4 * MiB, j * 4 * MiB)
        yield from ctx.comm.barrier()
        ctx.io.region("read")
        for j in range(nrec * 4):
            yield from ctx.io.pread(fd, MiB, j * MiB)
        yield from ctx.io.close(fd)
        return None

    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(worker, 3, "/scratch/ecoracle.dat")


def _findings(res, path, codes):
    f = res.iosys.lookup(path)
    lay = f.erasure or f.layout
    return [
        x
        for x in diagnose(res.trace.filter(path=path), layout=lay)
        if x.code in codes
    ]


# -- transient-fault ------------------------------------------------------------

class TestTransientFault:
    def test_correct_finding_confirmed(self, stall_run):
        findings = _findings(
            stall_run, "/scratch/oracle.dat", ("transient-fault",)
        )
        assert findings, "diagnosis should see the stall"
        report = verify_findings(findings, stall_run.telemetry)
        assert report.all_confirmed
        devs = {v.device for v in report.verdicts if v.verdict == CONFIRMED}
        assert SICK in devs

    def test_locate_transients_confirmed(self, stall_run):
        lay = stall_run.iosys.lookup("/scratch/oracle.dat").layout
        faults = find_transient_faults(stall_run.trace, lay)
        assert any(f.ost == SICK for f in faults)
        report = verify_transients(
            [f for f in faults if f.ost == SICK], stall_run.telemetry
        )
        assert report.all_confirmed

    def test_wrong_device_contradicted(self, stall_run):
        finding = _findings(
            stall_run, "/scratch/oracle.dat", ("transient-fault",)
        )[0]
        wrong = replace(
            finding,
            evidence={**finding.evidence, "device": float((SICK + 7) % 16)},
        )
        v = verify_finding(wrong, stall_run.telemetry)
        assert v.verdict == CONTRADICTED
        assert v.device_match is False

    def test_shifted_window_contradicted(self, stall_run):
        finding = _findings(
            stall_run, "/scratch/oracle.dat", ("transient-fault",)
        )[0]
        shifted = replace(
            finding,
            evidence={
                **finding.evidence,
                "t_start": finding.evidence["t_end"] + 50.0,
                "t_end": finding.evidence["t_end"] + 60.0,
            },
        )
        v = verify_finding(shifted, stall_run.telemetry)
        assert v.verdict == CONTRADICTED
        assert v.window_match is False

    def test_claim_against_healthy_pool_contradicted(self, healthy_run):
        fabricated = Finding(
            code="transient-fault",
            severity=0.9,
            message="fabricated",
            recommendation="",
            evidence={"device": float(SICK), "t_start": 0.2, "t_end": 0.6},
        )
        v = verify_finding(fabricated, healthy_run.telemetry)
        assert v.verdict == CONTRADICTED
        assert "healthy" in v.detail

    def test_shape_finding_unverified(self, stall_run):
        shape = Finding(
            code="broad-right-shoulder",
            severity=0.5,
            message="shape",
            recommendation="",
            evidence={},
        )
        v = verify_finding(shape, stall_run.telemetry)
        assert v.verdict == UNVERIFIED


# -- slow-ost -------------------------------------------------------------------

class TestSlowOst:
    def test_scan_confirmed(self, stall_run):
        lay = stall_run.iosys.lookup("/scratch/oracle.dat").layout
        suspects = find_slow_osts(stall_run.trace, lay)
        report = verify_slow_osts(suspects, stall_run.telemetry)
        assert report.all_confirmed
        devs = {v.device for v in report.verdicts if v.verdict == CONFIRMED}
        assert SLOW in devs

    def test_false_suspect_contradicted(self, stall_run):
        bogus = OstSuspect(
            ost=(SLOW + 5) % 16,
            n_events=30,
            median=1.0,
            pool_median=0.2,
            slowdown=5.0,
            is_suspect=True,
        )
        report = verify_slow_osts([bogus], stall_run.telemetry)
        assert report.n_contradicted >= 1
        assert any(
            v.device == bogus.ost for v in report.contradictions
        )

    def test_missed_slow_device_contradicted(self, stall_run):
        # the direction the client cannot self-check: the server slowed
        # OST 3 but the (empty) scan never flagged it
        report = verify_slow_osts([], stall_run.telemetry)
        assert report.n_contradicted == 1
        assert report.contradictions[0].device == SLOW
        assert "missed" in report.contradictions[0].detail

    def test_healthy_scan_clean(self, healthy_run):
        lay = healthy_run.iosys.lookup("/scratch/oracle.dat").layout
        suspects = find_slow_osts(healthy_run.trace, lay)
        report = verify_slow_osts(suspects, healthy_run.telemetry)
        assert report.n_contradicted == 0


# -- failover-masked-fault ------------------------------------------------------

class TestMaskedFault:
    def test_masked_fault_confirmed(self, mirror_run):
        confirmed_devices = set()
        for path, f in sorted(mirror_run.iosys._files.items()):
            masked = find_masked_faults(
                mirror_run.trace.filter(path=path), f.layout
            )
            if not masked:
                continue
            report = verify_masked(masked, mirror_run.telemetry)
            assert report.all_confirmed, report.format()
            confirmed_devices |= {
                v.device for v in report.verdicts if v.verdict == CONFIRMED
            }
        assert confirmed_devices == {2}

    def test_diagnose_finding_confirmed(self, mirror_run):
        reports = []
        for path, f in sorted(mirror_run.iosys._files.items()):
            findings = [
                x
                for x in diagnose(
                    mirror_run.trace.filter(path=path), layout=f.layout
                )
                if x.code == "failover-masked-fault"
            ]
            if findings:
                reports.append(
                    verify_findings(findings, mirror_run.telemetry)
                )
        assert reports and all(r.all_confirmed for r in reports)

    def test_wrong_device_contradicted(self, mirror_run):
        for path, f in sorted(mirror_run.iosys._files.items()):
            masked = find_masked_faults(
                mirror_run.trace.filter(path=path), f.layout
            )
            if masked:
                wrong = replace(masked[0], ost=(masked[0].ost + 3) % 8)
                report = verify_masked([wrong], mirror_run.telemetry)
                assert report.n_contradicted == 1
                return
        pytest.fail("no masked faults located")


# -- ec-degraded / rebuild-pressure --------------------------------------------

class TestEcDegraded:
    def test_ec_finding_confirmed(self, ec_run):
        reports = []
        devices = set()
        for path, f in sorted(ec_run.iosys._files.items()):
            findings = [
                x
                for x in diagnose(
                    ec_run.trace.filter(path=path), layout=f.erasure
                )
                if x.code == "ec-degraded"
            ]
            if findings:
                r = verify_findings(findings, ec_run.telemetry)
                reports.append(r)
                devices |= {
                    v.device for v in r.verdicts if v.verdict == CONFIRMED
                }
        assert reports and all(r.all_confirmed for r in reports)
        assert 2 in devices

    def test_rebuild_pressure_confirmed(self, ec_run):
        located = []
        for path, f in sorted(ec_run.iosys._files.items()):
            located.extend(
                find_rebuild_pressure(
                    ec_run.trace.filter(path=path), f.erasure or f.layout
                )
            )
        assert any(r.ost == 2 for r in located)
        report = verify_rebuilds(
            [r for r in located if r.ost == 2], ec_run.telemetry
        )
        assert report.all_confirmed

    def test_wrong_device_contradicted(self, ec_run):
        for path, f in sorted(ec_run.iosys._files.items()):
            located = find_rebuild_pressure(
                ec_run.trace.filter(path=path), f.erasure or f.layout
            )
            if located:
                wrong = replace(located[0], ost=(located[0].ost + 3) % 8)
                report = verify_rebuilds([wrong], ec_run.telemetry)
                assert report.n_contradicted == 1
                return
        pytest.fail("no rebuild pressure located")


# -- report mechanics -----------------------------------------------------------

class TestReport:
    def test_contradictions_sort_first(self, stall_run):
        findings = _findings(
            stall_run, "/scratch/oracle.dat", ("transient-fault",)
        )
        wrong = replace(
            findings[0],
            evidence={**findings[0].evidence, "device": 14.0},
        )
        report = verify_findings(
            findings + [wrong], stall_run.telemetry
        )
        assert report.verdicts[0].verdict == CONTRADICTED
        assert not report.all_confirmed
        assert report.n_confirmed >= 1

    def test_empty_report_not_all_confirmed(self, stall_run):
        report = verify_findings([], stall_run.telemetry)
        assert not report.all_confirmed
        assert report.n_confirmed == 0

    def test_format_mentions_verdicts(self, stall_run):
        findings = _findings(
            stall_run, "/scratch/oracle.dat", ("transient-fault",)
        )
        text = verify_findings(findings, stall_run.telemetry).format()
        assert "confirmed" in text and "CONFIRMED" in text
