"""Direct CLI error-path tests: every malformed flag must die with a
``SystemExit`` whose message names the offending spec, not a traceback.

Runs ``repro.cli.main`` in-process with argv lists, asserting on the
exit payload (argparse errors exit 2; our own validation raises
``SystemExit(str)`` which the interpreter prints to stderr and maps to
exit 1).  No simulation runs: every case fails during validation.
"""

from __future__ import annotations

import pytest

from repro.cli import main


def _fails_with(argv, *needles):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    msg = str(exc.value.code if exc.value.code is not None else "")
    for needle in needles:
        assert needle in msg, f"{needle!r} not in {msg!r}"
    return msg


# -- redundancy flags -----------------------------------------------------------

def test_replicate_and_erasure_mutually_exclusive():
    _fails_with(
        ["run-ior", "--replicate", "2", "--erasure", "2+1"],
        "mutually exclusive",
    )


def test_malformed_erasure_spec():
    _fails_with(
        ["run-ior", "--erasure", "4x2"], "bad --erasure spec", "expected K+M"
    )


def test_erasure_needs_positive_k_and_m():
    _fails_with(
        ["run-ior", "--erasure", "0+2"], "K and M must both be >= 1"
    )


def test_erasure_wider_than_pool():
    _fails_with(
        ["run-ior", "--machine", "testbox", "--erasure", "4+2"],
        "bad --erasure code",
        "distinct OSTs",
    )


def test_replicate_count_out_of_range():
    _fails_with(
        ["run-ior", "--machine", "testbox", "--replicate", "9"],
        "bad --replicate count",
    )


# -- fault specs ----------------------------------------------------------------

def test_malformed_fault_spec():
    _fails_with(["run-ior", "--fault", "wobble:1:2:3"], "bad --fault spec")


def test_fault_device_beyond_pool():
    _fails_with(
        ["run-ior", "--machine", "testbox", "--fault", "stall:99:0:1"],
        "bad --fault spec",
    )


def test_fault_zero_length_window():
    _fails_with(
        ["run-ior", "--fault", "stall:2:0.5:0.5"],
        "bad --fault spec",
        "0 <= t_start < t_end",
    )


def test_fault_negative_length_window():
    _fails_with(
        ["run-ior", "--fault", "degrade:2:0.9:0.3:4"],
        "bad --fault spec",
        "0 <= t_start < t_end",
    )


def test_fault_negative_start():
    _fails_with(
        ["run-ior", "--fault", "stall:2:-0.5:1.0"],
        "bad --fault spec",
        "0 <= t_start < t_end",
    )


def test_fault_same_kind_overlap_on_one_device():
    _fails_with(
        [
            "run-ior",
            "--fault", "stall:2:0.1:0.9",
            "--fault", "stall:2:0.5:1.5",
        ],
        "bad --fault spec",
        "overlap",
    )


def test_fault_cross_kind_overlap_on_one_device():
    _fails_with(
        [
            "run-ior",
            "--fault", "stall:2:0.1:0.9",
            "--fault", "degrade:2:0.5:1.5:4",
        ],
        "bad --fault spec",
        "must not overlap",
    )


def test_fault_overlap_on_distinct_devices_is_fine():
    # same windows on different devices compose legally: parsing alone
    # must not reject them (no simulation runs: the machine check fires
    # later only for out-of-range devices, so use an invalid ntasks to
    # stop before the run without touching the fault path)
    from repro.iosys.faults import FaultSchedule

    sched = FaultSchedule.from_specs(
        ["stall:2:0.1:0.9", "degrade:3:0.5:1.5:4"]
    )
    sched.check_device_overlaps()  # must not raise


# -- machine selection ----------------------------------------------------------

def test_unknown_machine():
    _fails_with(
        ["run-ior", "--machine", "nosuch"],
        "unknown machine",
        "shared-testbox",
    )


# -- run-facility: tenant specs -------------------------------------------------

def test_tenants_flag_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-facility"])
    assert exc.value.code == 2  # argparse usage error
    assert "--tenants" in capsys.readouterr().err


def test_tenant_spec_missing_name():
    _fails_with(
        ["run-facility", "--tenants", "checkpoint:4"],
        "bad tenant spec",
        "NAME=WORKLOAD:NTASKS",
    )


def test_tenant_spec_unknown_workload():
    msg = _fails_with(
        ["run-facility", "--tenants", "vic=nosuch:4"],
        "unknown workload",
    )
    assert "checkpoint" in msg  # the error lists the real choices


def test_tenant_spec_bad_ntasks():
    _fails_with(
        ["run-facility", "--tenants", "vic=checkpoint:0"],
        "ntasks must be >= 1",
    )
    _fails_with(
        ["run-facility", "--tenants", "vic=checkpoint:four"],
        "not an integer",
    )


def test_tenant_spec_bad_arrival():
    _fails_with(
        ["run-facility", "--tenants", "vic=checkpoint:4@-1"],
        "arrival must be >= 0",
    )


def test_duplicate_tenant_names_rejected():
    _fails_with(
        [
            "run-facility",
            "--tenants", "vic=idle:1",
            "--tenants", "vic=idle:1",
        ],
        "bad facility",
        "duplicate job names",
    )


# -- run-facility: arrival specs ------------------------------------------------

def test_arrival_poisson_rate_must_be_positive():
    _fails_with(
        [
            "run-facility", "--tenants", "vic=idle:1",
            "--arrival", "poisson:0",
        ],
        "rate must be > 0",
    )


def test_arrival_burst_needs_size_and_gap():
    _fails_with(
        [
            "run-facility", "--tenants", "vic=idle:1",
            "--arrival", "burst:0:1",
        ],
        "need SIZE >= 1",
    )


def test_arrival_unknown_kind():
    _fails_with(
        [
            "run-facility", "--tenants", "vic=idle:1",
            "--arrival", "lognormal:3",
        ],
        "bad --arrival spec",
        "poisson:RATE",
    )


def test_arrival_trace_shorter_than_mix():
    _fails_with(
        [
            "run-facility",
            "--tenants", "vic=idle:1",
            "--tenants", "agg=idle:1",
            "--arrival", "trace:0.5",
        ],
        "1 arrivals but 2 jobs",
    )


# -- run-facility: victim selection ---------------------------------------------

def test_victim_must_name_a_tenant():
    _fails_with(
        [
            "run-facility", "--tenants", "vic=checkpoint:4",
            "--victim", "ghost",
        ],
        "bad --victim",
        "ghost",
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["experiments", "--help"],
         ["repro experiments", "--workers", "--save", "--store", "paper", "fig1"]),
        (["sweep", "-h"], ["repro experiments", "--workers", "--save", "--store"]),
        (["store", "--help"],
         ["repro store", "ingest", "report", "regressions", "query"]),
        (["store", "query", "--help"], ["--require", "--db", "--json"]),
    ],
)
def test_delegated_help_shows_the_real_parser(argv, expected, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for token in expected:
        assert token in out
    assert "positional arguments:\n  args" not in out


def test_delegated_options_may_lead(capsys):
    """An option before the selectors reaches the delegated parser."""
    assert main(["experiments", "--workers", "0", "tiny", "fig1"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
