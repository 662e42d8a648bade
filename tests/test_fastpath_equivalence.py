"""Differential equivalence harness: the engine IS the heap ordering.

The engine's dispatch loop (calendar buckets, same-instant tail FIFO,
pooled completions, fused process wake-ups -- see ``repro.sim.engine``)
is the hottest, most behaviour-critical code in the repo.  Its contract
is the order of one ``(time, creation sequence)`` priority queue, which
``tests/heap_reference.py`` keeps as a test-side oracle.  This harness
checks the engine against it:

1. every committed golden scenario runs on the engine and on the heap
   reference and must produce the committed digest byte-for-byte --
   event stream, float timestamps, and telemetry timeline alike
   (parametrized over ``SCENARIOS``, so a newly committed golden is
   covered automatically);
2. the same holds with the sanitizer forced on, with zero races;
3. Hypothesis drives randomly generated kernel programs through both
   and compares the full dispatch order;
4. metamorphic checks: commutative same-instant submissions conserve
   totals, and deliberately ambiguous schedules are flagged on both
   (including zero-delay events, which the engine routes through the
   tail queue rather than the calendar).

Tests parametrized over ``fast`` run the engine for ``True`` and the
heap reference for ``False``.
"""

from __future__ import annotations

import gc
import json
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import POOL_LIMIT, Engine, SimulationError
from repro.sim.resources import Server, SlotChannel

from tests.heap_reference import HeapTail, heap_reference
from tests.test_golden_traces import GOLDEN_DIR, SCENARIOS, digest


def _path(fast):
    """The engine as it is (``fast``) or the heap reference."""
    return nullcontext() if fast else heap_reference()


# -- 1: goldens on the engine and the heap reference -------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_identical_on_both_paths(name):
    """Engine digest == heap-reference digest == committed golden,
    including the telemetry timeline hash when the scenario exports
    one."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    fast = digest(SCENARIOS[name]())
    with heap_reference():
        ref = digest(SCENARIOS[name]())
    assert fast == golden, f"{name}: engine diverged from golden"
    assert ref == golden, f"{name}: heap reference diverged from golden"


def test_heap_reference_is_live():
    """The oracle really runs: every event of a golden scenario goes
    through the heap stand-in, once each."""
    name = "ior_write"
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    with heap_reference():
        result = SCENARIOS[name]()
    engine = result.iosys.engine
    assert type(engine._tail) is HeapTail
    assert engine._tail.heap == []
    assert engine._tail.pushes == engine.event_count > 0
    assert digest(result) == golden


def _run_sanitized(name, fast):
    """One golden scenario with every engine sanitized (the scenario
    builders take no knobs by design), on the engine or the heap
    reference."""
    with _path(fast):
        orig = Engine.__init__

        def forced(self, sanitize=False):
            orig(self, sanitize=True)

        Engine.__init__ = forced
        try:
            return SCENARIOS[name]()
        finally:
            Engine.__init__ = orig


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fast_path_sanitized(name):
    """Goldens with the sanitizer forced on, on the engine and on the
    heap reference: byte-identical, zero races."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    for fast in (True, False):
        result = _run_sanitized(name, fast)
        engine = result.iosys.engine
        assert (type(engine._tail) is HeapTail) is not fast
        assert engine.sanitize is True
        assert engine.races == [], "\n".join(r.format() for r in engine.races)
        assert digest(result) == golden


# -- 2: kernel-level differential fuzz ----------------------------------------

def _dispatch_log(fast, program):
    """Run ``program`` (a list of per-process op lists) and return the
    exact observable dispatch order: (time, process id, op index) for
    every step every process takes, plus final now/event_count."""
    log = []
    with _path(fast):
        engine = Engine()
        assert (type(engine._tail) is HeapTail) is not fast

        shared = [engine.event() for _ in range(4)]

        def proc(pid, ops):
            for i, (kind, arg) in enumerate(ops):
                if kind == "timeout":
                    got = yield engine.timeout(arg, value=(pid, i))
                    log.append(("t", engine.now, pid, i, got))
                elif kind == "zero":
                    got = yield engine.timeout(0.0, value=(pid, i))
                    log.append(("z", engine.now, pid, i, got))
                elif kind == "trigger":
                    ev = shared[arg]
                    if not ev.triggered:
                        ev.succeed((pid, i))
                    log.append(("s", engine.now, pid, i, None))
                elif kind == "fail":
                    ev = shared[arg]
                    if not ev.triggered:
                        ev.fail(RuntimeError(pid, i))
                    log.append(("f", engine.now, pid, i, None))
                elif kind == "wait":
                    try:
                        got = yield shared[arg]
                    except RuntimeError as exc:
                        got = ("raised", exc.args)
                    log.append(("w", engine.now, pid, i, got))
                elif kind == "spawn":
                    child = engine.process(proc(100 + pid, arg))
                    got = yield child
                    log.append(("c", engine.now, pid, i, got))
            return ("ret", pid)

        for pid, ops in enumerate(program):
            engine.process(proc(pid, ops))
        # every shared event eventually fires so no process hangs
        def backstop():
            yield engine.timeout(1000.0)
            for ev in shared:
                if not ev.triggered:
                    ev.succeed("backstop")
            yield engine.timeout(1.0)

        engine.process(backstop())
        engine.run()
        log.append(("end", engine.now, engine.event_count))
    return log


_op = st.one_of(
    st.tuples(
        st.just("timeout"),
        st.floats(
            min_value=0.0, max_value=10.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("trigger"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=3)),
)

_child = st.tuples(st.just("spawn"), st.lists(_op, max_size=3))

_program = st.lists(
    st.lists(st.one_of(_op, _child), max_size=6), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(program=_program)
def test_random_programs_dispatch_identically(program):
    """The engine and the heap reference observe the exact same (time,
    process, value) order on arbitrary interleavings of timeouts,
    zero-delay wake-ups, shared events (succeeded or failed), and child
    processes."""
    assert _dispatch_log(True, program) == _dispatch_log(False, program)


@settings(max_examples=25, deadline=None)
@given(
    nbytes=st.lists(
        st.integers(min_value=0, max_value=10**8), min_size=1, max_size=12
    ),
    slots=st.integers(min_value=1, max_value=5),
)
def test_slot_channel_matches_reference(nbytes, slots):
    """Resource completions (pooled on the engine, plain timeouts on the
    heap reference) finish at identical times with identical values."""

    def run(fast):
        with _path(fast):
            engine = Engine()
            channel = SlotChannel(engine, bandwidth=1e9, slots=slots)
            finished = []

            def submit(i, n):
                dur = yield channel.transfer(n)
                finished.append((engine.now, i, dur))

            for i, n in enumerate(nbytes):
                engine.process(submit(i, n))
            engine.run()
            return finished, channel.bytes_transferred, engine.event_count

    assert run(True) == run(False)


# -- 3: metamorphic properties ------------------------------------------------

def test_same_instant_commutative_submissions_conserve_totals():
    """Same-instant transfers submitted in any order conserve the
    totals -- bytes moved, requests served, accumulated service time,
    completion count -- even though FIFO admission legitimately
    reshuffles individual completion instants.  The engine and the
    heap reference agree on every order."""
    sizes = [3 * 10**6, 1 * 10**6, 2 * 10**6, 2 * 10**6, 5 * 10**5]

    def run(order, fast):
        with _path(fast):
            engine = Engine()
            channel = SlotChannel(engine, bandwidth=1e9, slots=2)
            server = Server(engine, rate=2e9, concurrency=2, overhead=1e-5)
            done = []

            def one(n):
                yield channel.transfer(n)
                yield server.request(n)
                done.append(n)

            for n in order:
                engine.process(one(n))
            engine.run()
            return (
                channel.bytes_transferred,
                server.bytes_served,
                server.requests_served,
                server.busy_time,
                len(done),
            )

    orders = [sizes, list(reversed(sizes)), sorted(sizes)]
    totals = []
    for order in orders:
        fast = run(order, fast=True)
        ref = run(order, fast=False)
        assert fast == ref, "engine and heap reference disagree"
        totals.append(fast)
    for other in totals[1:]:
        assert other[0] == totals[0][0]  # channel bytes
        assert other[1] == totals[0][1]  # server bytes
        assert other[2] == totals[0][2]  # requests
        assert other[3] == pytest.approx(totals[0][3])  # busy_time
        assert other[4] == totals[0][4]  # completions


@pytest.mark.parametrize("fast", [True, False])
def test_sanitizer_flags_ambiguous_schedules(fast):
    """No blind spots: a genuinely ambiguous same-instant pair is
    flagged identically on the engine and the heap reference."""
    with _path(fast):
        engine = Engine(sanitize=True)

        def proc():
            first = engine.annotate(engine.timeout(1.0), "ost1", op="write")
            second = engine.annotate(
                engine.timeout(1.0), "ost1", op="truncate"
            )
            yield engine.all_of([first, second])

        engine.process(proc())
        engine.run()
    assert len(engine.races) == 1
    assert engine.races[0].resource == "ost1"


@pytest.mark.parametrize("fast", [True, False])
def test_sanitizer_sees_tail_routed_zero_delay_races(fast):
    """Zero-delay events never touch the calendar on the engine (they
    go through the tail FIFO); the sanitizer must still see them."""
    with _path(fast):
        engine = Engine(sanitize=True)

        def proc():
            yield engine.timeout(2.0)
            first = engine.annotate(engine.timeout(0.0), "mds", op="create")
            second = engine.annotate(engine.timeout(0.0), "mds", op="unlink")
            yield engine.all_of([first, second])

        engine.process(proc())
        engine.run()
    assert len(engine.races) == 1
    assert engine.races[0].time == pytest.approx(2.0)


# -- 4: pooling safety ---------------------------------------------------------

def test_user_held_events_are_never_recycled():
    """The refcount guard: an event the test still holds must keep its
    value forever, no matter how many pooled cycles follow it."""
    engine = Engine()
    held = []

    def proc():
        for i in range(50):
            tmo = engine.timeout(0.5, value=("keep", i))
            held.append(tmo)
            yield tmo
            # churn: plenty of recycle-eligible timeouts in between
            for _ in range(5):
                yield engine.timeout(0.125)

    engine.process(proc())
    engine.run()
    assert len(held) == len({id(t) for t in held})
    for i, tmo in enumerate(held):
        assert tmo.value == ("keep", i)


def test_pool_reuse_is_real_but_bounded():
    """Resource completions ARE recycled (the pool works) and the pool
    never exceeds its bound, even after a burst of simultaneous ones."""
    engine = Engine()
    channel = SlotChannel(engine, bandwidth=1e6, slots=1)
    server = Server(engine, rate=1e6, concurrency=1, overhead=1e-4)

    def proc():
        for _ in range(1000):
            yield channel.transfer(100.0)
            yield server.request(100.0)

    engine.process(proc())
    engine.run()
    # steady state: one completion in flight at a time -> tiny
    # pool, heavy reuse
    assert 1 <= len(engine._comp_pool) <= POOL_LIMIT
    assert engine.event_count >= 4000

    # a burst: more completions fire at one instant than the pool
    # may keep
    wide = Server(engine, rate=1e6, concurrency=2 * POOL_LIMIT)
    for _ in range(2 * POOL_LIMIT):
        wide.request(100.0)
    engine.run()
    assert 1 <= len(engine._comp_pool) <= POOL_LIMIT


@pytest.mark.parametrize("fast", [True, False])
def test_finished_run_leaves_no_cyclic_garbage(fast):
    """Processes waiting on plain events, timeouts, child processes and
    resource completions (channel, server) form no
    reference cycles: once a finished engine is dropped, reference
    counting alone frees everything, so the cycle collector finds
    nothing (and peak memory does not wait on a gen-2 pass)."""

    def run_program():
        engine = Engine()
        channel = SlotChannel(engine, bandwidth=1e6, slots=2)
        server = Server(engine, rate=1e6, concurrency=2, overhead=1e-4)

        def client(i):
            yield channel.transfer(1000.0 * (i + 1))
            yield server.request(500.0)
            return i

        def child(i):
            yield engine.timeout(0.25)
            return i

        def waiter(ev):
            value = yield ev
            yield engine.timeout(0.5)
            return value

        def parent():
            total = 0
            for i in range(20):
                ev = engine.event()
                waiting = engine.process(waiter(ev))
                yield engine.timeout(0.125)
                ev.succeed(i)
                total += yield engine.process(child(i))
                total += yield waiting
            return total

        top = engine.process(parent())
        clients = [engine.process(client(i)) for i in range(8)]
        engine.run()
        assert top.value == 2 * sum(range(20))
        assert [c.value for c in clients] == list(range(8))
        assert server.requests_served == 8

    # the patching itself stays outside the measured window
    with _path(fast):
        gc.collect()
        gc.disable()
        try:
            run_program()
            assert gc.collect() == 0
        finally:
            gc.enable()


# -- 5: time never moves backwards --------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_run_until_before_now_is_an_error(fast):
    """run(until < now) raises and leaves the engine as it was, with
    work pending or idle."""
    with _path(fast):
        engine = Engine()

        def proc():
            yield engine.timeout(5.0)
            yield engine.timeout(5.0)

        engine.process(proc())
        engine.run(until=6.0)
        assert engine.now == pytest.approx(6.0)
        with pytest.raises(SimulationError, match="earlier than now"):
            engine.run(until=2.0)  # pending work
        assert engine.now == pytest.approx(6.0)
        engine.run()
        assert engine.now == pytest.approx(10.0)
        with pytest.raises(SimulationError, match="earlier than now"):
            engine.run(until=3.0)  # idle
        assert engine.now == pytest.approx(10.0)
        engine.run(until=10.0)  # until == now is fine
        assert engine.now == pytest.approx(10.0)
