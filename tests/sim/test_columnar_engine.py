"""Property-based oracle tests for the columnar engine.

The scalar :class:`~repro.sim.engine.Engine` heap walk is kept verbatim
as the behavioural oracle (exactly as ``PowerTimeline`` keeps
``_energy_walk`` for the power-series kernel).  For any random program,
:class:`~repro.sim.columnar.ColumnarEngine` must process the **same
events in the same order at the same float clock values** — the inlined
``run`` loop and the lazily skipped cancelled rows are invisible to
simulation code.  A second oracle, a brute-force model that sorts the
live events by ``(when, priority, seq)``, checks the core against
random interleavings of scheduling, cancellation and ``run(until=t)``.

Also covers the engine-level additions this layer introduced:
``cancel`` / ``schedule_at`` / ``timeout_at`` semantics, the non-finite
delay guard (a ``NaN`` delay used to corrupt the scalar heap silently),
and the ``Engine.run`` edge cases around ``until``.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    ColumnarEngine,
    Engine,
    SimulationError,
)

# ---------------------------------------------------------------------------
# random-program strategies
# ---------------------------------------------------------------------------
# A deliberately collision-rich delay pool: duplicates force many events
# onto the same instant, which is where a core could diverge from the
# scalar heap's (time, priority, insertion-seq) order.
_DELAYS = [0.0, 0.125, 0.25, 0.25, 0.5, 1.0 / 3.0, 0.125, 1.0]
_PRIOS = [PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW]

# One instruction per yield point of a process:
#   kind 0 — wait on a timeout(delay)
#   kind 1 — schedule a bare event at (delay, priority) and wait on it
#   kind 2 — succeed a shared event (if still pending), then short wait
#   kind 3 — wait on any_of(shared event, timeout(delay))
_OP = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(range(len(_DELAYS))),
    st.sampled_from(range(len(_PRIOS))),
    st.integers(min_value=0, max_value=2),  # shared-event index
)
_PROGRAM = st.lists(
    st.lists(_OP, min_size=1, max_size=6), min_size=1, max_size=5
)


def _execute(engine_cls, program):
    """Run the interpreted program; return its dispatch log and end time."""
    eng = engine_cls()
    shared = [eng.event() for _ in range(3)]
    log = []

    def body(pid, ops):
        for step, (kind, d_idx, p_idx, s_idx) in enumerate(ops):
            delay = _DELAYS[d_idx]
            if kind == 0:
                yield eng.timeout(delay, value=(pid, step))
            elif kind == 1:
                ev = eng.event()
                ev._ok = True
                ev._value = (pid, step)
                eng.schedule(ev, delay, _PRIOS[p_idx])
                yield ev
            elif kind == 2:
                if not shared[s_idx].triggered:
                    shared[s_idx].succeed((pid, step))
                yield eng.timeout(delay)
            else:
                yield eng.any_of([shared[s_idx], eng.timeout(delay)])
            log.append((eng.now, pid, step))

    for pid, ops in enumerate(program):
        eng.process(body(pid, ops), name=f"p{pid}")
    eng.run()
    return log, eng.now


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAM)
def test_random_programs_are_bit_identical(program):
    scalar_log, scalar_end = _execute(Engine, program)
    columnar_log, columnar_end = _execute(ColumnarEngine, program)
    # == on the tuples compares the clock floats exactly — no tolerance.
    assert columnar_log == scalar_log
    assert columnar_end == scalar_end


@settings(max_examples=60, deadline=None)
@given(program=_PROGRAM, until=st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5]))
def test_run_until_time_is_bit_identical(program, until):
    logs = []
    for engine_cls in (Engine, ColumnarEngine):
        eng = engine_cls()
        shared = [eng.event() for _ in range(3)]
        log = []

        def body(pid, ops, eng=eng, shared=shared, log=log):
            for step, (kind, d_idx, p_idx, s_idx) in enumerate(ops):
                delay = _DELAYS[d_idx]
                if kind == 2 and not shared[s_idx].triggered:
                    shared[s_idx].succeed(None)
                yield eng.timeout(delay)
                log.append((eng.now, pid, step))

        for pid, ops in enumerate(program):
            eng.process(body(pid, ops), name=f"p{pid}")
        eng.run(until=until)
        assert eng.now == until  # the clock lands exactly on the stop time
        logs.append(log)
    assert logs[0] == logs[1]


# One instruction of a driver program, run from outside the engine:
#   ("delay", d, p)  — schedule(event, delay=_DELAYS[d], priority=_PRIOS[p])
#   ("at", d, p)     — schedule_at(event, now + _DELAYS[d], _PRIOS[p])
#   ("cancel", k)    — cancel the k-th live event (mod the live count)
#   ("head",)        — cancel the live event at the head of the queue
#   ("run", d)       — run(until=now + _DELAYS[d])
_DRIVER_OP = st.one_of(
    st.tuples(
        st.sampled_from(["delay", "at"]),
        st.sampled_from(range(len(_DELAYS))),
        st.sampled_from(range(len(_PRIOS))),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("head")),
    st.tuples(st.just("run"), st.sampled_from(range(len(_DELAYS)))),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_DRIVER_OP, min_size=1, max_size=120))
# run(until=t) stopping just short of a same-instant pair must keep
# the pair's (priority, seq) order.
@example(ops=[("delay", 1, 0), ("delay", 1, 0), ("run", 0)])
# A cancelled head must not decide where run(until=t) stops.
@example(ops=[("at", 1, 1), ("delay", 4, 0), ("head",), ("run", 2), ("run", 7)])
def test_interleaved_driver_matches_brute_force_model(ops):
    """Random schedule / schedule_at / cancel / run(until=t) programs,
    cancelled heads included, dispatch exactly the model's sequence: the
    live events sorted by (when, priority, seq)."""
    eng = ColumnarEngine()
    log = []
    expected = []
    live = {}  # seq -> (when, priority, seq, event)
    seqs = itertools.count()

    def record(event):
        log.append((eng.now, event._value))

    def drain_model(until):
        due = sorted(row for row in live.values() if row[0] <= until)
        for when, _prio, seq, _event in due:
            expected.append((when, seq))
            del live[seq]

    for op in ops:
        kind = op[0]
        if kind in ("delay", "at"):
            _, d_idx, p_idx = op
            seq = next(seqs)
            ev = eng.event()
            ev._ok = True
            ev._value = seq
            ev.callbacks.append(record)
            when = eng.now + _DELAYS[d_idx]
            if kind == "delay":
                eng.schedule(ev, _DELAYS[d_idx], _PRIOS[p_idx])
            else:
                eng.schedule_at(ev, when, _PRIOS[p_idx])
            live[seq] = (when, _PRIOS[p_idx], seq, ev)
        elif kind in ("cancel", "head"):
            if not live:
                continue
            rows = sorted(live.values())
            row = rows[0] if kind == "head" else rows[op[1] % len(rows)]
            assert eng.cancel(row[3]) is True
            assert eng.cancel(row[3]) is False
            del live[row[2]]
        else:
            until = eng.now + _DELAYS[op[1]]
            eng.run(until=until)
            drain_model(until)
            assert eng.now == until
        assert eng.pending == len(live)
        assert eng.peek() == min((row[0] for row in live.values()), default=math.inf)
        assert log == expected

    eng.run()
    drain_model(math.inf)
    assert log == expected
    assert eng.pending == 0
    assert eng.stats.dispatched == len(log)
    assert eng.stats.frontiers == len({when for when, _ in log})


# ---------------------------------------------------------------------------
# cancel / schedule_at / timeout_at
# ---------------------------------------------------------------------------
class TestCancel:
    def test_cancelled_event_never_dispatches(self):
        eng = ColumnarEngine()
        fired = []
        ev = eng.timeout(1.0)
        ev.callbacks.append(lambda e: fired.append(e))
        assert eng.cancel(ev) is True
        eng.run()
        assert fired == []
        assert eng.now == 0.0  # nothing left to run

    def test_cancel_is_idempotent_and_reports(self):
        eng = ColumnarEngine()
        ev = eng.timeout(1.0)
        assert eng.cancel(ev) is True
        assert eng.cancel(ev) is False  # already cancelled

    def test_cancel_processed_event_returns_false(self):
        eng = ColumnarEngine()
        ev = eng.timeout(1.0)
        eng.run()
        assert ev.processed
        assert eng.cancel(ev) is False

    def test_cancel_untriggered_event_returns_false(self):
        eng = ColumnarEngine()
        ev = eng.event()  # never scheduled
        assert eng.cancel(ev) is False

    def test_cancelled_head_never_determines_the_frontier(self):
        """run(until=t) must not overshoot because a cancelled event sat
        at the head of the queue (the _purge() contract)."""
        eng = ColumnarEngine()
        early = eng.timeout(1.0)
        eng.timeout(5.0)
        eng.cancel(early)
        assert eng.peek() == 5.0
        eng.run(until=2.0)
        assert eng.now == 2.0

    def test_pending_counts_live_events_only(self):
        eng = ColumnarEngine()
        evs = [eng.timeout(float(i + 1)) for i in range(4)]
        assert eng.pending == 4
        eng.cancel(evs[0])
        eng.cancel(evs[2])
        assert eng.pending == 2
        eng.run()
        assert eng.pending == 0
        assert eng.now == 4.0

    def test_stats_count_cancellations_and_frontiers(self):
        """``frontiers`` counts the distinct instants at which events
        were dispatched: a cancelled-only instant is not one, and an
        event scheduled at the live instant joins it."""
        eng = ColumnarEngine()
        ev = eng.timeout(0.5)
        eng.cancel(ev)
        same_instant = eng.timeout(1.0)
        same_instant.callbacks.append(lambda e: eng.timeout(0.0))
        eng.timeout(1.0)
        eng.timeout(2.0)
        eng.run(until=1.5)
        eng.timeout(0.5)  # lands on 2.0, an instant already queued
        eng.run()
        assert eng.stats.cancelled == 1
        assert eng.stats.dispatched == 5
        assert eng.stats.frontiers == 2  # t = 1.0 and t = 2.0
        assert eng.stats.as_dict() == {
            "frontiers": 2,
            "dispatched": 5,
            "cancelled": 1,
        }


class TestAbsoluteScheduling:
    def test_timeout_at_fires_on_the_exact_float(self):
        eng = ColumnarEngine()
        # A float that a delay round-trip (when - now) would perturb.
        when = 0.1 + 0.2  # 0.30000000000000004
        ev = eng.timeout_at(when, value="x")
        eng.run(until=ev)
        assert eng.now == when

    def test_schedule_at_past_rejected(self):
        eng = ColumnarEngine()
        eng.timeout(1.0)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(eng.event(), 0.5)

    def test_schedule_at_non_finite_rejected(self):
        eng = ColumnarEngine()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                eng.schedule_at(eng.event(), bad)

    def test_timeout_at_value_delivered(self):
        eng = ColumnarEngine()
        ev = eng.timeout_at(1.5, value=42)
        assert eng.run(until=ev) == 42


# ---------------------------------------------------------------------------
# the non-finite delay guard (regression: NaN used to corrupt the heap)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5, -1e-9])
def test_schedule_rejects_non_finite_and_negative_delays(engine_cls, bad):
    eng = engine_cls()
    with pytest.raises(SimulationError):
        eng.schedule(eng.event(), delay=bad)
    with pytest.raises(SimulationError):
        eng.timeout(bad)
    # The queue stayed intact: ordering still works afterwards.
    eng.timeout(1.0)
    eng.run()
    assert eng.now == 1.0


@pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
def test_nan_delay_does_not_corrupt_order(engine_cls):
    """Regression: before the guard, scheduling a NaN delay silently
    poisoned heap comparisons and later events dispatched out of order."""
    eng = engine_cls()
    order = []
    for delay in (3.0, 1.0):
        ev = eng.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: order.append(e._value))
    with pytest.raises(SimulationError):
        eng.timeout(float("nan"))
    ev = eng.timeout(2.0, value=2.0)
    ev.callbacks.append(lambda e: order.append(e._value))
    eng.run()
    assert order == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# Engine.run edge cases (both engines)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
class TestRunEdgeCases:
    def test_until_equal_to_now_runs_due_events_only(self, engine_cls):
        eng = engine_cls()
        fired = []
        now_ev = eng.timeout(0.0)
        now_ev.callbacks.append(lambda e: fired.append("now"))
        later = eng.timeout(1.0)
        later.callbacks.append(lambda e: fired.append("later"))
        eng.run(until=0.0)
        assert fired == ["now"]  # due-now events run; the future stays queued
        assert eng.now == 0.0
        assert not later.processed

    def test_until_in_the_past_rejected(self, engine_cls):
        eng = engine_cls(start_time=5.0)
        with pytest.raises(SimulationError):
            eng.run(until=1.0)

    def test_until_already_failed_event_reraises(self, engine_cls):
        eng = engine_cls()
        boom = RuntimeError("boom")
        ev = eng.event()
        ev.fail(boom)
        eng.run()  # processes the failure; nobody was waiting
        assert ev.processed and not ev.ok
        with pytest.raises(RuntimeError, match="boom"):
            eng.run(until=ev)

    def test_until_already_succeeded_event_returns_value(self, engine_cls):
        eng = engine_cls()
        ev = eng.timeout(0.5, value="done")
        eng.run()
        assert eng.run(until=ev) == "done"

    def test_strict_false_failure_propagates_to_waiter(self, engine_cls):
        eng = engine_cls(strict=False)

        def failing():
            yield eng.timeout(0.1)
            raise ValueError("inner")

        proc = eng.process(failing())
        with pytest.raises(ValueError, match="inner"):
            eng.run(until=proc)

    def test_strict_false_unwatched_failure_does_not_escape(self, engine_cls):
        eng = engine_cls(strict=False)

        def failing():
            yield eng.timeout(0.1)
            raise ValueError("inner")

        proc = eng.process(failing())
        eng.run()  # drains without raising
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, ValueError)

    def test_invalid_until_rejected(self, engine_cls):
        eng = engine_cls()
        with pytest.raises(SimulationError):
            eng.run(until=object())

    def test_run_until_event_that_never_fires_raises(self, engine_cls):
        eng = engine_cls()
        eng.timeout(1.0)
        orphan = eng.event()
        with pytest.raises(SimulationError, match="never triggering"):
            eng.run(until=orphan)


def test_step_on_empty_queue_raises():
    eng = ColumnarEngine()
    with pytest.raises(SimulationError, match="empty event queue"):
        eng.step()


def test_peek_on_empty_queue_is_inf():
    eng = ColumnarEngine()
    assert math.isinf(eng.peek())
