"""The default event core: one binary heap, O(1) cancel, an inlined loop.

:class:`ColumnarEngine` is a drop-in :class:`~repro.sim.engine.Engine`
replacement built for the hot path:

* Future events live in the inherited binary heap of
  ``(when, priority, seq, event)`` rows — the scalar engine's own key.
* :meth:`cancel` is a set insertion: the row stays in the heap and is
  skipped when popped.  :meth:`peek` drops cancelled rows from the head
  first, so a cancelled event never decides the next instant and
  ``run(until=t)`` never overshoots.  Cancellation is what makes the
  bulk fast paths in the hardware layer possible (a whole-message
  network transfer or a re-timed ``run_cycles`` quantum schedules *one*
  completion event and cancels it on preemption, instead of racing an
  ``AnyOf`` per chunk).
* :meth:`run` pops and dispatches in one inlined loop instead of calling
  ``_has_pending()``, ``peek()`` and ``step()`` per event.

**Oracle contract** (enforced by hypothesis tests in
``tests/sim/test_columnar_engine.py``): for any program, this core
processes the exact same events, in the exact same order, at the exact
same ``float`` clock values as the scalar :class:`Engine` — both pop
rows in ``(time, priority, insertion-seq)`` order, and skipped
cancelled rows are invisible to simulation code.  The scalar engine and
its ``run`` loop stay intact as the independent property-test oracle.

The class keeps its historical name and the ``"columnar"`` mode string
(``REPRO_ENGINE``, the facade and the benchmark select it by them).
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Set

from repro.sim.engine import Engine, PRIORITY_NORMAL
from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import Event

__all__ = ["ColumnarEngine", "EngineStats"]

_INF = float("inf")


class EngineStats:
    """Counters the core maintains (cheap ints, always on)."""

    __slots__ = ("frontiers", "dispatched", "cancelled")

    def __init__(self) -> None:
        self.frontiers = 0  #: distinct instants at which events dispatched
        self.dispatched = 0  #: events actually processed
        self.cancelled = 0  #: events revoked before dispatch

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<EngineStats {body}>"


class ColumnarEngine(Engine):
    """One-heap engine with cancellation (see module docstring).

    Identical public semantics to :class:`Engine`, plus:

    * :meth:`cancel` — O(1) revocation of a scheduled event;
    * :meth:`schedule_at` / :meth:`timeout_at` — absolute-time
      scheduling, which the bulk fast paths use to land completions on
      the *exact* float instants the scalar per-chunk walk would have
      produced;
    * :attr:`stats` — always-on frontier/dispatch/cancel counters.
    """

    supports_cancel = True

    def __init__(self, start_time: float = 0.0, strict: bool = True):
        super().__init__(start_time, strict)
        # Cancelled rows still in the heap, skipped (and forgotten) when
        # popped.  seq is unique, so heap comparisons never reach the Event.
        self._cancelled: Set[Event] = set()
        # Instant of the last dispatch (NaN: none yet), for stats.frontiers.
        self._last_dispatch = math.nan
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # queue primitives (overrides)
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        event: Event,
        when: float,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``event`` for processing at absolute time ``when``.

        Unlike ``schedule(delay=when - now)`` this does not round-trip
        through a subtraction, so a caller that *computed* an exact float
        instant (e.g. a chunk boundary replayed from the scalar walk)
        gets the event dispatched at exactly that float.
        """
        if not self._now <= when < _INF:
            raise SimulationError(
                f"cannot schedule at {when!r} (now={self._now}, "
                f"non-finite and past instants are rejected)"
            )
        heapq.heappush(self._queue, (when, priority, next(self._eid), event))

    def timeout_at(self, when: float, value: object = None) -> Event:
        """An event that fires at absolute time ``when`` (cancellable)."""
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule_at(event, when)
        return event

    def cancel(self, event: Event) -> bool:
        """Revoke a scheduled-but-unprocessed event in O(1).

        Returns ``True`` when the event was live and is now cancelled.
        The event object stays *triggered* (it carries its value) but its
        callbacks will never run.  Only events currently in the queue may
        be cancelled — that is the only state in which the fast paths
        call this.
        """
        if event.callbacks is None or not event.triggered:
            return False
        if event in self._cancelled:
            return False
        self._cancelled.add(event)
        self.stats.cancelled += 1
        return True

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none."""
        queue, cancelled = self._queue, self._cancelled
        while cancelled and queue and queue[0][3] in cancelled:
            cancelled.discard(heapq.heappop(queue)[3])
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if self.peek() == _INF:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        stats = self.stats
        stats.dispatched += 1
        if when != self._last_dispatch:
            self._last_dispatch = when
            stats.frontiers += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

    def run(self, until: object = None) -> object:
        """Run the simulation; the same contract as :meth:`Engine.run`.

        The loop is inlined: each iteration pops one row, skips it if
        cancelled, stops before a row past ``until``, and otherwise
        dispatches it.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")

        stop_at: Optional[float] = None
        watched: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            watched = until
            if watched.callbacks is None:
                # Already processed; nothing to do.
                if not watched._ok:
                    raise watched._value  # type: ignore[misc]
                return watched._value
            watched.callbacks.append(self._stop_on_event)
        elif isinstance(until, (int, float)):
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
        else:
            raise SimulationError(f"invalid until argument: {until!r}")

        limit = _INF if stop_at is None else stop_at
        queue = self._queue
        cancelled = self._cancelled
        pop = heapq.heappop
        last = self._last_dispatch
        dispatched = frontiers = 0
        self._running = True
        try:
            while queue:
                when, prio, seq, event = pop(queue)
                if cancelled and event in cancelled:
                    cancelled.discard(event)
                    continue
                if when > limit:
                    heapq.heappush(queue, (when, prio, seq, event))
                    self._now = limit
                    return None
                if when != last:
                    last = self._now = when
                    frontiers += 1
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:  # pragma: no cover - defensive
                    raise SimulationError(f"{event!r} processed twice")
                for callback in callbacks:
                    callback(event)
        except StopSimulation as stop:
            event = stop.value
            assert isinstance(event, Event)
            if not event._ok:
                raise event._value  # type: ignore[misc]
            return event._value
        finally:
            self._running = False
            self._last_dispatch = last
            self.stats.dispatched += dispatched
            self.stats.frontiers += frontiers

        if watched is not None and not watched.triggered:
            raise SimulationError(
                "run(until=event) ended with the event never triggering "
                "(deadlock or missing stimulus)"
            )
        if stop_at is not None:
            self._now = stop_at
        return None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (scheduled, uncancelled) events."""
        return len(self._queue) - len(self._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnarEngine t={self._now:.6g} pending={self.pending} "
            f"frontiers={self.stats.frontiers}>"
        )
