"""The discrete-event simulation engine.

:class:`Engine` owns simulated time and the pending-event heap.  All other
kernel objects (:class:`~repro.sim.events.Event`,
:class:`~repro.sim.process.Process`, the resources in
:mod:`repro.sim.resources`) are created against an engine and scheduled
through it.

Time is a ``float`` in **seconds**; the hardware layer converts everything
(cycle counts, byte counts) to seconds before scheduling.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Iterable, List, Optional, Tuple

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = ["Engine", "PRIORITY_URGENT", "PRIORITY_NORMAL", "PRIORITY_LOW"]

#: Scheduling priorities: ties in time are broken first by priority, then by
#: insertion order.  Urgent is used for event-triggering bookkeeping so that
#: e.g. a resource release at time *t* is observed by requests at time *t*.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_INF = float("inf")


class Engine:
    """Discrete-event simulation core.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    strict:
        When ``True`` (the default), an uncaught exception inside a process
        propagates out of :meth:`run` immediately, which is the behaviour
        you want in tests.  When ``False`` the process simply fails and
        waiters observe the exception.
    """

    #: True on engines exposing O(1) ``cancel()`` — the hardware layer's
    #: bulk fast paths (whole-message transfers, re-timed ``run_cycles``,
    #: the fabric's shared per-node change events) require it and fall
    #: back to per-chunk/per-race event walks here.
    supports_cancel = False

    def __init__(self, start_time: float = 0.0, strict: bool = True):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self.strict = strict
        self._running = False

    # ------------------------------------------------------------------
    # clock & queue
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            # NaN fails both comparisons; a NaN (or inf) key would silently
            # corrupt heap ordering, so reject every non-finite delay here.
            raise SimulationError(
                f"cannot schedule into the past or with a non-finite "
                f"delay (delay={delay})"
            )
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def _has_pending(self) -> bool:
        """Whether any event is still queued (the :meth:`run` loop guard)."""
        return bool(self._queue)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

    def run(self, until: object = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains;
            * a number — run until that simulated time;
            * an :class:`Event` — run until the event is processed, and
              return its value (re-raising its exception on failure).
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

        self._running = True
        try:
            while self._has_pending():
                if stop_at is not None and self.peek() > stop_at:
                    self._now = stop_at
                    return None
                try:
                    self.step()
                except StopSimulation as stop:
                    event = stop.value
                    assert isinstance(event, Event)
                    if not event._ok:
                        raise event._value  # type: ignore[misc]
                    return event._value
        finally:
            self._running = False

        if watched is not None and not watched.triggered:
            raise SimulationError(
                "run(until=event) ended with the event never triggering "
                "(deadlock or missing stimulus)"
            )
        if stop_at is not None:
            self._now = stop_at
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        raise StopSimulation(event)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new simulated process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.6g} pending={len(self._queue)}>"
