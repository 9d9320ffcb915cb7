"""Summary statistics the benchmark reports, and its outside-in task timer.

* :func:`quartiles` / :func:`spread` — the run-to-run statistics the
  comparison report uses (``statistics.quantiles(values, n=4)``).
* :func:`tail_percentile` — a latency percentile that is reported only
  when at least :data:`MIN_TAIL` samples lie beyond it, so a p90 never
  rests on a handful of outliers.
* :class:`GapTimer` — per-operation host latency measured from outside
  the program, as the gap between consecutive completion marks.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "MIN_TAIL",
    "POOL_TAIL",
    "GapTimer",
    "quartiles",
    "spread",
    "tail_percentile",
]

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10
#: Samples a run gathers beyond its p90 before it stops measuring, so
#: that the p90 does not hinge on the few slowest samples.
POOL_TAIL = 2 * MIN_TAIL


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(q2)


def tail_percentile(
    samples: Sequence[float], pct: float, min_tail: int = MIN_TAIL
) -> Optional[float]:
    """Nearest-rank ``pct`` percentile of ``samples``, or ``None`` when
    fewer than ``min_tail`` samples lie strictly above it."""
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    value = ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]
    beyond = n - bisect.bisect_right(ordered, value)
    return value if beyond >= min_tail else None


class GapTimer:
    """Host latency per operation, timed from outside the program.

    Call :meth:`start` just before handing work to the program, then
    :meth:`mark` (or the instance itself, as a sweep ``on_result``
    callback) at each completion; each operation's sample is the gap
    since the previous mark, the first measured from :meth:`start`.

    A sweep streams its cache hits as one burst after it has looked
    every task up, so no single hit's latency is visible from outside:
    a run of consecutive ``"cache"`` marks shares the burst's elapsed
    time evenly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.samples: List[float] = []  #: seconds, one per operation
        self.events: List[object] = []  #: sweep events, in arrival order
        self._t0: Optional[float] = None
        self._marks: List[Tuple[float, str]] = []

    def start(self) -> None:
        self.stop()
        self._t0 = self.clock()

    def mark(self, source: str = "run") -> None:
        self._marks.append((self.clock(), source))

    def __call__(self, event) -> None:
        self.mark(event.source)
        self.events.append(event)

    def take(self) -> Tuple[List[float], List[object]]:
        """Stop, and hand over (and forget) the samples and events."""
        self.stop()
        samples, events = self.samples, self.events
        self.samples, self.events = [], []
        return samples, events

    def stop(self) -> None:
        """Fold the marks since :meth:`start` into :attr:`samples`."""
        if self._t0 is None:
            return
        prev = self._t0
        burst = 0
        for i, (t, source) in enumerate(self._marks):
            if source == "cache":
                burst += 1
                last_of_burst = (
                    i + 1 == len(self._marks) or self._marks[i + 1][1] != "cache"
                )
                if last_of_burst:
                    self.samples.extend([(t - prev) / burst] * burst)
                    prev, burst = t, 0
                continue
            self.samples.append(t - prev)
            prev = t
        self._t0 = None
        self._marks = []
