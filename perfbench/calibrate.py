"""Host-speed calibration: the yardstick every reported time is scaled by.

The benchmark was built on a shared two-core virtual machine whose
speed drifts: other tenants slow this process by up to 2x, for seconds
to minutes at a time, while it stays on the CPU (its CPU time equals
its wall time, so CPU time does not help).  A run cannot wait such a
phase out.  Instead, :func:`kernel` - a fixed, pure-Python
discrete-event loop, the same kind of work the simulator does - runs
before the first timed iteration and after every one.  Each
iteration's host time is divided by the mean of the two kernel times
around it and multiplied by :data:`REFERENCE_S`, the kernel's time on
an unloaded reference host.  The result is the iteration's host time
at the reference speed: a slow phase stretches the kernel and the
iteration alike and cancels out.

The kernel is part of the yardstick: changing it, or
:data:`REFERENCE_S`, rescales every time the benchmark reports, so
runs made before and after such a change are not comparable.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Generator, List

__all__ = ["REFERENCE_S", "Speedometer", "kernel"]

#: Host seconds one :func:`kernel` call takes on the reference host (a
#: shared two-core VM, CPython 3, in its fast phases).
REFERENCE_S = 0.020

#: Simulated processes in the kernel, and the events each one waits on.
_PROCESSES = 256
_STEPS = 100


class _Node:
    __slots__ = ("busy", "energy", "freq")

    def __init__(self, freq: float):
        self.busy = 0.0
        self.energy = 0.0
        self.freq = freq


def _process(k: int, node: _Node) -> Generator[float, float, None]:
    work = 1.0e6 * (1 + k % 7)
    for step in range(_STEPS):
        now = yield work / node.freq
        node.busy += work / node.freq
        node.energy += (0.5 + 1.0e-9 * node.freq) * work / node.freq
        if step % 5 == 4:
            node.freq = 6.0e8 if node.freq > 1.0e9 else 1.4e9
        work = 1.0e6 * (1 + (k + step + int(now * 1e3)) % 7)


def kernel() -> float:
    """A small event-driven simulation: a heap of pending wake-ups, one
    generator per process, per-node accounting.  Returns its total
    energy (a fixed number; the work, not the value, is the point)."""
    nodes = [_Node(1.4e9) for _ in range(8)]
    procs = [_process(k, nodes[k % 8]) for k in range(_PROCESSES)]
    queue = []
    for k, proc in enumerate(procs):
        heapq.heappush(queue, (next(proc), k))
    while queue:
        now, k = heapq.heappop(queue)
        try:
            delay = procs[k].send(now)
        except StopIteration:
            continue
        heapq.heappush(queue, (now + delay, k))
    return sum(n.energy for n in nodes)


class Speedometer:
    """Kernel timings taken between timed iterations.

    Call :meth:`tick` before the first iteration and after each one;
    :meth:`scale` then gives the factor that turns the host time of
    the iteration between the last two ticks into reference seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = kernel):
        self.clock = clock
        self.work = work
        self.samples: List[float] = []  #: host seconds per kernel call

    def tick(self) -> float:
        t0 = self.clock()
        self.work()
        elapsed = self.clock() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean of the last two kernel times."""
        if len(self.samples) < 2:
            raise RuntimeError("tick before and after the timed work")
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2.0)

