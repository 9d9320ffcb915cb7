"""The disabled tracing path is (near) free, the rings bounded.

The overhead bound compares a ≥100 ms workload in interleaved
baseline/disabled pairs and takes the median of the per-pair ratios:
pairing cancels slow drift (thermal, background load), alternating which
arm runs first cancels order effects, and the median ignores the odd
pair a scheduler hiccup lands in.  Each run is timed in process CPU
time, so other processes competing for the cores do not count against
either arm, and starts from a fresh garbage collection (off the clock),
so a cyclic-GC pass over the previous run's garbage cannot land in one
arm only.  Contention on a shared host still moves CPU time (cache and
memory-bandwidth sharing) over fractions of a second, so each arm of a
pair is the total of three runs interleaved with the other arm's: a
burst of contention lands on both arms' totals alike.
"""

import gc
import statistics
import time

from repro.analysis.runner import run_measured
from repro.dvs.strategy import StaticStrategy
from repro.faults.sweep import run_chaos_sweep
from repro.obs.tracer import Tracer, tracing
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix

from tests.faults.test_chaos_acceptance import (  # noqa: F401 - fixture
    drill_setup,
    drill_task,
)


def _fig3_sized_workload():
    # Figure 3's shape (NAS FT crescendo member), long enough (~0.1 s)
    # that timer and scheduler jitter stay well inside the 5% bound.
    return NasFT("S", n_ranks=4, iterations=30)


def _timed(workload):
    gc.collect()
    t0 = time.process_time()
    run_measured(workload, StaticStrategy(1.4e9))
    return time.process_time() - t0


def test_disabled_tracer_overhead_under_5_percent():
    workload = _fig3_sized_workload()
    _timed(workload)  # warm imports and caches off the clock

    disabled_tracer = Tracer(enabled=False)

    def timed_disabled():
        with tracing(disabled_tracer):
            return _timed(workload)

    arms = (lambda: _timed(workload), timed_disabled)
    ratios = []
    for pair in range(11):
        order = (1, 0) if pair % 2 else (0, 1)
        totals = [0.0, 0.0]
        for _ in range(3):
            for arm in order:
                totals[arm] += arms[arm]()
        baseline, disabled = totals
        ratios.append(disabled / baseline)

    ratio = statistics.median(ratios)
    assert len(disabled_tracer) == 0  # hooks honoured the flag
    assert ratio <= 1.05, (
        f"disabled tracing cost {ratio - 1:+.1%} (median of per-pair "
        f"ratios {sorted(round(r, 3) for r in ratios)})"
    )


def test_ring_buffers_never_exceed_capacity_under_chaos_drill(drill_setup):
    """A tiny-capacity tracer under the full chaos drill: the rings must
    overwrite (drop counts grow) but never grow past capacity."""
    capacity = 8
    tracer = Tracer(capacity=capacity)
    run_chaos_sweep([drill_task(drill_setup, hardened=True)], tracer=tracer)

    assert len(tracer.spans) <= capacity
    assert len(tracer.counters) <= capacity
    assert len(tracer.instants) <= capacity
    assert tracer.dropped > 0, "the drill must overflow an 8-slot ring"
    # The bookkeeping is conservation: kept + dropped = emitted.
    counts = tracer.counts()
    assert counts["spans"] == capacity
    assert counts["dropped_spans"] > 0


def test_traced_run_records_are_bounded_not_the_simulation():
    """Tracing a long loop cannot grow memory: the ring holds the tail."""
    tracer = Tracer(capacity=16)
    workload = SyntheticMix(
        0.5, 0.25, 0.25, iteration_seconds=0.05, iterations=20, n_ranks=2
    )
    with tracing(tracer):
        run_measured(workload, StaticStrategy(1.4e9))
    assert len(tracer.spans) == 16
    assert tracer.dropped_spans > 0
