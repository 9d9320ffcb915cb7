"""The benchmark's four reference workloads, driven through ``repro``'s API.

Every workload is deterministic.  ``--seed n`` selects input set
``n % INPUT_SETS``; that index is the Poisson arrival and demand seed of
the serving stream, the MMPP seed of the serving experiment, the first
of the three fault-plan seeds of the chaos grid, and the seed of the
FT grid's task order.  The program only receives the inputs built here,
and every output is checked against ``reference.json`` (written by
``pin.py``), which holds the outputs of every input set.

All sweeps run on the serial in-process backend (``jobs=None``): the
process-pool and MPI backends are out of scope on a two-core host.
"""

from __future__ import annotations

import random
import shutil
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.parallel import SweepError, SweepTask, run_sweep
from repro.analysis.runner import run_measured
from repro.cache.store import RunCache
from repro.dvs.strategy import StaticStrategy
from repro.experiments.chaos import build_tasks, drill_plan
from repro.experiments.common import LADDER_FREQUENCIES
from repro.experiments.serving import build_workload as serving_experiment_workload
from repro.faults.spec import FaultPlan, acceleration_for
from repro.faults.sweep import ChaosTask, run_chaos_sweep
from repro.hardware.reliability import ReliabilityModel
from repro.metrics.serving import build_serving_report
from repro.serving.arrivals import PoissonArrivals
from repro.serving.policy import TierDvsPolicy
from repro.serving.runner import run_serving
from repro.serving.spec import RequestSpec, ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask, run_serving_sweep
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix

from perfbench.checks import (
    chaos_ok,
    point_ok,
    serving_outcome_ok,
    serving_run_ok,
)
from perfbench.stats import GapTimer

__all__ = [
    "INPUT_SETS",
    "WORKLOADS",
    "IterResult",
    "PreparedServing",
    "chaos_tasks",
    "fill_warm_cache",
    "ft_label",
    "ft_tasks",
    "input_set",
    "serving_experiment_tasks",
    "serving_stream",
]

#: Distinct input sets; ``reference.json`` pins the outputs of each.
INPUT_SETS = 32


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


# -- inputs ------------------------------------------------------------------

#: The three-tier 1-2-1 service at 110 req/s for 91 s (about 10k requests).
SERVING_TIERS = (
    TierSpec("frontend", nodes=1, service_cycles=1.5e6),
    TierSpec("app", nodes=2, service_cycles=6.0e6),
    TierSpec("storage", nodes=1, service_cycles=2.0e6),
)
SERVING_RATE = 110.0
SERVING_HORIZON_S = 91.0
SERVING_TIMEOUT_S = 5.0


@dataclass(frozen=True, eq=False)
class PreparedServing(ServingWorkload):
    """A serving workload that replays a request stream built beforehand.

    ``run_serving`` pulls the stream one arrival at a time, and each pull
    marks :attr:`admissions`: the gap between two pulls is the host time
    spent simulating one inter-arrival interval.
    """

    stream: Tuple[RequestSpec, ...] = ()
    admissions: GapTimer = field(default_factory=GapTimer, repr=False)

    def requests(self):
        mark = self.admissions.mark
        for spec in self.stream:
            mark()
            yield spec


def serving_stream(index: int) -> PreparedServing:
    spec = dict(
        tiers=SERVING_TIERS,
        arrivals=PoissonArrivals(SERVING_RATE, seed=index),
        horizon_s=SERVING_HORIZON_S,
        timeout_s=SERVING_TIMEOUT_S,
        name="serving-poisson-10k",
        seed=index,
    )
    return PreparedServing(**spec, stream=ServingWorkload(**spec).requests())


def ft_label(task: SweepTask) -> str:
    if task.frequency is None:
        return task.strategy_kind
    return f"{task.strategy_kind}@{task.frequency / 1e6:.0f}MHz"


def ft_tasks(index: int) -> List[SweepTask]:
    """The fig3/fig4 grid on FT class B, 8 ranks, 4 iterations (11 tasks).

    The sweep is order-independent, so the input set only permutes the
    task order.
    """
    workload = NasFT("B", n_ranks=8, iterations=4)
    tasks = [SweepTask(workload, "cpuspeed")]
    tasks += [SweepTask(workload, "stat", frequency=f) for f in LADDER_FREQUENCIES]
    tasks += [
        SweepTask(workload, "dyn", frequency=f, regions=("fft",))
        for f in LADDER_FREQUENCIES
    ]
    random.Random(index).shuffle(tasks)
    return tasks


def chaos_tasks(index: int) -> List[ChaosTask]:
    """The ``chaos`` experiment's 24-task grid with fault-plan seeds
    ``3·index … 3·index + 2`` (input set 0 is the experiment itself)."""
    n_ranks = 8
    workload = SyntheticMix(
        1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=n_ranks
    )
    base = run_measured(workload, StaticStrategy(1.4e9))
    budget_watts = 0.85 * base.point.energy / base.point.delay
    interval = max(0.02, min(0.25, base.point.delay / 12.0))
    horizon = base.point.delay
    reliability = ReliabilityModel(annual_failure_rate=0.025)
    plans = [FaultPlan(), drill_plan(interval)]
    for rate in (2.0, 4.0):
        acceleration = acceleration_for(reliability, n_ranks, horizon, rate)
        for seed in range(3 * index, 3 * index + 3):
            plans.append(
                FaultPlan.from_reliability(
                    reliability,
                    n_ranks,
                    horizon,
                    seed=seed,
                    acceleration=acceleration,
                    downtime_s=4 * interval,
                    dropout_weight=1.0,
                    dropout_s=10 * interval,
                    stuck_weight=1.0,
                    stuck_s=10 * interval,
                )
            )
    return build_tasks(workload, budget_watts, plans, interval, 4 * interval)


def serving_experiment_tasks(
    workload: ServingWorkload, cache: Union[bool, RunCache] = False
) -> List[ServingTask]:
    """The ``serving`` experiment's four tasks.

    The power-capped task is budgeted off the static-max outcome, as the
    experiment does, so the static task runs here (into ``cache``).
    """
    static = ServingTask(workload, "static")
    [static_out] = run_serving_sweep([static], use_cache=cache)
    return [
        static,
        ServingTask(workload, "tierdvs"),
        ServingTask(workload, "cpuspeed"),
        ServingTask(
            workload,
            "powercap",
            budget_watts=0.8 * static_out.report.average_power_w,
        ),
    ]


def fill_warm_cache(
    cache: RunCache,
    ft: List[SweepTask],
    chaos: List[ChaosTask],
    serving_workload: ServingWorkload,
):
    """Run the three sweep families cold into ``cache``.

    Returns ``(sweeps, cold)``: the ``(runner, tasks)`` pairs to replay
    and their cold outcomes.
    """
    serving = serving_experiment_tasks(serving_workload, cache)
    sweeps = [(run_sweep, ft), (run_chaos_sweep, chaos), (run_serving_sweep, serving)]
    cold = [runner(tasks, use_cache=cache) for runner, tasks in sweeps]
    return sweeps, cold


# -- measurement -------------------------------------------------------------


@dataclass
class IterResult:
    """One timed iteration of a workload."""

    wall_s: float
    ops: int
    failed: int
    gaps: Sequence[float]  #: per-operation host latency samples (seconds)
    counters: Dict[str, float] = field(default_factory=dict)
    timed: bool = True  #: False when the iteration raised
    #: Reference seconds per host second around this iteration, set by
    #: the runner (see :mod:`perfbench.calibrate`).
    scale: float = 1.0


@dataclass
class _SweepLog:
    results: List[Optional[object]]
    sources: List[str]  #: per task: "run", "cache" or "failed"
    gaps: List[float]
    attempts: int
    failures: int


def _sweep(runner: Callable, tasks: Sequence, **kwargs) -> _SweepLog:
    """One sweep with a gap timer as ``on_result``; failures collected."""
    timer = GapTimer()
    timer.start()
    failures: Sequence = ()
    try:
        results = runner(tasks, on_result=timer, **kwargs)
    except SweepError as err:
        results, failures = err.completed, err.attempts
    gaps, events = timer.take()
    sources = ["failed"] * len(tasks)
    attempts = sum(len(a) for a in failures)
    for event in events:
        sources[event.index] = event.source
        if event.source == "run":
            attempts += 1 + len(event.attempts)
    return _SweepLog(list(results), sources, gaps, attempts, len(failures))


def _gaps(logs: Sequence[_SweepLog]) -> array:
    return array("d", (g for log in logs for g in log.gaps))


def _exec_counters(logs: Sequence[_SweepLog]) -> Dict[str, float]:
    return {
        "exec.tasks": sum(len(log.results) for log in logs),
        "exec.attempts": sum(log.attempts for log in logs),
        "exec.failures": sum(log.failures for log in logs),
    }


@dataclass
class _Span:
    seconds: float = 0.0


class Workload:
    """A reference workload: inputs built in :meth:`setup`, then timed
    iterations whose outputs are checked against the pinned reference.

    Only the program's calls run inside :meth:`timed`; while
    :attr:`profile` is set (a traced run), only they are profiled.
    """

    name = ""
    profile = None  #: a :class:`perfbench.layers.LayerProfile` while tracing

    def __init__(self, seed: int, workdir: Path, reference: Mapping):
        self.index = input_set(seed)
        self.workdir = workdir
        self.reference = reference
        self.ops_per_iteration = 0

    def setup(self) -> Dict[str, float]:
        """Build the inputs; returns ``inputs_s`` and ``cache_fill_s``."""
        t0 = time.perf_counter()
        self.build_inputs()
        t1 = time.perf_counter()
        self.fill_cache()
        return {"inputs_s": t1 - t0, "cache_fill_s": time.perf_counter() - t1}

    def build_inputs(self) -> None:
        raise NotImplementedError

    def fill_cache(self) -> None:
        pass

    def iterate(self) -> IterResult:
        raise NotImplementedError

    @contextmanager
    def timed(self) -> Iterator[_Span]:
        span = _Span()
        with self.profile.profiling() if self.profile else nullcontext():
            t0 = time.perf_counter()
            yield span
            span.seconds = time.perf_counter() - t0


class ServingPoisson10k(Workload):
    """Open-loop three-tier serving under TierDvsPolicy, then its report.

    An operation is one resolved request; its latency sample is the gap
    between two admissions."""

    name = "serving_poisson_10k"

    def build_inputs(self) -> None:
        self.workload = serving_stream(self.index)
        self.ref = self.reference[self.name][self.index]
        self.ops_per_iteration = len(self.workload.stream)

    def iterate(self) -> IterResult:
        admissions = self.workload.admissions
        with self.timed() as span:
            admissions.start()
            run = run_serving(self.workload, TierDvsPolicy())
            report = build_serving_report(run)
        gaps, _ = admissions.take()
        wall = span.seconds
        ops = len(run.records)
        failed = 0 if serving_run_ok(run, report, self.ref) else ops
        counters = {
            "serving.requests": report.n_requests,
            "serving.dropped": report.dropped,
            "serving.timed_out": report.timed_out,
        }
        return IterResult(wall, ops, failed, array("d", gaps), counters)


class FtCrescendo(Workload):
    """The fig3/fig4 FT grid through ``run_sweep``, uncached."""

    name = "ft_crescendo"

    def build_inputs(self) -> None:
        self.tasks = ft_tasks(self.index)
        self.ref = self.reference[self.name]
        self.ops_per_iteration = len(self.tasks)

    def iterate(self) -> IterResult:
        with self.timed() as span:
            log = _sweep(run_sweep, self.tasks)
        wall = span.seconds
        failed = sum(
            p is None or not point_ok(p, self.ref[ft_label(t)])
            for t, p in zip(self.tasks, log.results)
        )
        return IterResult(
            wall, len(self.tasks), failed, _gaps([log]), _exec_counters([log])
        )


class ChaosCold(Workload):
    """The chaos grid through ``run_chaos_sweep`` into a fresh, empty cache."""

    name = "chaos_cold"

    def build_inputs(self) -> None:
        self.tasks = chaos_tasks(self.index)
        self.ref = self.reference[self.name][self.index]
        self.ops_per_iteration = len(self.tasks)
        self.n = 0

    def iterate(self) -> IterResult:
        self.n += 1
        cache_dir = self.workdir / f"chaos-{self.n}"
        cache = RunCache(cache_dir)
        with self.timed() as span:
            log = _sweep(run_chaos_sweep, self.tasks, use_cache=cache)
        wall = span.seconds
        stats = cache.stats
        shutil.rmtree(cache_dir, ignore_errors=True)
        ran = [o for o, s in zip(log.results, log.sources) if s == "run"]
        failed = sum(
            o is None or not chaos_ok(o, ref) for o, ref in zip(log.results, self.ref)
        )
        counters = {
            "powercap.windows": sum(o.report.total_windows for o in ran),
            "powercap.violations": sum(o.report.violation_windows for o in ran),
            "powercap.repairs": sum(o.report.repair_events for o in ran),
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "cache.bytes_written": stats.bytes,
            **_exec_counters([log]),
        }
        return IterResult(wall, len(self.tasks), failed, _gaps([log]), counters)


class WarmReplay(Workload):
    """The three sweep families replayed from a cache filled in set-up,
    through a fresh ``RunCache`` instance each iteration."""

    name = "warm_replay"

    def build_inputs(self) -> None:
        self.ft = ft_tasks(self.index)
        self.chaos = chaos_tasks(self.index)
        self.serving_workload = serving_experiment_workload(16.0, seed=self.index)
        self.cache_dir = self.workdir / "warm"
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def fill_cache(self) -> None:
        self.sweeps, self.cold = fill_warm_cache(
            RunCache(self.cache_dir), self.ft, self.chaos, self.serving_workload
        )
        ft_ref = self.reference["ft_crescendo"]
        chaos_ref = self.reference["chaos_cold"][self.index]
        serving_ref = self.reference["serving_experiment"][self.index]
        cold_ft, cold_chaos, cold_serving = self.cold
        self.cold_bad = [
            [not point_ok(p, ft_ref[ft_label(t)]) for t, p in zip(self.ft, cold_ft)],
            [not chaos_ok(o, r) for o, r in zip(cold_chaos, chaos_ref)],
            [not serving_outcome_ok(o, r) for o, r in zip(cold_serving, serving_ref)],
        ]
        self.bytes_before = RunCache(self.cache_dir).stats.bytes
        self.ops_per_iteration = sum(len(tasks) for _, tasks in self.sweeps)

    def iterate(self) -> IterResult:
        cache = RunCache(self.cache_dir)
        with self.timed() as span:
            logs = [
                _sweep(runner, tasks, use_cache=cache)
                for runner, tasks in self.sweeps
            ]
        wall = span.seconds
        stats = cache.stats
        failed = 0
        ops = 0
        for log, cold, cold_bad in zip(logs, self.cold, self.cold_bad):
            ops += len(cold)
            failed += sum(
                source != "cache" or out != ref or bad
                for source, out, ref, bad in zip(log.sources, log.results, cold, cold_bad)
            )
        counters = {
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "cache.bytes_written": stats.bytes - self.bytes_before,
            **_exec_counters(logs),
        }
        return IterResult(wall, ops, failed, _gaps(logs), counters)


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ServingPoisson10k, FtCrescendo, ChaosCold, WarmReplay)
}
