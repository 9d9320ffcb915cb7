"""Cached, resumable chaos sweeps: fault plans × cap strategies.

A :class:`ChaosTask` is the picklable description of one faulted capped
run — workload, :class:`~repro.faults.spec.FaultPlan`, budget, policy,
hardened or fair-weather governor.  Because every field (including the
plan, a tree of frozen dataclasses) lowers through
:func:`repro.cache.keys.canonical_encode`, a task has a content hash
(:func:`chaos_task_key`) and chaos sweeps get the same caching contract
as ordinary sweeps: :func:`~repro.analysis.parallel.run_sweep`
short-circuits stored outcomes and persists each fresh one the moment it
completes, so an interrupted chaos sweep resumes where it stopped.
:func:`run_chaos_sweep` is another name for that same function.

The stored record reuses the run cache unchanged
(:class:`~repro.analysis.parallel.ReportCodec`): the energy/delay point
goes in as the point, the :class:`~repro.metrics.chaos.ChaosReport`
rides in the record's ``meta`` dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.parallel import (
    ReportCodec,
    SweepError,  # noqa: F401 - re-exported for callers catching sweep failures
    run_sweep,
)
from repro.analysis.runner import run_measured
from repro.cache.keys import tagged_key
from repro.hardware.calibration import Calibration
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.metrics.chaos import ChaosReport, build_chaos_report
from repro.metrics.records import EnergyDelayPoint
from repro.powercap import (
    CapGovernorConfig,
    PowerBudget,
    PowerCapStrategy,
    ResilienceConfig,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.util.validation import check_nonnegative, check_positive
from repro.workloads.base import Workload

from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan

__all__ = [
    "CHAOS_POLICIES",
    "ChaosOutcome",
    "ChaosTask",
    "chaos_task_key",
    "run_chaos_sweep",
]

#: Allocation policies a :class:`ChaosTask` can name.
CHAOS_POLICIES = ("uniform", "redist")

#: ``meta`` tag marking a cache record as a chaos outcome (a plain sweep
#: point stored under a colliding key must never decode as one).
_META_KIND = "chaos-report"

#: :func:`~repro.analysis.parallel.run_sweep` runs chaos tasks too; this
#: name is kept for callers that import it from here.
run_chaos_sweep = run_sweep


@dataclass(frozen=True)
class ChaosOutcome:
    """What one chaos run produces: its point plus its chaos score."""

    point: EnergyDelayPoint
    report: ChaosReport


@dataclass(frozen=True)
class ChaosTask(ReportCodec):
    """One faulted capped run (picklable, content-hashable).

    ``hardened=True`` runs the self-healing governor
    (:class:`~repro.powercap.resilience.ResilienceConfig` defaults);
    ``False`` runs the fair-weather baseline against the same faults.
    """

    workload: Workload
    plan: FaultPlan
    budget_watts: float
    policy: str = "redist"  #: one of :data:`CHAOS_POLICIES`
    hardened: bool = True
    interval: float = 0.25  #: governor control interval (seconds)
    #: grace period after each fault transition within which budget
    #: violations are excused (see :mod:`repro.metrics.chaos`)
    allowed_recovery_s: float = 1.0
    calibration: Optional[Calibration] = None

    _RECORD_KIND = _META_KIND
    _OUTCOME = ChaosOutcome
    _REPORT = ChaosReport

    def __post_init__(self) -> None:
        if self.policy not in CHAOS_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"valid policies: {', '.join(CHAOS_POLICIES)}"
            )
        check_positive("budget_watts", self.budget_watts)
        check_positive("interval", self.interval)
        check_nonnegative("allowed_recovery_s", self.allowed_recovery_s)

    def build_strategy(self) -> PowerCapStrategy:
        policy = (
            UniformCapPolicy()
            if self.policy == "uniform"
            else SlackRedistributionPolicy()
        )
        return PowerCapStrategy(
            PowerBudget(cluster_watts=self.budget_watts),
            policy=policy,
            config=CapGovernorConfig(interval=self.interval),
            resilience=ResilienceConfig() if self.hardened else None,
        )

    @property
    def label(self) -> str:
        return f"{self.policy}/{'hardened' if self.hardened else 'fairweather'}"

    def cache_key(self) -> str:
        return chaos_task_key(self)

    def execute(self) -> ChaosOutcome:
        """One faulted run on a fresh cluster, scored."""
        strategy = self.build_strategy()

        def factory() -> Cluster:
            cluster = Cluster.from_spec(
                ClusterSpec.homogeneous(self.workload.n_ranks),
                calibration=self.calibration,
            )
            FaultInjector(cluster, self.plan).install()
            return cluster

        run = run_measured(self.workload, strategy, cluster_factory=factory)
        governor = strategy.governor
        assert governor is not None
        report = build_chaos_report(
            label=strategy.name,
            windows=governor.windows,
            transitions=self.plan.transition_times(),
            budget=strategy.budget,
            allowed_recovery_s=self.allowed_recovery_s,
            energy_j=run.point.energy,
            delay_s=run.point.delay,
            repair_events=len(governor.repair_log),
            invariant_violations=governor.monitor.count,
        )
        return ChaosOutcome(point=run.point, report=report)


def chaos_task_key(task: ChaosTask, salt: Optional[str] = None) -> str:
    """SHA-256 content hash of one chaos task (hex digest).

    Shares :func:`~repro.cache.keys.task_key`'s conventions: the version
    salt is folded in, and a ``calibration`` of ``None`` is normalised to
    the default calibration the runner substitutes at execution time.
    The fault plan is part of the hash, so two sweeps differing only in
    fault timelines never collide.
    """
    return tagged_key(_META_KIND, task, salt)


