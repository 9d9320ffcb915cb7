"""Golden governor trajectories: every control window, pinned by digest.

Each case runs one governed scenario and hashes the exact ``repr`` of
every closed window (t0, t1, measured average, applied frequencies,
predicted watts, feasibility) together with the governor's repair log.
The digests were computed before the governor's planners were folded
into the one ``ElasticPolicy.plan`` path, so any change to a single
control decision, float bit or repair action fails here.

Scenarios:

* the imbalanced closed loop (the bit-identity acceptance workload)
  under the uniform and the slack-redistribution allocators;
* the chaos drill, hardened and fair-weather;
* the below-DVFS-floor elastic serving run, which gates (and drains)
  nodes;
* a scripted elastic run that gates a node under load and wakes it once
  the load is gone.  The serving run never wakes: with the DVFS step
  spending the whole budget, a wake fits only when the ceiling is
  pinned low and the hysteresis margin is the full target.
"""

import hashlib

import pytest

from repro.analysis.runner import run_measured
from repro.faults import FaultInjector
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import (
    CapGovernor,
    CapGovernorConfig,
    ElasticPolicy,
    PowerBudget,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.serving.arrivals import DiurnalArrivals
from repro.serving.elastic import ElasticServingPolicy
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec

from tests.faults.test_chaos_acceptance import (  # noqa: F401 - fixture
    drill_setup,
    drill_task,
)
from tests.powercap.test_bit_identity import (  # noqa: F401 - fixture
    budget_watts,
    closed_loop,
)

GOLDEN = {
    "imbalanced/uniform": (
        "88f3b5aeef3fa3d0ea223bd009a5e1fc"
        "646ae3d5a282a8b5c00eac6dfcf4b696"
    ),
    "imbalanced/redist": (
        "cc00cb60cf90dd9ee96a685bc98a5775"
        "3c59dbb950a37c9e79e48f635db83182"
    ),
    "drill/hardened": (
        "6c2cc71c43d637ec0297f71c09859325"
        "541b43614d57d83e50ab65c3b42e2920"
    ),
    "drill/fairweather": (
        "7646ad274f21b601457d8bcd2ca22dfb"
        "d980bb4a7150c3a7aa2ee00691af1220"
    ),
    "elastic/below-floor": (
        "5078b0429ae6f4243b3a67cc1def650d"
        "d4faeb721dd2bd3bdb5a412219a48bdc"
    ),
    "elastic/gate-and-wake": (
        "7729919c595090fa8321a8b00eeaa927"
        "f5598eff5a2f7eb4c826bf1aaa2fac7b"
    ),
}


def trajectory_digest(governor) -> str:
    """SHA-256 of the exact window records plus the repair log."""
    records = [
        (
            w.t0,
            w.t1,
            w.cluster_avg_watts,
            w.frequencies,
            w.predicted_watts,
            w.feasible,
        )
        for w in governor.windows
    ]
    text = repr((records, governor.repair_log))
    return hashlib.sha256(text.encode()).hexdigest()


def drill_governor(task):
    """Run one chaos task exactly as ``ChaosTask.execute`` does."""
    strategy = task.build_strategy()

    def factory():
        cluster = Cluster.from_spec(
            ClusterSpec.homogeneous(task.workload.n_ranks),
            calibration=task.calibration,
        )
        FaultInjector(cluster, task.plan).install()
        return cluster

    run_measured(task.workload, strategy, cluster_factory=factory)
    return strategy.governor


def below_floor_elastic_run():
    """``bench_extension_elastic``'s deep cell: 26 W on a 4-node cluster
    whose DVFS floor is about 38 W, so only gating meets it."""
    workload = ServingWorkload(
        tiers=(
            TierSpec("web", nodes=2, service_cycles=2.0e6),
            TierSpec("app", nodes=2, service_cycles=4.0e6),
        ),
        arrivals=DiurnalArrivals(
            base_rate=30.0, swing=0.6, period_s=3.0, seed=7
        ),
        horizon_s=6.0,
        name="bench-elastic",
    )
    policy = ElasticServingPolicy(budget_watts=26.0)
    run_serving(workload, policy)
    return policy.governor


def gate_and_wake_run():
    """Four nodes busy for 1 s under 48 W with the ceiling pinned at the
    floor: all-floors draw (about 47.7 W) exceeds the derated target, so
    one node is gated; once the load ends, the survivors' predicted draw
    plus the wake cost fits the target again and the node wakes."""
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(4))
    governor = CapGovernor(
        cluster,
        PowerBudget(cluster_watts=48.0, node_ceiling_hz=600e6),
        policy=ElasticPolicy(knobs=("dvfs", "gate"), wake_fraction=1.0),
        config=CapGovernorConfig(interval=0.25),
        wake_latency_s=0.25,
    )

    def work(node):
        for _ in range(20):
            yield from node.cpu.run_cycles(0.05 * node.cpu.frequency)

    governor.start(cluster.engine)
    for node in cluster.nodes:
        cluster.engine.process(work(node))
    cluster.engine.run(until=3.0)
    governor.stop()
    return governor


@pytest.mark.parametrize(
    "name, policy_cls",
    [
        ("imbalanced/uniform", UniformCapPolicy),
        ("imbalanced/redist", SlackRedistributionPolicy),
    ],
)
def test_imbalanced_closed_loop(name, policy_cls, budget_watts):
    _run, governor = closed_loop(policy_cls(), budget_watts=budget_watts)
    assert trajectory_digest(governor) == GOLDEN[name]


@pytest.mark.parametrize(
    "name, hardened",
    [("drill/hardened", True), ("drill/fairweather", False)],
)
def test_chaos_drill(name, hardened, drill_setup):
    governor = drill_governor(drill_task(drill_setup, hardened=hardened))
    assert governor.repair_log or not hardened
    assert trajectory_digest(governor) == GOLDEN[name]


def gate_verbs(governor):
    return [verb for _t, _nid, verb in governor._gate_actuator.log]


def test_elastic_below_the_dvfs_floor():
    governor = below_floor_elastic_run()
    assert "gate" in gate_verbs(governor)
    assert trajectory_digest(governor) == GOLDEN["elastic/below-floor"]


def test_elastic_gates_and_wakes():
    governor = gate_and_wake_run()
    assert gate_verbs(governor) == ["drain", "gate", "wake", "booted"]
    assert trajectory_digest(governor) == GOLDEN["elastic/gate-and-wake"]
