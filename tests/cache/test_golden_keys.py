"""Golden cache keys: the digest of one task per task kind, pinned.

A cache is only as warm as its keys are stable: any change to these
digests turns every existing warm cache cold.  Each key is computed with
an explicit salt, so a version bump (which is *meant* to re-salt every
key) does not trip this test — only a change to the payload does.
"""

import pytest

from repro.analysis.parallel import SweepTask
from repro.cache.keys import task_key
from repro.experiments.serving import build_workload
from repro.faults.spec import DvfsStuck, FaultPlan, NodeCrash
from repro.faults.sweep import ChaosTask, chaos_task_key
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.serving.sweep import ServingTask, serving_task_key
from repro.util.units import MHZ
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix

SALT = "golden/1"

FT = NasFT("S", n_ranks=4, iterations=2)
MIXED = ClusterSpec(
    groups=(
        NodeSpec(count=2),
        NodeSpec(count=2, tech=tech_node(22, "itrs"), core=CORE_IO),
    )
)
CHAOS_PLAN = FaultPlan(
    faults=(NodeCrash(1, 0.5, downtime=1.0), DvfsStuck(2, 0.75, duration=0.5)),
    seed=3,
)

CASES = {
    "sweep-legacy": (
        SweepTask(FT, "stat", frequency=800 * MHZ),
        task_key,
        "872b76bcbe1cffe05c5365ae0f33466a8bec2ac2b44984fc29c09788e99d0d42",
    ),
    "sweep-spec": (
        SweepTask(
            FT, "dyn", frequency=1000 * MHZ, regions=("fft",), spec=MIXED
        ),
        task_key,
        "a1d0fda71663a4c3e8c9cf5a5cc740f335c2b5b84116d4dc668d49594d08c7ff",
    ),
    "chaos": (
        ChaosTask(
            SyntheticMix(1.0, 0.0, 0.0, iteration_seconds=0.5,
                         iterations=4, n_ranks=4),
            CHAOS_PLAN,
            budget_watts=60.0,
            policy="uniform",
            hardened=False,
        ),
        chaos_task_key,
        "9d03cf1a27888fd2e43ac603af0cf4ddd046c01aef92e8850d9ce0c887b2bfc3",
    ),
    "serving": (
        ServingTask(
            build_workload(horizon_s=2.0, seed=1),
            "elastic",
            budget_watts=40.0,
            knobs=("dvfs", "cores"),
        ),
        serving_task_key,
        "1c7f4ace7bea3231f043e14fe84591bd86c4a5e669810582208cf14f3f440e75",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_key_digest_is_pinned(name):
    task, key_fn, digest = CASES[name]
    assert key_fn(task, salt=SALT) == digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_cache_key_method_is_the_key_function(name):
    task, key_fn, _ = CASES[name]
    assert task.cache_key() == key_fn(task)
