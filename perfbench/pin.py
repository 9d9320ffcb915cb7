"""Pin the reference outputs the benchmark checks against.

Usage, from the repository root::

    python3 perfbench/pin.py

Runs every workload's program on every input set, once, and writes
``perfbench/reference.json``.  Re-pin only when a change is meant to
alter simulated outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench.run import clean_environment  # noqa: E402


def main() -> int:
    clean_environment()
    from repro.analysis.parallel import run_sweep
    from repro.experiments.serving import build_workload
    from repro.faults.sweep import run_chaos_sweep
    from repro.metrics.serving import build_serving_report
    from repro.serving.policy import TierDvsPolicy
    from repro.serving.runner import run_serving
    from repro.serving.sweep import run_serving_sweep

    from perfbench import checks
    from perfbench.workloads import (
        INPUT_SETS,
        chaos_tasks,
        ft_label,
        ft_tasks,
        serving_experiment_tasks,
        serving_stream,
    )

    ft = ft_tasks(0)
    reference = {
        "input_sets": INPUT_SETS,
        "ft_crescendo": {
            ft_label(t): checks.point_ref(p) for t, p in zip(ft, run_sweep(ft))
        },
        "serving_poisson_10k": [],
        "chaos_cold": [],
        "serving_experiment": [],
    }
    for i in range(INPUT_SETS):
        run = run_serving(serving_stream(i), TierDvsPolicy())
        reference["serving_poisson_10k"].append(
            checks.serving_run_ref(run, build_serving_report(run))
        )
        reference["chaos_cold"].append(
            [checks.chaos_ref(o) for o in run_chaos_sweep(chaos_tasks(i))]
        )
        tasks = serving_experiment_tasks(build_workload(16.0, seed=i))
        reference["serving_experiment"].append(
            [checks.serving_outcome_ref(o) for o in run_serving_sweep(tasks)]
        )
        print(f"input set {i + 1}/{INPUT_SETS}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
