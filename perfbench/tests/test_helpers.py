"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import checks
from perfbench.calibrate import REFERENCE_S, Speedometer, kernel
from perfbench.compare import verdict
from perfbench.layers import HARNESS, OTHER, boundary_totals, layer_of, self_time_by_layer
from perfbench.stats import (
    GapTimer,
    quartiles,
    spread,
    tail_percentile,
)

PKG = os.path.join(os.sep, "x", "src", "repro")


def src(path: str) -> str:
    return os.path.join(PKG, *path.split("/"))


# -- layer mapping ----------------------------------------------------------


def test_layer_of_maps_files_to_their_repro_module():
    assert layer_of(src("sim/columnar.py"), PKG) == "sim"
    assert layer_of(src("hardware/cpu.py"), PKG) == "hardware"
    assert layer_of(src("session.py"), PKG) == "session"
    assert layer_of(src("__init__.py"), PKG) == OTHER
    assert layer_of(src("newlayer/mod.py"), PKG) == OTHER
    assert layer_of("/usr/lib/python3.11/json/encoder.py", PKG) is None
    assert layer_of("~", PKG) is None
    assert layer_of(os.path.join(os.sep, "x", "src", "reprox", "a.py"), PKG) is None


def _stats(entries):
    """pstats-shaped dict from ``{func: (tt, {caller: edge_ct})}``."""
    out = {}
    for func, (tt, callers) in entries.items():
        edges = {c: (1, 1, 0.0, ct) for c, ct in callers.items()}
        out[func] = (1, 1, tt, tt, edges)
    return out


def _by_layer(entries):
    return self_time_by_layer(_stats(entries), lambda f: layer_of(f, PKG))


SIM = (src("sim/engine.py"), 1, "step")
HW = (src("hardware/cpu.py"), 1, "run_cycles")
CACHE = (src("cache/keys.py"), 1, "task_key")
SERVING = (src("serving/runner.py"), 1, "run_serving")
ROOTFN = ("/bench/perfbench/workloads.py", 1, "iterate")
LEN = ("~", 0, "<built-in method builtins.len>")
DUMPS = ("/usr/lib/json/__init__.py", 1, "dumps")
ENCODE = ("/usr/lib/json/encoder.py", 1, "encode")
DEEPCOPY = ("/usr/lib/copy.py", 1, "deepcopy")


def test_repro_self_time_stays_in_its_layer():
    got = _by_layer({SIM: (1.0, {ROOTFN: 3.0}), HW: (2.0, {SIM: 2.0})})
    assert got == pytest.approx({"sim": 1.0, "hardware": 2.0})


def test_library_time_is_charged_to_the_calling_layers_by_inclusive_time():
    got = _by_layer(
        {
            SIM: (1.0, {}),
            HW: (1.0, {}),
            LEN: (0.5, {SIM: 0.3, HW: 0.2}),
        }
    )
    assert got == pytest.approx({"sim": 1.3, "hardware": 1.2})


def test_library_chains_are_charged_to_the_first_repro_caller():
    got = _by_layer(
        {
            CACHE: (0.1, {}),
            DUMPS: (0.2, {CACHE: 0.6}),
            ENCODE: (0.4, {DUMPS: 0.4}),
        }
    )
    assert got == pytest.approx({"cache": 0.7})


def test_recursive_library_frames_still_reach_their_caller():
    got = _by_layer(
        {
            SERVING: (0.0, {}),
            DEEPCOPY: (0.3, {SERVING: 0.3, DEEPCOPY: 0.2}),
        }
    )
    assert got == pytest.approx({"serving": 0.3})


def test_frames_no_repro_code_called_belong_to_the_harness():
    got = _by_layer({ROOTFN: (0.05, {}), LEN: (0.01, {ROOTFN: 0.01})})
    assert got == pytest.approx({HARNESS: 0.06})


def test_boundary_totals_sum_calls_and_inclusive_time():
    stats = {
        (src("hardware/timeline.py"), 47, "set_power"): (5, 7, 0.1, 0.4, {}),
        (src("hardware/procstat.py"), 67, "account"): (3, 3, 0.1, 0.2, {}),
        ("/elsewhere/timeline.py", 1, "set_power"): (9, 9, 9.0, 9.0, {}),
    }
    targets = {
        "power": (("hardware/timeline.py", "set_power"),),
        "both": (
            ("hardware/timeline.py", "set_power"),
            ("hardware/procstat.py", "account"),
        ),
        "absent": (("sim/engine.py", "gone"),),
    }
    got = boundary_totals(stats, PKG, targets)
    assert got["power"] == (7, pytest.approx(0.4))
    assert got["both"] == (10, pytest.approx(0.6))
    assert got["absent"] == (0, 0.0)


# -- percentiles and spreads -------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101), 90) == 90  # 91..100 lie beyond
    assert tail_percentile(range(1, 100), 90) is None  # only 9 beyond
    assert tail_percentile([], 90) is None


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 80 + [2.0] * 15 + [3.0] * 5
    assert tail_percentile(samples, 90) is None  # 5 samples above 2.0
    assert tail_percentile(samples, 50) == 1.0  # 20 beyond


def test_speedometer_scales_by_the_kernel_times_around_the_work():
    clock = iter([0.0, 0.040, 10.0, 10.060]).__next__
    speed = Speedometer(clock=clock, work=lambda: None)
    with pytest.raises(RuntimeError):
        speed.scale()
    assert speed.tick() == pytest.approx(0.040)
    assert speed.tick() == pytest.approx(0.060)
    # the kernel took 2.5x its reference time: host seconds count 0.4
    assert speed.scale() == pytest.approx(REFERENCE_S / 0.050)


def test_calibration_kernel_is_fixed_work():
    assert kernel() == kernel()


def test_quartiles_and_spread():
    q1, q2, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q2 == 3.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((q3 - q1) / q2)
    assert spread([2.0, 2.0, 2.0]) == 0.0


def test_verdict_flags_regressions_and_unresolved_metrics():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.01, 1.00, 1.02, 0.99, 1.00], 0.1, "lower") == "ok"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], 0.1, "lower") == "REGRESSION"
    assert verdict(base, [0.80, 0.81, 0.79, 0.82, 0.80], 0.1, "higher") == "REGRESSION"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert verdict([0.5, 1.5, 1.0, 0.7, 1.3], [0.1, 0.2, 0.15, 0.1, 0.1], 0.1, "lower") == "better"


# -- the on_result gap timer -------------------------------------------------


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def event(source, index=0):
    return SimpleNamespace(source=source, index=index, attempts=())


def test_gap_timer_times_each_result_from_the_previous_one():
    timer = GapTimer(FakeClock(10.0, 10.5, 11.5, 11.75))
    timer.start()
    for i in range(3):
        timer(event("run", i))
    timer.stop()
    assert timer.samples == pytest.approx([0.5, 1.0, 0.25])
    assert [e.index for e in timer.events] == [0, 1, 2]


def test_gap_timer_shares_a_burst_of_cache_hits():
    # three hits land together 0.3 s after the start, then one fresh run
    timer = GapTimer(FakeClock(0.0, 0.3, 0.3, 0.3, 1.3))
    timer.start()
    for source in ("cache", "cache", "cache", "run"):
        timer(event(source))
    timer.stop()
    assert timer.samples == pytest.approx([0.1, 0.1, 0.1, 1.0])


def test_gap_timer_restarts_for_each_sweep_and_hands_samples_over():
    timer = GapTimer(FakeClock(0.0, 1.0, 5.0, 5.5))
    timer.start()
    timer.mark()
    timer.start()  # the idle time between sweeps is not a sample
    timer(event("run", 7))
    samples, events = timer.take()
    assert samples == pytest.approx([1.0, 0.5])
    assert [e.index for e in events] == [7]
    assert timer.take() == ([], [])


# -- output checks -----------------------------------------------------------


def point(energy, delay):
    return SimpleNamespace(energy=energy, delay=delay)


def test_point_check_holds_energy_to_1e9_and_delay_exactly():
    ref = checks.point_ref(point(100.0, 2.5))
    assert checks.point_ok(point(100.0 * (1 + 1e-10), 2.5), ref)
    assert not checks.point_ok(point(100.0 * (1 + 1e-8), 2.5), ref)
    assert not checks.point_ok(point(100.0, 2.5000000000000004), ref)


def chaos_outcome(energy=50.0, delay=3.0, violations=2, repairs=7):
    report = SimpleNamespace(violation_windows=violations, repair_events=repairs)
    return SimpleNamespace(point=point(energy, delay), report=report)


def test_chaos_check_follows_the_faulted_ties_contract():
    ref = json.loads(json.dumps(checks.chaos_ref(chaos_outcome())))
    assert checks.chaos_ok(chaos_outcome(energy=50.0 * (1 + 1e-4)), ref)
    assert not checks.chaos_ok(chaos_outcome(energy=50.0 * (1 + 2e-3)), ref)
    assert not checks.chaos_ok(chaos_outcome(delay=3.0 + 1e-12), ref)
    assert not checks.chaos_ok(chaos_outcome(violations=3), ref)
    assert not checks.chaos_ok(chaos_outcome(repairs=6), ref)


def serving_run(finished=0.004, energy=10.0):
    span = SimpleNamespace(
        tier="app", node_id=1, enqueued_s=0.001, started_s=0.002, finished_s=finished
    )
    record = SimpleNamespace(
        request_id=0, arrival_s=0.001, resolved_s=finished, status="ok", spans=(span,)
    )
    run = SimpleNamespace(records=(record,), end=91.0)
    report = SimpleNamespace(n_requests=1, dropped=0, timed_out=0, energy_j=energy)
    return run, report


def test_serving_check_catches_a_perturbed_record_or_energy():
    ref = json.loads(json.dumps(checks.serving_run_ref(*serving_run())))
    assert checks.serving_run_ok(*serving_run(), ref)
    assert not checks.serving_run_ok(*serving_run(finished=0.004000000000000001), ref)
    assert not checks.serving_run_ok(*serving_run(energy=10.0 * (1 + 1e-8)), ref)


def test_serving_outcome_check_compares_counts_exactly():
    def outcome(dropped=0):
        report = SimpleNamespace(n_requests=9, dropped=dropped, timed_out=0)
        return SimpleNamespace(point=point(5.0, 16.0), report=report)

    ref = checks.serving_outcome_ref(outcome())
    assert checks.serving_outcome_ok(outcome(), ref)
    assert not checks.serving_outcome_ok(outcome(dropped=1), ref)


# -- the runner without the program -------------------------------------------


def test_run_refuses_a_tree_without_the_program(tmp_path):
    here = Path(__file__).resolve().parents[1]
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
