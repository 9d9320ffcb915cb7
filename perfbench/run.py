"""Run one reference workload of the ``repro`` simulator and report it.

Usage, from the repository root::

    python3 perfbench/run.py --workload serving_poisson_10k --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures host time with tracing off and reports the
end-to-end metrics as medians over the run's iterations; ``--trace 1``
spends half the time untraced and half under ``cProfile`` and reports
the per-layer metrics (see ``README.md``).  Every time is reported in
reference seconds: host seconds scaled by a calibration kernel timed
between the iterations (see :mod:`perfbench.calibrate`).  Every
iteration's outputs are checked against the pinned references in
``reference.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.

The program is imported from ``src/`` beside this directory.  Without
it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for run caches, removed when the run ends.
WORKDIR = ROOT / ".perfbench_work"

#: Environment variables that change what the program does: an engine
#: override (the scalar oracle is ~38x slower), a cache that would turn
#: cold runs warm, and paper-size scaling.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_CACHE_DIR", "REPRO_FULL_SCALE")
#: Native thread pools are held to one thread: the load is one process.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fewest timed iterations a run takes, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: The per-operation latency percentiles reported (``task_ms_p50/p90``).
LATENCY_PERCENTILES = (50, 90)
#: Set-ups in fresh interpreters before and after measuring.
SETUP_SAMPLES_EACH_SIDE = 2
#: A run stops measuring after this multiple of ``--seconds`` even when
#: its latency samples hold too few beyond a percentile.
MAX_TIME_FACTOR = 1.5


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-sample",
        action="store_true",
        help="set up once, print the set-up times as JSON and exit",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def clean_environment() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    for name in THREAD_ENV:
        os.environ[name] = "1"


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` without it)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def _setup_sample(args: argparse.Namespace) -> Dict[str, float]:
    """Set up in a fresh interpreter (import included); its timings."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--setup-sample",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _measure(workload, seconds: float, need_p90: bool) -> Tuple[list, int]:
    """Timed iterations for ``seconds``, and on until their latency
    samples hold enough beyond each percentile (or the time cap).

    The calibration kernel runs before the first iteration and after
    each one, and each result carries the scale of its two neighbours.
    Returns the results and the peak resident set (KiB) as it stood
    after ``seconds`` of iterations, before the samples were pooled.
    """
    from perfbench.calibrate import Speedometer
    from perfbench.stats import POOL_TAIL, tail_percentile
    from perfbench.workloads import IterResult

    speed = Speedometer()
    speed.tick()
    results: List[IterResult] = []
    rss_kb = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = workload.iterate()
        except Exception:  # counted as failed operations, and reported
            traceback.print_exc(file=sys.stderr)
            n = workload.ops_per_iteration
            result = IterResult(time.perf_counter() - t0, n, n, [], timed=False)
        speed.tick()
        result.scale = speed.scale()
        results.append(result)
        elapsed = time.perf_counter() - start
        if not rss_kb and elapsed >= seconds:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if elapsed >= MAX_TIME_FACTOR * seconds:
            break
        if elapsed >= seconds and len(results) >= MIN_ITERATIONS and (
            not need_p90
            or all(
                tail_percentile(_scaled_gaps(results), q, POOL_TAIL) is not None
                for q in LATENCY_PERCENTILES
            )
        ):
            break
    return results, rss_kb


def _scaled_gaps(results) -> List[float]:
    """Every timed iteration's latency samples, in reference seconds."""
    return [g * r.scale for r in results if r.timed for g in r.gaps]


def _median_wall(results) -> float:
    """Median iteration time in reference seconds."""
    return statistics.median(r.wall_s * r.scale for r in _timed(results))


def _timed(results) -> list:
    timed = [r for r in results if r.timed]
    if not timed:
        raise RuntimeError("every iteration raised; nothing to time")
    return timed


def _end_to_end(results, rss_kb, setups) -> Tuple[Dict[str, tuple], str]:
    """The end-to-end metrics, and a note on the latency samples."""
    from perfbench.stats import tail_percentile

    timed = _timed(results)
    gaps = _scaled_gaps(timed)
    latency = {}
    notes = [
        f"{len(timed)} timed iterations, host time median "
        f"{statistics.median(r.wall_s for r in timed):.6g} s, "
        f"scale median {statistics.median(r.scale for r in timed):.4g}"
    ]
    for q in LATENCY_PERCENTILES:
        value = tail_percentile(gaps, q)
        if value is None:
            raise RuntimeError(
                f"{len(gaps)} latency samples leave fewer than ten beyond p{q}"
            )
        latency[q] = value * 1e3
        beyond = sum(g > value for g in gaps)
        notes.append(f"p{q} from {len(gaps)} samples, {beyond} beyond it")
    return {
        "wall_s": (_median_wall(timed), "s"),
        "ops_per_s": (
            statistics.median(r.ops / (r.wall_s * r.scale) for r in timed),
            "ops/s",
        ),
        "task_ms_p50": (latency[50], "ms"),
        "task_ms_p90": (latency[90], "ms"),
        "setup_s": (statistics.median(sum(s.values()) for s in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }, "; ".join(notes)


#: Per-layer metrics read from the workloads' public objects, averaged
#: over the traced iterations.
COUNTERS = (
    ("serving.requests", "count"),
    ("serving.dropped", "count"),
    ("serving.timed_out", "count"),
    ("powercap.windows", "count"),
    ("powercap.violations", "count"),
    ("powercap.repairs", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.bytes_written", "bytes"),
    ("exec.tasks", "count"),
    ("exec.attempts", "count"),
    ("exec.failures", "count"),
)


def _per_layer(untraced, traced, setups, profile) -> Dict[str, tuple]:
    from perfbench.layers import GENERATOR_CALLS, PROFILE_CALLS

    n = len(traced)
    # Profiled times are scaled like the iterations they were taken in.
    scale = statistics.median(r.scale for r in traced)
    totals = {
        k: v / n * (scale if k.endswith("_s") else 1.0)
        for k, v in profile.totals().items()
    }
    out: Dict[str, tuple] = {}
    for name, value in totals.items():
        if name.endswith(".self_s"):
            out[name] = (value, "s")
    for name in list(PROFILE_CALLS) + list(GENERATOR_CALLS):
        out[name] = (totals[name], "count")
    for name, unit in COUNTERS:
        out[name] = (sum(r.counters.get(name, 0) for r in traced) / n, unit)

    wall = _median_wall(untraced)
    events = totals["sim.dispatched"]
    out["sim.events"] = (events, "count")
    out["sim.frontiers"] = (totals["sim.frontiers"], "count")
    out["sim.cancelled"] = (totals["sim.cancelled"], "count")
    out["sim.us_per_event"] = (wall / events * 1e6 if events else 0.0, "us")
    calls = totals["hardware.run_cycles_calls"]
    out["hardware.us_per_run_cycles"] = (
        totals["hardware.run_cycles_s"] / calls * 1e6 if calls else 0.0,
        "us",
    )
    out["metrics.report_s"] = (totals["metrics.report_s"], "s")
    out["cache.key_s"] = (totals["cache.key_s"], "s")
    hits, misses = out["cache.hits"][0], out["cache.misses"][0]
    out["cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0,
        "ratio",
    )
    for part in ("import_s", "inputs_s", "cache_fill_s"):
        out[f"setup.{part}"] = (statistics.median(s[part] for s in setups), "s")
    out["trace.overhead"] = (_median_wall(traced) / wall, "ratio")
    return out


def _as_declared(metrics: Dict[str, tuple], kind: str) -> Dict[str, tuple]:
    """``metrics`` in ``BENCHMARK.json`` order, which must name exactly
    these metrics with these units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(want.items()) ^ set(have.items()))}"
        )
    return {m["name"]: metrics[m["name"]] for m in declared}


def _environment() -> Dict[str, object]:
    import numpy

    from repro.sim.factory import engine_mode

    return {
        "engine": engine_mode(),
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _run(args: argparse.Namespace, workdir: Path) -> int:
    from perfbench.calibrate import Speedometer

    speed = Speedometer()
    speed.tick()
    t0 = time.perf_counter()
    from perfbench import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    if reference.get("input_sets") != workloads.INPUT_SETS:
        raise RuntimeError("reference.json was pinned for other input sets")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, reference)
    setup = {"import_s": import_s, **workload.setup()}
    speed.tick()
    setups = [{k: v * speed.scale() for k, v in setup.items()}]
    if args.setup_sample:
        print(json.dumps(setups[0]))
        return 0
    # setup_s is the median of five set-ups: this one, and two in fresh
    # interpreters before and two after measuring, so that it spans the
    # run rather than one moment of the host's load.
    setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    if args.trace:
        import repro

        from perfbench.layers import LayerProfile

        untraced, _ = _measure(workload, args.seconds / 2, need_p90=False)
        profile = LayerProfile(os.path.dirname(repro.__file__))
        with profile.installed():
            workload.profile = profile
            traced, _ = _measure(workload, args.seconds / 2, need_p90=False)
            workload.profile = None
        results = untraced + traced
        setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        metrics = _per_layer(untraced, traced, setups, profile)
        note = f"traced iterations: {len(traced)}"
    else:
        results, rss_kb = _measure(workload, args.seconds, need_p90=True)
        setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        metrics, note = _end_to_end(results, rss_kb, setups)

    metrics = _as_declared(metrics, "per_layer" if args.trace else "end_to_end")
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    env = _environment()
    print(f"# {args.workload}  seed={args.seed} (input set {workload.index})  "
          f"iterations={len(results)}  trace={args.trace}")
    print("# " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / attempted:>16.6g} ratio")
    print(f"# {note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    clean_environment()
    sys.path[:0] = [str(SRC), str(ROOT)]
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
