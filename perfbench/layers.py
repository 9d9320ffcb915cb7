"""Per-layer breakdown of a profiled run, measured from the benchmark.

The layers are the modules under ``src/repro/``.  A traced run profiles
the workload with ``cProfile`` (nothing under ``src/`` changes) and
reads three kinds of numbers:

* **self time by layer** — each ``repro`` function's own time goes to
  its module; time in the standard library, numpy, builtins or
  generated code (dataclass ``__init__``) goes to the ``repro`` layer
  that called it, split by the callers' inclusive time; frames no
  ``repro`` code called are the benchmark's own (:data:`HARNESS`);
* **boundary functions** — call counts and inclusive times read from
  the same profile (:data:`PROFILE_CALLS`, :data:`PROFILE_INCLUSIVE`);
* **generator boundaries** — ``cProfile`` counts every resume of a
  generator as a call, so invocations of the generator functions in
  :data:`GENERATOR_CALLS` are counted by a wrapper installed for the
  traced run, as are the engines built (for their ``EngineStats``).
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "GENERATOR_CALLS",
    "HARNESS",
    "LAYERS",
    "OTHER",
    "PROFILE_CALLS",
    "PROFILE_INCLUSIVE",
    "LayerProfile",
    "boundary_totals",
    "layer_of",
    "self_time_by_layer",
]

#: Modules under ``src/repro/``, each reported as its own layer.
LAYERS = (
    "sim",
    "hardware",
    "simmpi",
    "dvs",
    "workloads",
    "serving",
    "powercap",
    "faults",
    "metrics",
    "cache",
    "exec",
    "analysis",
    "experiments",
    "obs",
    "util",
    "measurement",
    "realhw",
    "session",
)
#: ``repro`` code outside :data:`LAYERS` (the package ``__init__``, and
#: any module added after this list was written).
OTHER = "other"
#: The benchmark's own frames.
HARNESS = "harness"

#: metric → (path under ``repro/``, function name) whose calls it counts.
PROFILE_CALLS: Mapping[str, Tuple[Tuple[str, str], ...]] = {
    "hardware.power_writes": (("hardware/timeline.py", "set_power"),),
    "hardware.procstat_accounts": (("hardware/procstat.py", "account"),),
    "simmpi.collectives": (("simmpi/communicator.py", "_traced_collective"),),
    "simmpi.messages": (("simmpi/world.py", "post"),),
    "dvs.transitions": (("hardware/cpu.py", "set_frequency"),),
    "dvs.cpuspeed_polls": (("dvs/policy.py", "cpuspeed_decision"),),
    "powercap.plans": (("powercap/actuators.py", "dispatch_plan"),),
    "powercap.telemetry_samples": (("powercap/telemetry.py", "sample"),),
    "faults.injected": (("faults/injector.py", "_apply"),),
    "cache.shard_loads": (("cache/store.py", "_load_shard"),),
}

#: metric → functions whose inclusive time it sums.
PROFILE_INCLUSIVE: Mapping[str, Tuple[Tuple[str, str], ...]] = {
    "metrics.report_s": (("metrics/serving.py", "build_serving_report"),),
    "cache.key_s": (
        ("cache/keys.py", "task_key"),
        ("faults/sweep.py", "chaos_task_key"),
        ("serving/sweep.py", "serving_task_key"),
    ),
    "hardware.run_cycles_s": (("hardware/cpu.py", "run_cycles"),),
}

#: metric → (module, class, generator method) whose invocations it counts.
GENERATOR_CALLS: Mapping[str, Tuple[str, str, str]] = {
    "hardware.run_cycles_calls": ("repro.hardware.cpu", "SimCPU", "run_cycles"),
    "hardware.transfers": ("repro.hardware.network", "NetworkFabric", "transfer"),
}

#: Where every cluster gets its engine (wrapped to collect ``EngineStats``).
_ENGINE_FACTORY = ("repro.hardware.cluster", "make_engine")

Func = Tuple[str, int, str]  # pstats key: (filename, line, name)


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer a profiled file belongs to, or ``None`` outside ``repro``."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    name = head[:-3] if head.endswith(".py") else head
    return name if name in LAYERS else OTHER


def self_time_by_layer(
    stats: Mapping[Func, tuple], layer: Callable[[str], Optional[str]]
) -> Dict[str, float]:
    """Sum self time per layer, charging non-``repro`` frames to callers.

    ``stats`` is ``pstats.Stats(...).stats``: ``func → (cc, nc, tt, ct,
    callers)`` with ``callers`` mapping each caller to its edge's
    ``(cc, nc, tt, ct)``.
    """
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: set) -> Dict[str, float]:
        own = layer(func[0])
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers:
            return {HARNESS: 1.0}
        if func in visiting:
            return {}  # recursion among library frames: weigh the rest
        visiting.add(func)
        acc: Dict[str, float] = defaultdict(float)
        edges = list(callers.items())
        total_ct = sum(edge[3] for _, edge in edges)
        for caller, edge in edges:
            weight = edge[3] if total_ct > 0 else 1.0
            for name, share in shares(caller, visiting).items():
                acc[name] += weight * share
        visiting.discard(func)
        norm = sum(acc.values())
        if norm <= 0:
            return {}
        result = {name: value / norm for name, value in acc.items()}
        memo[func] = result
        return result

    totals: Dict[str, float] = defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        split = shares(func, set()) or {HARNESS: 1.0}
        for name, share in split.items():
            totals[name] += tt * share
    return dict(totals)


def boundary_totals(
    stats: Mapping[Func, tuple],
    package_dir: str,
    targets: Mapping[str, Tuple[Tuple[str, str], ...]],
) -> Dict[str, Tuple[int, float]]:
    """metric → (calls, inclusive seconds) summed over its functions."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    wanted: Dict[Tuple[str, str], List[str]] = defaultdict(list)
    for metric, funcs in targets.items():
        for func in funcs:
            wanted[func].append(metric)
    out = {metric: (0, 0.0) for metric in targets}
    for (filename, _, name), (_, nc, _, ct, _) in stats.items():
        if not filename.startswith(prefix):
            continue
        rel = filename[len(prefix):].replace(os.sep, "/")
        for metric in wanted.get((rel, name), ()):
            calls, seconds = out[metric]
            out[metric] = (calls + nc, seconds + ct)
    return out


@contextmanager
def _observing(owner, attr: str, observe: Callable[[object], None]) -> Iterator[None]:
    original = vars(owner)[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        observe(result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class LayerProfile:
    """One traced phase: a profile, generator call counts and engines."""

    def __init__(self, package_dir: str):
        self.package_dir = package_dir
        self.profile = cProfile.Profile()
        self.calls: Counter = Counter()
        #: ``EngineStats`` of every engine built (kept without the engine)
        self.engine_stats: List[object] = []

    @contextmanager
    def installed(self) -> Iterator["LayerProfile"]:
        """Install the counting wrappers for the duration of the block."""
        with ExitStack() as stack:
            for metric, (module, cls, attr) in GENERATOR_CALLS.items():
                owner = getattr(importlib.import_module(module), cls)
                stack.enter_context(
                    _observing(owner, attr, functools.partial(self._count, metric))
                )
            module, attr = _ENGINE_FACTORY
            stack.enter_context(
                _observing(importlib.import_module(module), attr, self._engine)
            )
            yield self

    def _count(self, metric: str, _result: object) -> None:
        self.calls[metric] += 1

    def _engine(self, engine: object) -> None:
        self.engine_stats.append(getattr(engine, "stats", None))

    @contextmanager
    def profiling(self) -> Iterator[None]:
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def totals(self) -> Dict[str, float]:
        """Every per-layer number, summed over the traced phase."""
        stats = pstats.Stats(self.profile).stats
        out: Dict[str, float] = {}
        by_layer = self_time_by_layer(
            stats, lambda f: layer_of(f, self.package_dir)
        )
        for name in LAYERS + (OTHER, HARNESS):
            out[f"{name}.self_s"] = by_layer.get(name, 0.0)
        for metric, (calls, _) in boundary_totals(
            stats, self.package_dir, PROFILE_CALLS
        ).items():
            out[metric] = calls
        for metric, (_, seconds) in boundary_totals(
            stats, self.package_dir, PROFILE_INCLUSIVE
        ).items():
            out[metric] = seconds
        for metric in GENERATOR_CALLS:
            out[metric] = self.calls[metric]
        for field in ("dispatched", "frontiers", "cancelled"):
            out[f"sim.{field}"] = sum(
                getattr(stats, field, 0) for stats in self.engine_stats
            )
        return out
