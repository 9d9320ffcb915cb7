"""Collect repeated benchmark runs, and compare two sets of them.

Usage, from the repository root::

    python3 perfbench/compare.py collect --out base.jsonl --runs 10
    python3 perfbench/compare.py report base.jsonl            # spreads
    python3 perfbench/compare.py report base.jsonl head.jsonl # verdicts

``collect`` runs the command in ``BENCHMARK.json`` once per workload
and seed, interleaving the workloads, prints each run's table, and
appends one JSON line per run (its result and its environment), so
``collect --runs 1`` prints every metric of every workload.
``report`` gives, for each workload and metric, the median and
quartiles of each side.  With two files it flags a metric whose median
got worse by more than the bound in ``BENCHMARK.json`` as a
``REGRESSION``, and marks it ``unresolved`` when either side's
run-to-run spread (interquartile distance over median) exceeds the
bound, unless every run of the second side beats every run of the first.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(out: Path, runs: int, first_seed: int, trace: int, workloads: Sequence[str]) -> int:
    bench = _benchmark()
    names = list(workloads) or [w["name"] for w in bench["workloads"]]
    with out.open("a") as sink:
        for i in range(runs):
            seed = first_seed + i
            for name in names:
                cmd = bench["command"] + [
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", str(trace),
                ]
                done = subprocess.run(
                    cmd, cwd=ROOT, capture_output=True, text=True, timeout=900
                )
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return done.returncode
                *table, last = done.stdout.strip().splitlines()
                print("\n".join(table), flush=True)
                env = next(
                    (json.loads(t[2:]) for t in table if t.startswith("# {")), None
                )
                line = {
                    "workload": name,
                    "seed": seed,
                    "trace": trace,
                    "env": env,
                    "result": json.loads(last),
                }
                sink.write(json.dumps(line) + "\n")
                sink.flush()
    return 0


def _load(path: Path) -> Dict[Tuple[str, str], List[float]]:
    series: Dict[Tuple[str, str], List[float]] = {}
    for line in path.read_text().splitlines():
        run = json.loads(line)
        for metric, entry in run["result"]["metrics"].items():
            series.setdefault((run["workload"], metric), []).append(entry["value"])
    return series


def verdict(base: Sequence[float], head: Sequence[float], bound: float, better: str) -> str:
    """``ok``, ``better``, ``REGRESSION`` or ``unresolved`` (see the module
    docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    if spread(base) > bound or spread(head) > bound:
        if max(sign * v for v in head) < min(sign * v for v in base):
            return "better"
        return "unresolved"
    b, h = quartiles(base)[1], quartiles(head)[1]
    worse = sign * (h - b) / abs(b) if b else 0.0
    return "REGRESSION" if worse > bound else "ok"


def report(base_path: Path, head_path: Optional[Path]) -> int:
    bench = _benchmark()
    bounds = {m["name"]: (m.get("bound"), m["better"]) for m in bench["end_to_end"]}
    bounds.update({m["name"]: (None, m["better"]) for m in bench["per_layer"]})
    base = _load(base_path)
    head = _load(head_path) if head_path else {}
    regressions = 0
    for (workload, metric), values in sorted(base.items()):
        bound, better = bounds.get(metric, (None, "lower"))
        q1, q2, q3 = quartiles(values)
        row = f"{workload:20s} {metric:28s} n={len(values):<3d} {q2:12.6g} [{q1:.6g}, {q3:.6g}]"
        if head_path is None:
            s = spread(values)
            flag = "" if bound is None else ("steady" if s <= bound / 3 else "NOISY")
            print(f"{row}  spread={s:.3f}" + (f" bound={bound} {flag}" if bound else ""))
            continue
        other = head.get((workload, metric))
        if not other:
            print(f"{row}  (missing on the second side)")
            continue
        h1, h2, h3 = quartiles(other)
        change = (h2 - q2) / abs(q2) if q2 else 0.0
        text = "" if bound is None else verdict(values, other, bound, better)
        regressions += text == "REGRESSION"
        print(f"{row} -> {h2:12.6g} [{h1:.6g}, {h3:.6g}] {change:+.1%} {text}")
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", type=Path, required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--workload", action="append", default=[])
    r = sub.add_parser("report")
    r.add_argument("base", type=Path)
    r.add_argument("head", type=Path, nargs="?")
    args = p.parse_args(argv)
    if args.cmd == "collect":
        return collect(args.out, args.runs, args.first_seed, args.trace, args.workload)
    return report(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
