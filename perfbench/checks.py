"""Output checks against pinned reference outputs.

The tolerances are the contracts the repository documents for its two
engines (``docs/ENGINE.md``):

* fault-free runs — energies within :data:`FAULT_FREE_ENERGY_REL`
  relative, delays and request records exact;
* faulted (chaos) runs — delays, violation and repair counts exact,
  energy within :data:`FAULTED_ENERGY_REL` relative, because
  same-instant power writes may land in either order.

Each ``*_ref`` function encodes an output as the JSON-ready entry
``reference.json`` pins, and each ``*_ok`` compares an output with such
an entry.  Floats go through JSON by ``repr``, so exact comparisons
survive the round trip.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Mapping, Sequence

__all__ = [
    "FAULT_FREE_ENERGY_REL",
    "FAULTED_ENERGY_REL",
    "chaos_ok",
    "chaos_ref",
    "point_ok",
    "point_ref",
    "records_digest",
    "rel_close",
    "serving_outcome_ok",
    "serving_outcome_ref",
    "serving_run_ok",
    "serving_run_ref",
]

FAULT_FREE_ENERGY_REL = 1e-9
FAULTED_ENERGY_REL = 1e-3


def rel_close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def records_digest(records: Iterable) -> str:
    """SHA-256 over every request record, times by ``repr`` (exact)."""
    h = hashlib.sha256()
    for r in records:
        spans = ";".join(
            f"{s.tier}/{s.node_id}/{s.enqueued_s!r}/{s.started_s!r}/"
            f"{s.finished_s!r}"
            for s in r.spans
        )
        h.update(
            f"{r.request_id}|{r.arrival_s!r}|{r.resolved_s!r}|{r.status}|"
            f"{spans}\n".encode()
        )
    return h.hexdigest()


def point_ref(point) -> List[float]:
    return [point.energy, point.delay]


def point_ok(point, ref: Sequence[float]) -> bool:
    energy, delay = ref
    return point.delay == delay and rel_close(
        point.energy, energy, FAULT_FREE_ENERGY_REL
    )


def chaos_ref(outcome) -> list:
    r = outcome.report
    return [
        outcome.point.energy,
        outcome.point.delay,
        r.violation_windows,
        r.repair_events,
    ]


def chaos_ok(outcome, ref: Sequence) -> bool:
    energy, delay, violations, repairs = ref
    r = outcome.report
    return (
        outcome.point.delay == delay
        and r.violation_windows == violations
        and r.repair_events == repairs
        and rel_close(outcome.point.energy, energy, FAULTED_ENERGY_REL)
    )


def serving_outcome_ref(outcome) -> list:
    r = outcome.report
    return [
        outcome.point.energy,
        outcome.point.delay,
        r.n_requests,
        r.dropped,
        r.timed_out,
    ]


def serving_outcome_ok(outcome, ref: Sequence) -> bool:
    energy, delay, n_requests, dropped, timed_out = ref
    r = outcome.report
    return (
        outcome.point.delay == delay
        and (r.n_requests, r.dropped, r.timed_out)
        == (n_requests, dropped, timed_out)
        and rel_close(outcome.point.energy, energy, FAULT_FREE_ENERGY_REL)
    )


def serving_run_ref(run, report) -> dict:
    return {
        "energy_j": report.energy_j,
        "end_s": run.end,
        "requests": report.n_requests,
        "dropped": report.dropped,
        "timed_out": report.timed_out,
        "records_sha256": records_digest(run.records),
    }


def serving_run_ok(run, report, ref: Mapping) -> bool:
    return (
        run.end == ref["end_s"]
        and (report.n_requests, report.dropped, report.timed_out)
        == (ref["requests"], ref["dropped"], ref["timed_out"])
        and rel_close(report.energy_j, ref["energy_j"], FAULT_FREE_ENERGY_REL)
        and records_digest(run.records) == ref["records_sha256"]
    )
