"""Request records and run reports.

``summarize`` is a pure fold over the records: any permutation of its inputs
produces the identical Report, and the JSON form is byte-stable (sorted keys,
fixed key set, absent values encoded as null). ``Report`` and ``LatencyStats``
declare their fields in alphabetical order, so their dict form is sorted too.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Sequence

from .domain import Outcome


class RequestKind(Enum):
    ENROLL = "ENROLL"
    RUNTIME = "RUNTIME"
    HANDSHAKE = "HANDSHAKE"


@dataclass(frozen=True, slots=True)
class RequestRecord:
    kind: RequestKind
    user_id: str
    submitted: int
    completed: int
    outcome: Outcome
    reenrollments_in_path: int = 0

    @property
    def latency_ms(self) -> int:
        return self.completed - self.submitted


@dataclass(frozen=True, slots=True)
class LatencyStats:
    max: int
    p50: int
    p95: int


def _rank(ordered: Sequence[int], q: float) -> int:
    """The ceil(q * n)-th smallest of an ascending sequence, 1-indexed."""
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def nearest_rank(values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile: the ceil(q * n)-th smallest, 1-indexed."""
    return _rank(sorted(values), q)


def latency_stats(latencies: Sequence[int]) -> LatencyStats:
    ordered = sorted(latencies)
    return LatencyStats(p50=_rank(ordered, 0.50), p95=_rank(ordered, 0.95), max=ordered[-1])


@dataclass(frozen=True, slots=True)
class Report:
    availability: float | None
    bounce_count: int
    latency_ms: dict[str, LatencyStats | None]
    maintenance_ms: int
    mismatch_violations: int
    stale_profile_events: int
    total_reenrollments: int
    total_requests: dict[str, dict[str, int]]


def summarize(
    records: Iterable[RequestRecord],
    *,
    bounce_count: int = 0,
    total_reenrollments: int = 0,
    maintenance_ms: int = 0,
) -> Report:
    # one pass keyed by the enum members; their ``.value`` strings are read
    # once per cell at the end, not once per record
    counts = {kind: {outcome: 0 for outcome in Outcome} for kind in RequestKind}
    latencies: dict[RequestKind, list[int]] = {kind: [] for kind in RequestKind}
    for rec in records:
        kind = rec.kind
        counts[kind][rec.outcome] += 1
        latencies[kind].append(rec.completed - rec.submitted)

    runtime = counts[RequestKind.RUNTIME]
    runtime_total = sum(runtime.values())
    availability = runtime[Outcome.OK] / runtime_total if runtime_total else None
    stale = sum(grid[Outcome.STALE_PROFILES] for grid in counts.values())
    return Report(
        total_requests={
            kind.value: {outcome.value: n for outcome, n in grid.items()}
            for kind, grid in counts.items()
        },
        latency_ms={
            kind.value: latency_stats(vals) if vals else None
            for kind, vals in latencies.items()
        },
        availability=availability,
        total_reenrollments=total_reenrollments,
        bounce_count=bounce_count,
        # a version mismatch ends the run instead of being counted
        mismatch_violations=0,
        stale_profile_events=stale,
        maintenance_ms=maintenance_ms,
    )


def report_to_dict(report: Report) -> dict:
    return asdict(report)


def report_to_json(report: Report) -> str:
    """Canonical encoding: UTF-8, alphabetical keys, two-space indent, one
    trailing newline. Parsing and re-encoding is byte-identical."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def report_from_dict(data: dict) -> Report:
    latency = {
        kind: None if stats is None else LatencyStats(**stats)
        for kind, stats in data["latency_ms"].items()
    }
    return Report(**{**data, "latency_ms": latency})
