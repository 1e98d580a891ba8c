"""Request records, the report fold and run reports.

``ReportFold`` folds the report one completed request at a time: per
``RequestKind`` it counts outcomes and keeps an exact latency histogram
(latency in ms -> count). Latencies are integer ms, so the nearest-rank p50
and p95 read off the histogram's cumulative counts, and the max off its
largest key, equal what ``latency_stats`` gives over the sorted values; a run
keeps no record list to report. ``summarize`` is the same fold over a record
iterable: any permutation of its inputs produces the identical Report, and
the JSON form is byte-stable (sorted keys, fixed key set, absent values
encoded as null). ``Report`` and ``LatencyStats`` declare their fields in
alphabetical order, so their dict form is sorted too.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import accumulate
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


class ReportFold:
    """The report's request counts and latency histograms, updated as each
    request completes."""

    __slots__ = ("_tallies",)

    def __init__(self) -> None:
        # kind -> (outcome -> count, latency ms -> count), keyed by the
        # members' ``_value_`` strings: a dict keyed by the members would call
        # ``Enum.__hash__``, a Python function, on every request
        self._tallies: dict[str, tuple[dict[str, int], dict[int, int]]] = {
            kind.value: ({outcome.value: 0 for outcome in Outcome}, {}) for kind in RequestKind
        }

    def add(self, kind: RequestKind, outcome: Outcome, latency_ms: int) -> None:
        counts, histogram = self._tallies[kind._value_]
        counts[outcome._value_] += 1
        histogram[latency_ms] = histogram.get(latency_ms, 0) + 1

    def report(
        self, *, bounce_count: int = 0, total_reenrollments: int = 0, maintenance_ms: int = 0
    ) -> Report:
        runtime = self._tallies[RequestKind.RUNTIME.value][0]
        runtime_total = sum(runtime.values())
        stale = Outcome.STALE_PROFILES.value
        return Report(
            total_requests={kind: dict(counts) for kind, (counts, _) in self._tallies.items()},
            latency_ms={
                kind: _histogram_stats(histogram) if histogram else None
                for kind, (_, histogram) in self._tallies.items()
            },
            availability=runtime[Outcome.OK.value] / runtime_total if runtime_total else None,
            total_reenrollments=total_reenrollments,
            bounce_count=bounce_count,
            # a version mismatch ends the run instead of being counted
            mismatch_violations=0,
            stale_profile_events=sum(counts[stale] for counts, _ in self._tallies.values()),
            maintenance_ms=maintenance_ms,
        )


def _histogram_stats(histogram: dict[int, int]) -> LatencyStats:
    """``latency_stats`` of the latencies a non-empty histogram counts: each
    nearest rank is found in the cumulative counts of the ascending keys."""
    keys = sorted(histogram)
    cumulative = list(accumulate(histogram[ms] for ms in keys))

    def rank(q: float) -> int:
        return keys[bisect_left(cumulative, max(math.ceil(q * cumulative[-1]), 1))]

    return LatencyStats(p50=rank(0.50), p95=rank(0.95), max=keys[-1])


def summarize(
    records: Iterable[RequestRecord],
    *,
    bounce_count: int = 0,
    total_reenrollments: int = 0,
    maintenance_ms: int = 0,
) -> Report:
    """The report of ``records``: ``ReportFold`` applied to each in turn."""
    fold = ReportFold()
    for rec in records:
        fold.add(rec.kind, rec.outcome, rec.completed - rec.submitted)
    return fold.report(
        bounce_count=bounce_count,
        total_reenrollments=total_reenrollments,
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
