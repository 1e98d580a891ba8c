"""The run log, its records and run reports.

``RunLog`` is the one observer of a run: the worlds tell it each fact as it
happens, and it folds the report one fact at a time. Per ``RequestKind`` it
counts outcomes and keeps an exact latency histogram (latency in ms ->
count). Latencies are integer ms, so the nearest-rank p50 and p95 (the
ceil(q * n)-th smallest, 1-indexed) read off the histogram's cumulative
counts, and the max off its largest key; a run keeps no record list to
report. ``summarize`` is the same fold over a record iterable: any
permutation of its inputs produces the identical Report, and the JSON form
is byte-stable (sorted keys, fixed key set, absent values encoded as null).
``Report`` and ``LatencyStats`` declare their fields in alphabetical order,
so their dict form is sorted too.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable

from .domain import Outcome, VersionId


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


@dataclass(slots=True)
class ReenrollEvent:
    at: int
    user_id: str
    from_seq: int
    to_version: VersionId


@dataclass(frozen=True, slots=True)
class LatencyStats:
    max: int
    p50: int
    p95: int


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


class RunLog:
    """The one observer of a run. The worlds report each fact through its
    method, and ``report(horizon)`` builds the whole ``Report`` from them.
    Only with ``keep`` does the log also keep the request records,
    re-enrollments and profile writes (``records``, ``reenrolls``,
    ``profile_puts``, else None)."""

    __slots__ = (
        "_tallies", "_reenrolled", "_bounced", "_window", "_maintenance_ms",
        "records", "reenrolls", "profile_puts",
    )  # fmt: skip

    def __init__(self, keep: bool = False) -> None:
        # kind -> (outcome -> count, latency ms -> count), keyed by the
        # members' ``_value_`` strings: a dict keyed by the members would call
        # ``Enum.__hash__``, a Python function, on every request
        self._tallies: dict[str, tuple[dict[str, int], dict[int, int]]] = {
            kind.value: ({outcome.value: 0 for outcome in Outcome}, {}) for kind in RequestKind
        }
        self._reenrolled = 0
        self._bounced = 0
        self._window: int | None = None
        self._maintenance_ms = 0
        self.records: list[RequestRecord] | None = [] if keep else None
        self.reenrolls: list[ReenrollEvent] | None = [] if keep else None
        self.profile_puts: list[tuple[int, str, int]] | None = [] if keep else None

    def request_done(
        self, kind: str, user_id: str, submitted: int, completed: int, outcome: Outcome,
        reenrollments_in_path: int = 0,
    ) -> None:  # fmt: skip
        """A request of ``kind`` (a ``RequestKind`` value) was answered."""
        counts, histogram = self._tallies[kind]
        counts[outcome._value_] += 1
        latency = completed - submitted
        histogram[latency] = histogram.get(latency, 0) + 1
        if self.records is not None:
            fields = (user_id, submitted, completed, outcome, reenrollments_in_path)
            self.records.append(RequestRecord(RequestKind(kind), *fields))

    def reenrolled(self, at: int, user_id: str, from_version: VersionId, to_version: VersionId) -> None:
        """A profile at ``from_version`` was re-enrolled at ``to_version``; to
        an older version, that is a bounce."""
        self._reenrolled += 1
        if to_version.seq < from_version.seq:
            self._bounced += 1
        if self.reenrolls is not None:
            self.reenrolls.append(ReenrollEvent(at, user_id, from_version.seq, to_version))

    def profile_stored(self, at: int, user_id: str, version: VersionId) -> None:
        if self.profile_puts is not None:
            self.profile_puts.append((at, user_id, version.seq))

    def window_open(self, at: int) -> None:
        """A maintenance window opened: requests are refused until it closes."""
        self._window = at

    def window_close(self, at: int) -> None:
        assert self._window is not None
        self._maintenance_ms += at - self._window
        self._window = None

    def report(self, horizon: int) -> Report:
        """The report so far; a window still open counts up to ``horizon``."""
        window = 0 if self._window is None else horizon - self._window
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
            total_reenrollments=self._reenrolled,
            bounce_count=self._bounced,
            # a version mismatch ends the run instead of being counted
            mismatch_violations=0,
            stale_profile_events=sum(counts[stale] for counts, _ in self._tallies.values()),
            maintenance_ms=self._maintenance_ms + window,
        )


def _histogram_stats(histogram: dict[int, int]) -> LatencyStats:
    """The nearest-rank p50 and p95 and the max of the latencies a non-empty
    histogram counts: each rank is found in the cumulative counts of the
    ascending keys."""
    keys = sorted(histogram)
    cumulative = list(accumulate(histogram[ms] for ms in keys))

    def rank(q: float) -> int:
        return keys[bisect_left(cumulative, max(math.ceil(q * cumulative[-1]), 1))]

    return LatencyStats(p50=rank(0.50), p95=rank(0.95), max=keys[-1])


def summarize(records: Iterable[RequestRecord]) -> Report:
    """The report of ``records`` alone: a ``RunLog`` told of each in turn,
    with no re-enrollment and no maintenance window."""
    log = RunLog()
    for rec in records:
        log.request_done(rec.kind._value_, rec.user_id, rec.submitted, rec.completed, rec.outcome)
    return log.report(0)


def report_to_json(report: Report) -> str:
    """Canonical encoding: UTF-8, alphabetical keys, two-space indent, one
    trailing newline. Parsing and re-encoding is byte-identical."""
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def report_from_dict(data: dict) -> Report:
    latency = {
        kind: None if stats is None else LatencyStats(**stats)
        for kind, stats in data["latency_ms"].items()
    }
    return Report(**{**data, "latency_ms": latency})
