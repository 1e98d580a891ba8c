"""The run log's report fold: percentiles, availability, the re-enrollment,
bounce and maintenance counts, and the canonical JSON form. The nearest-rank
percentiles of sorted values below are the reference that the report's
histogram fold is checked against."""

import dataclasses
import math
import random
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from versim.domain import Outcome, VersionId
from versim.metrics import (
    LatencyStats,
    RequestKind,
    RequestRecord,
    RunLog,
    report_from_dict,
    report_to_json,
    summarize,
)


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


def _record(kind, outcome, submitted, completed, user="u000", reenr=0):
    return RequestRecord(
        kind=kind,
        user_id=user,
        submitted=submitted,
        completed=completed,
        outcome=outcome,
        reenrollments_in_path=reenr,
    )


def _runtime(outcome, latency, user="u000"):
    return _record(RequestKind.RUNTIME, outcome, 1000, 1000 + latency, user=user)


def test_nearest_rank_reference_values():
    assert nearest_rank([10, 20, 30, 40], 0.50) == 20
    assert nearest_rank([10, 20, 30, 40], 0.95) == 40
    assert nearest_rank(list(range(1, 101)), 0.95) == 95
    assert nearest_rank([42], 0.50) == 42


def test_nearest_rank_sorts_its_input():
    assert nearest_rank([40, 10, 30, 20], 0.50) == 20


def test_nearest_rank_rejects_empty():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_latency_stats_bundle():
    stats = latency_stats([5, 1, 9, 3])
    assert (stats.p50, stats.p95, stats.max) == (3, 9, 9)


def test_latency_property():
    assert _runtime(Outcome.OK, 21).latency_ms == 21


def test_summarize_counts_full_grid():
    report = summarize([_runtime(Outcome.OK, 21)])
    # every kind/outcome cell exists even when zero
    assert set(report.total_requests) == {"ENROLL", "RUNTIME", "HANDSHAKE"}
    for grid in report.total_requests.values():
        assert set(grid) == {"OK", "MAINTENANCE", "STALE_PROFILES"}
    assert report.total_requests["RUNTIME"]["OK"] == 1
    assert report.total_requests["ENROLL"]["OK"] == 0


def test_availability_is_ok_share_of_runtime():
    records = [
        _runtime(Outcome.OK, 21),
        _runtime(Outcome.OK, 21),
        _runtime(Outcome.MAINTENANCE, 8),
        _record(RequestKind.ENROLL, Outcome.OK, 0, 48),  # does not count
    ]
    report = summarize(records)
    assert report.availability == pytest.approx(2 / 3)


def test_availability_none_without_runtime_traffic():
    report = summarize([_record(RequestKind.ENROLL, Outcome.OK, 0, 48)])
    assert report.availability is None
    assert report.latency_ms["RUNTIME"] is None


def test_stale_events_counted_from_records():
    records = [
        _runtime(Outcome.STALE_PROFILES, 10),
        _runtime(Outcome.STALE_PROFILES, 10),
        _runtime(Outcome.OK, 21),
    ]
    assert summarize(records).stale_profile_events == 2


def test_the_log_counts_reenrollments_bounces_and_windows():
    v1, v2 = VersionId("V1", 1), VersionId("V2", 2)
    log = RunLog(keep=True)
    log.request_done("RUNTIME", "u000", 1000, 1021, Outcome.OK)
    log.reenrolled(1100, "u000", v1, v2)
    log.reenrolled(1200, "u001", v2, v1)  # back to an older version: a bounce
    log.reenrolled(1300, "u001", v1, v1)
    log.profile_stored(1300, "u001", v1)
    log.window_open(2000)
    log.window_close(2300)
    log.window_open(9924)  # still open at the horizon
    report = log.report(10_000)
    assert report.bounce_count == 1
    assert report.total_reenrollments == 3
    assert report.maintenance_ms == 376
    assert report.mismatch_violations == 0
    assert [(e.user_id, e.from_seq, e.to_version.id) for e in log.reenrolls] == [
        ("u000", 1, "V2"), ("u001", 2, "V1"), ("u001", 1, "V1")
    ]
    assert log.profile_puts == [(1300, "u001", 1)]
    assert log.records == [_runtime(Outcome.OK, 21)]


def test_summarize_is_order_free():
    rng = random.Random(77)
    records = [
        _runtime(Outcome.OK, 20 + i % 7, user=f"u{i % 5:03d}") for i in range(40)
    ] + [_runtime(Outcome.MAINTENANCE, 8) for _ in range(5)]
    baseline = report_to_json(summarize(records))
    for _ in range(20):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert report_to_json(summarize(shuffled)) == baseline


def test_report_dict_keys_are_alphabetical():
    report = summarize([_runtime(Outcome.OK, 21)])
    keys = list(dataclasses.asdict(report))
    assert keys == sorted(keys)


def test_json_round_trip_is_byte_stable():
    records = [
        _runtime(Outcome.OK, 21),
        _runtime(Outcome.OK, 53),
        _record(RequestKind.ENROLL, Outcome.OK, 0, 48),
        _record(RequestKind.HANDSHAKE, Outcome.OK, 600, 610, user="d00"),
    ]
    # the counts a run's log adds, nonzero so the round trip covers them
    report = dataclasses.replace(
        summarize(records), total_reenrollments=2, bounce_count=1, maintenance_ms=350
    )
    text = report_to_json(report)
    assert text.endswith("\n")
    import json

    rebuilt = report_from_dict(json.loads(text))
    assert report_to_json(rebuilt) == text


def test_absent_sections_encode_as_null():
    report = summarize([])
    text = report_to_json(report)
    assert '"availability": null' in text
    assert '"ENROLL": null' in text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30) | st.integers(0, 100_000), min_size=1))
@example([0])
@example([7, 7, 7, 7])
@example([3, 1, 3, 2, 1, 3])
def test_the_fold_equals_the_sorted_reference(latencies):
    log = RunLog()
    for ms in latencies:
        log.request_done("RUNTIME", "u000", 0, ms, Outcome.OK)
    report = log.report(0)
    assert report.latency_ms["RUNTIME"] == latency_stats(sorted(latencies))
    assert report.total_requests["RUNTIME"]["OK"] == len(latencies)
    assert report.latency_ms["ENROLL"] is None
