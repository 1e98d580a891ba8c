"""Acceptance gate.

Each test prints one PASS/FAIL line for its criterion before asserting, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist. Criteria
1-3 share one 550-run sweep (11 strategy combinations x 50 seeds) built once
per session.
"""

import json
import random
from pathlib import Path

import pytest

from versim.engine import EngineInstance, profile_digest
from versim.domain import AudioSample, Outcome, VersionId
from versim.metrics import RequestKind, report_to_json
from versim.runner import RunFailedError, run
from versim.scenario import scenario_from_dict

GOLDENS = Path(__file__).parent / "goldens"

# -- the sweep shape: one scenario skeleton stressed across every combination

_SWEEP_USERS = 10


def _sweep_arrivals():
    times = list(range(200, 15800, 75))
    return [
        {"time_ms": t, "user_id": f"u{i % _SWEEP_USERS:03d}"}
        for i, t in enumerate(times)
    ]


def _sweep_scenario(strategy, initial, seed):
    return scenario_from_dict(
        {
            "strategy": dict(strategy),
            "users": _SWEEP_USERS,
            "devices": 4,
            "cloud_servers": 3,
            "samples_per_user": 3,
            "enroll_cost_ms_per_sample": 10,
            "runtime_cost_ms": 5,
            "initial_versions": list(initial),
            "releases": [
                {"time_ms": 4000, "version_id": "R1", "server_update_ms": [200, 3000]},
                {"time_ms": 8000, "version_id": "R2", "server_update_ms": [200, 3000]},
                {"time_ms": 12000, "version_id": "R3", "server_update_ms": [200, 3000]},
            ],
            "runtime_arrivals": {"explicit": _sweep_arrivals()},
            "duration_ms": 16000,
            "seed": seed,
        }
    )


_COMBOS = [
    ("device-online", {"deployment": "DEVICE"}, ["V1"]),
    ("server-offline", {"policy": "SINGLE_OFFLINE"}, ["V1"]),
    ("server-online-none", {"dispatch": "RANDOM"}, ["V1"]),
    (
        "server-online-sync",
        {"mitigation": "SYNC_TABLE", "sync_table_period_ms": 400},
        ["V1"],
    ),
    ("server-online-hash", {"mitigation": "HASH_LB"}, ["V1"]),
    (
        "server-online-multi",
        {"mitigation": "MULTI_PROFILE", "dispatch": "RANDOM"},
        ["V1"],
    ),
    ("server-double", {"policy": "DOUBLE"}, ["V1", "V2"]),
    ("hybrid-single", {"deployment": "HYBRID"}, ["V1"]),
    (
        "hybrid-single-handshake",
        {"deployment": "HYBRID", "handshake_period_ms": 600},
        ["V1"],
    ),
    ("hybrid-double", {"deployment": "HYBRID", "policy": "DOUBLE"}, ["V1", "V2"]),
    (
        "hybrid-double-handshake",
        {"deployment": "HYBRID", "policy": "DOUBLE", "handshake_period_ms": 600},
        ["V1", "V2"],
    ),
]

_SEEDS = range(1, 51)


@pytest.fixture(scope="session")
def sweep():
    """name -> seed -> RunResult for the full matrix; errors kept, not raised."""
    results = {}
    errors = []
    for name, strategy, initial in _COMBOS:
        per_seed = {}
        for seed in _SEEDS:
            try:
                per_seed[seed] = run(_sweep_scenario(strategy, initial, seed), logs=True)
            except RunFailedError as exc:
                errors.append((name, seed, exc))
        results[name] = per_seed
    return results, errors


def _verdict(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


# -- criterion 1: every combination runs clean at every seed


def test_criterion_1_no_mismatches_across_the_matrix(sweep):
    results, errors = sweep
    violations = [
        (name, seed)
        for name, per_seed in results.items()
        for seed, result in per_seed.items()
        if result.report.mismatch_violations != 0
    ]
    total = sum(len(per_seed) for per_seed in results.values())
    ok = not errors and not violations and total == len(_COMBOS) * len(_SEEDS)
    _verdict(
        1,
        ok,
        f"zero version mismatches over {total} runs "
        f"({len(errors)} aborted, {len(violations)} with violations)",
    )


# -- criterion 2: the bounce exists, and both mitigations remove it


def test_criterion_2_bounce_appears_and_mitigations_remove_it(sweep):
    results, _ = sweep
    pinned = results["server-online-none"][1].report.bounce_count
    sync_bounces = sum(r.report.bounce_count for r in results["server-online-sync"].values())
    hash_bounces = sum(r.report.bounce_count for r in results["server-online-hash"].values())
    ok = pinned >= 1 and sync_bounces == 0 and hash_bounces == 0
    _verdict(
        2,
        ok,
        f"random dispatch bounces at seed 1 (count {pinned}); "
        f"SYNC_TABLE {sync_bounces} and HASH_LB {hash_bounces} bounces over 50 seeds",
    )


# -- criterion 3: mitigation invariants


def test_criterion_3_mitigation_invariants(sweep):
    results, _ = sweep
    hash_monotone = True
    for result in results["server-online-hash"].values():
        seen = {}
        for _, user, seq in result.profile_puts:
            if seq < seen.get(user, 0):
                hash_monotone = False
            seen[user] = max(seq, seen.get(user, 0))
    multi_bounded = True
    worst = 0
    for result in results["server-online-multi"].values():
        counts = {}
        for ev in result.reenrolls:
            key = (ev.user_id, ev.to_version.id)
            counts[key] = counts.get(key, 0) + 1
        if counts:
            worst = max(worst, max(counts.values()))
        if any(n > 1 for n in counts.values()):
            multi_bounded = False
    ok = hash_monotone and multi_bounded
    _verdict(
        3,
        ok,
        "HASH_LB keeps per-user stored versions non-decreasing; "
        f"MULTI_PROFILE rebuilds each (user, release) at most once (worst {worst})",
    )


# -- criterion 4: offline maintenance window length is exact


def test_criterion_4_offline_window_is_update_plus_serial_reenrolls():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"policy": "SINGLE_OFFLINE"},
                "users": 4,
                "cloud_servers": 2,
                "latency": {
                    "device_frontend": {"base_ms": 4, "jitter_ms": 0},
                    "device_storage": {"base_ms": 4, "jitter_ms": 0},
                    "frontend_cloud": {"base_ms": 3, "jitter_ms": 0},
                    "frontend_db": {"base_ms": 2, "jitter_ms": 0},
                },
                "releases": [
                    {"time_ms": 4000, "version_id": "V2", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": {
                    "explicit": [
                        {"time_ms": 2000, "user_id": "u000"},
                        {"time_ms": 4100, "user_id": "u001"},
                        {"time_ms": 9000, "user_id": "u002"},
                    ]
                },
                "duration_ms": 10000,
            }
        ),
        logs=True,
    )
    by_time = sorted(
        (r for r in result.records if r.kind is RequestKind.RUNTIME),
        key=lambda r: r.submitted,
    )
    enrolls = [r for r in result.records if r.kind is RequestKind.ENROLL]
    # 200ms update, then 4 users x (4x2 db + 2x3 cloud + 30 build) = 376
    ok = (
        result.report.maintenance_ms == 376
        and [r.outcome for r in by_time]
        == [Outcome.OK, Outcome.MAINTENANCE, Outcome.OK]
        and [r.latency_ms for r in by_time] == [23, 8, 23]
        and all(r.latency_ms == 52 for r in enrolls)
        and len(result.reenrolls) == 4
    )
    _verdict(
        4,
        ok,
        f"maintenance window {result.report.maintenance_ms} ms "
        f"(update 200 + 4 users x 44), rejects at 8 ms inside it",
    )


# -- criterion 5: online swap cost lands on exactly one request per user


def test_criterion_5_online_spike_once_per_user():
    times = {
        f"u{i:03d}": [1000 + 10 * i, 6000 + 10 * i, 7000 + 10 * i] for i in range(4)
    }
    result = run(
        scenario_from_dict(
            {
                "users": 4,
                "cloud_servers": 3,
                "strategy": {"dispatch": "RANDOM"},
                "releases": [
                    {"time_ms": 4000, "version_id": "V2", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": {
                    "explicit": [
                        {"time_ms": t, "user_id": u}
                        for u, ts in times.items()
                        for t in ts
                    ]
                },
                "duration_ms": 9000,
            }
        ),
        logs=True,
    )
    by_user = {}
    for rec in result.records:
        if rec.kind is RequestKind.RUNTIME:
            by_user.setdefault(rec.user_id, []).append(rec)
    shape_ok = all(
        [r.latency_ms for r in sorted(recs, key=lambda r: r.submitted)] == [21, 53, 21]
        for recs in by_user.values()
    )
    ok = shape_ok and len(by_user) == 4 and result.report.total_reenrollments == 4
    _verdict(
        5,
        ok,
        "post-swap latency is 21/53/21 per user: the 30ms rebuild plus two db"
        " hops land on exactly the first request after the swap",
    )


# -- criterion 6: double deployment never blocks and never rebuilds in-path


def test_criterion_6_double_rollout_uninterrupted():
    times = {f"u{i:03d}": list(range(500 + 40 * i, 9500, 400)) for i in range(4)}
    result = run(
        scenario_from_dict(
            {
                "strategy": {"policy": "DOUBLE"},
                "users": 4,
                "cloud_servers": 2,
                "initial_versions": ["V1", "V2"],
                "releases": [
                    {"time_ms": 3000, "version_id": "V3", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": {
                    "explicit": [
                        {"time_ms": t, "user_id": u}
                        for u, ts in times.items()
                        for t in ts
                    ]
                },
                "duration_ms": 10000,
            }
        ),
        logs=True,
    )
    final_ok = all(
        {p.version.id for p in result.world.db.profiles_for(f"u{i:03d}")} == {"V2", "V3"}
        for i in range(4)
    )
    ok = (
        result.report.total_requests["RUNTIME"]["MAINTENANCE"] == 0
        and all(r.reenrollments_in_path == 0 for r in result.records)
        and result.report.availability == 1.0
        and final_ok
    )
    _verdict(
        6,
        ok,
        "rollout finishes with no maintenance answers, no in-path rebuilds,"
        " and every user stored on {V2, V3}",
    )


# -- criterion 7: hybrid staleness, with and without handshakes


def test_criterion_7_hybrid_staleness_and_handshake_cure(sweep):
    results, _ = sweep
    plain = results["hybrid-double"]
    cured = results["hybrid-double-handshake"]
    stale_seen = all(r.report.stale_profile_events >= 1 for r in plain.values())
    stale_cured = sum(r.report.stale_profile_events for r in cured.values())
    ok = stale_seen and stale_cured == 0
    _verdict(
        7,
        ok,
        "two releases leave every unhandshaken device stale at least once; "
        f"600ms handshakes leave {stale_cured} stale answers over 50 seeds",
    )


# -- criterion 8: determinism, including against checked-in traces


def _golden_scenarios():
    return {
        "device_rollout": {
            "strategy": {"deployment": "DEVICE"},
            "users": 4,
            "devices": 2,
            "releases": [{"time_ms": 2000, "version_id": "V2", "download_ms": 500}],
            "runtime_arrivals": {
                "explicit": [
                    {"time_ms": 800, "user_id": "u000"},
                    {"time_ms": 2300, "user_id": "u001"},
                    {"time_ms": 4200, "user_id": "u002"},
                    {"time_ms": 4300, "user_id": "u003"},
                ]
            },
            "duration_ms": 5000,
        },
        "online_bounce": {
            "strategy": {"dispatch": "RANDOM"},
            "users": 4,
            "cloud_servers": 3,
            "releases": [
                {"time_ms": 2000, "version_id": "V2", "server_update_ms": [200, 3000]}
            ],
            "runtime_arrivals": {
                "explicit": [
                    {"time_ms": t, "user_id": f"u{i % 4:03d}"}
                    for i, t in enumerate(range(300, 5800, 120))
                ]
            },
            "duration_ms": 6000,
            "seed": 2,
        },
        "double_rollout": {
            "strategy": {"policy": "DOUBLE"},
            "users": 2,
            "cloud_servers": 2,
            "initial_versions": ["V1", "V2"],
            "releases": [
                {"time_ms": 1500, "version_id": "V3", "server_update_ms": [200, 200]}
            ],
            "runtime_arrivals": {
                "explicit": [
                    {"time_ms": 700, "user_id": "u000"},
                    {"time_ms": 2600, "user_id": "u001"},
                    {"time_ms": 3400, "user_id": "u000"},
                ]
            },
            "duration_ms": 4000,
        },
    }


def test_criterion_8_byte_identical_reruns_and_goldens():
    repeat_ok = True
    for name, data in _golden_scenarios().items():
        first = run(scenario_from_dict(data), trace=True)
        second = run(scenario_from_dict(data), trace=True)
        if (
            report_to_json(first.report) != report_to_json(second.report)
            or first.trace != second.trace
        ):
            repeat_ok = False
    golden_ok = True
    mismatched = []
    for name, data in _golden_scenarios().items():
        result = run(scenario_from_dict(data), trace=True)
        text = "\n".join(result.trace) + "\n"
        frozen = (GOLDENS / f"{name}.trace.tsv").read_text(encoding="utf-8")
        if text != frozen:
            golden_ok = False
            mismatched.append(name)
    ok = repeat_ok and golden_ok
    _verdict(
        8,
        ok,
        "reports and traces are byte-identical across reruns and match the "
        f"checked-in traces ({', '.join(sorted(_golden_scenarios())) if not mismatched else 'drift: ' + ', '.join(mismatched)})",
    )


def test_criterion_8_golden_bounce_is_a_real_bounce():
    # the frozen online trace must actually contain the anomaly it documents
    result = run(scenario_from_dict(_golden_scenarios()["online_bounce"]))
    assert result.report.bounce_count >= 1


# -- criterion 9: the engine is a pure function of its inputs


def test_criterion_9_engine_purity():
    frozen_ok = (
        profile_digest("V2", "u1", (7,)) == 10261338670014762554
        and profile_digest("V3", "u1", (7,)) == 11969827911593221833
        and profile_digest("V1", "u7", (3, 9)) == 2504644850314720542
    )
    rng = random.Random(424242)
    randomized_ok = True
    for i in range(1000):
        model = f"M{rng.randrange(50)}"
        user = f"u{rng.randrange(200):03d}"
        engine = EngineInstance(
            model=VersionId(model, rng.randrange(1, 100)),
            enroll_cost_ms_per_sample=10,
            runtime_cost_ms=5,
        )
        samples = tuple(
            AudioSample(speaker_id=user, duration_ms=1000, seed=rng.randrange(2**32))
            for _ in range(rng.randrange(1, 6))
        )
        profile = engine.enroll(user, samples)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        again = engine.enroll(user, tuple(shuffled))
        if profile.digest != again.digest or profile.digest != profile_digest(
            model, user, tuple(s.seed for s in samples)
        ):
            randomized_ok = False
            break
    ok = frozen_ok and randomized_ok
    _verdict(
        9,
        ok,
        "1000 randomized enrollments are sample-order invariant and match the"
        " frozen digest vectors",
    )
