"""runner.run pauses the cyclic collector and leaves it as it found it.

The pause is sound only while the event loop makes no reference cycles, so
the guard test runs every strategy combination with the collector off and
checks that a full collection, with the world still alive, finds nothing.
A finished world is no cycle either: it is freed as soon as its result is
dropped, with no collection at all.

The report is folded as requests complete. The request records,
re-enrollments and profile writes are kept only with ``logs=True``, and
keeping them changes no report byte.

A run whose clock stops moving (a flow that keeps rescheduling itself in
the same millisecond) trips the progress bound that runner.build derives
from the scenario, and fails instead of hanging; every healthy combination
stays under it on zero-latency links, and a burst of arrivals or releases at
one millisecond raises the bound with the events it queues there. The report agrees with the logs it
was folded from.

runner.build queues the runtime arrivals as a stream fed to the simulator:
it builds no arrival payload, and the run builds one per arrival as the
clock reaches it, ordered by user id as a string, at the times that each
user's own stream draws. Each user's enrollment audio is derived from that
stream, not drawn: it yields the samples that drawing every value gave, and
the arrivals are those of a generator that mixes every draw.

runner.build numbers every version once: the world's initial versions
1..n, and each release after them in file order, which is schedule order,
also for releases at one millisecond. The release event carries that number.

runner.build also picks the world, and only the SYNC_TABLE world carries the
sync-table machinery; only the SINGLE_OFFLINE world keeps a maintenance
window and answers MAINTENANCE. Each world class handles exactly the
message kinds written out here.
"""

import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from test_acceptance import _COMBOS, _sweep_scenario
from test_output_digests import EDGES
from versim.domain import AudioSample, Outcome, UserProfile, VersionId, VersionMismatchError
from versim.engine import EngineInstance, EnrollmentAudio
from versim.kernel import StalledClockError, node_stream
from versim.metrics import report_to_json, summarize
from versim.runner import RunFailedError, build, run
from versim.scenario import ReleaseSpec, load_scenario, scenario_from_dict
from versim import metrics, runner
from versim.strategies.server import SyncTableServerWorld
from versim.strategies.common import USER_STREAM_BASE, RuntimeCtx

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "online_random_bounce.json"


@pytest.fixture
def collector():
    """Restores the collector's state after the test, whatever it did."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _trip_on_first_recognize(monkeypatch):
    def recognize(self, profile):
        raise VersionMismatchError("injected mismatch")

    monkeypatch.setattr(EngineInstance, "recognize", recognize)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(collector, monkeypatch, enabled):
    original = EngineInstance.recognize
    seen = []

    def recognize(self, profile):
        seen.append(gc.isenabled())
        return original(self, profile)

    monkeypatch.setattr(EngineInstance, "recognize", recognize)
    (gc.enable if enabled else gc.disable)()
    run(load_scenario(str(SCENARIO)))
    assert seen and not any(seen)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_run_leaves_the_collector_as_it_found_it(collector, monkeypatch, enabled):
    _trip_on_first_recognize(monkeypatch)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RunFailedError, match="injected mismatch"):
        run(load_scenario(str(SCENARIO)))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_event_loop_makes_no_reference_cycles(collector, name, strategy, initial):
    scenario = _sweep_scenario(strategy, initial, 1)
    gc.collect()
    gc.disable()
    sim, world, log = build(scenario, logs=True)
    sim.run_until(scenario.duration_ms)
    assert gc.collect() == 0
    assert log.records and world.sim is sim


SYNC_TABLE_KINDS = {"sync-tick", "sync-probe", "sync-reply", "job-rejected", "dispatch-retry"}


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_only_sync_table_builds_the_sync_table_world(name, strategy, initial):
    sync_table = strategy.get("mitigation") == "SYNC_TABLE"
    sim, world, log = build(_sweep_scenario(strategy, initial, 1))
    assert (type(world) is SyncTableServerWorld) is sync_table
    assert SYNC_TABLE_KINDS & set(world._handlers) == (SYNC_TABLE_KINDS if sync_table else set())


# the message kinds each world handles, written out: a renamed or lost handler
# changes its world's set
_CLOUD_KINDS = {
    "enroll-arrival", "enroll-request", "enroll-job", "enroll-job-done", "enroll-response",
    "runtime-arrival", "runtime-request", "recognize-job", "recognize-job-done",
    "runtime-response", "release", "server-update-done",
}
_SERVER_KINDS = _CLOUD_KINDS | {
    "db-store-audio", "db-store-ack", "db-fetch", "db-fetch-reply", "db-put-profile", "db-put-ack",
}
_HYBRID_KINDS = _CLOUD_KINDS | {
    "retry-signal", "retry-needed", "handshake-tick", "handshake-request", "handshake-reply",
}
HANDLED_KINDS = {
    "DeviceWorld": {
        "enroll-arrival", "runtime-arrival", "release", "notify-release", "download-done",
        "device-task-done", "device-reenroll-done",
    },
    "HybridSingleWorld": _HYBRID_KINDS,
    "HybridDoubleWorld": _HYBRID_KINDS,
    "OnlineServerWorld": _SERVER_KINDS,
    "MultiProfileServerWorld": _SERVER_KINDS,
    "OfflineServerWorld": _SERVER_KINDS,
    "DoubleServerWorld": _SERVER_KINDS | {"sweep-step"},
    "SyncTableServerWorld": _SERVER_KINDS | SYNC_TABLE_KINDS,
}


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_each_world_handles_its_pinned_kinds(name, strategy, initial):
    sim, world, log = build(_sweep_scenario(strategy, initial, 1))
    assert set(world._handlers) == HANDLED_KINDS[type(world).__name__]


def test_the_combinations_build_every_world_class():
    built = {type(build(_sweep_scenario(s, i, 1))[1]).__name__ for _, s, i in _COMBOS}
    assert built == set(HANDLED_KINDS)


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_each_release_event_carries_the_seq_after_the_initial_versions(name, strategy, initial):
    # two releases at one millisecond, ids out of string order
    releases = [("R9", 1000), ("R1", 1000), ("Q5", 3000)]
    scenario = replace(
        _sweep_scenario(strategy, initial, 1),
        releases=tuple(
            ReleaseSpec(time_ms=t, version_id=v, server_update_ms=(100, 200)) for v, t in releases
        ),
    )
    sim, world, _ = build(scenario)
    assert world.initial == tuple(VersionId(v, i + 1) for i, v in enumerate(initial))
    carried, handle = [], world.handle

    def record(target, payload):
        if payload.kind == "release":
            carried.append(payload.version)
        handle(target, payload)

    world.handle = record
    sim.run_until(scenario.duration_ms)
    n = len(initial)
    assert carried == [VersionId(v, n + i + 1) for i, (v, _) in enumerate(releases)]


@pytest.mark.parametrize("name,strategy,initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_only_the_offline_world_keeps_a_maintenance_window(name, strategy, initial):
    offline = strategy.get("policy") == "SINGLE_OFFLINE"
    result = run(_sweep_scenario(strategy, initial, 1), logs=True)
    world = result.world
    assert not hasattr(getattr(world, "frontend", None), "maintenance")
    assert hasattr(world, "_inflight") is offline
    refused = [r for r in result.records if r.outcome is Outcome.MAINTENANCE]
    assert bool(refused) is offline


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_a_dropped_result_frees_its_world_without_a_collection(collector, name, strategy, initial):
    gc.disable()
    result = run(_sweep_scenario(strategy, initial, 1))
    world = weakref.ref(result.world)
    del result
    assert world() is None


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_keeping_the_logs_changes_no_report_byte(name, strategy, initial):
    scenario = _sweep_scenario(strategy, initial, 1)
    kept = run(scenario, logs=True)
    assert kept.records and kept.profile_puts is not None and kept.reenrolls is not None
    assert report_to_json(run(scenario).report) == report_to_json(kept.report)


def test_a_default_run_keeps_no_logs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a default run built a log entry")

    monkeypatch.setattr(metrics, "RequestRecord", refuse)
    monkeypatch.setattr(metrics, "ReenrollEvent", refuse)
    # one combination that re-enrolls, so each kind of log entry would be made
    result = run(load_scenario(str(SCENARIO)))
    assert result.report.total_reenrollments > 0
    assert (result.records, result.reenrolls, result.profile_puts) == (None, None, None)


def test_runtime_arrivals_are_built_when_the_clock_reaches_them(monkeypatch):
    made = []

    def counting(user_id, device_id, submitted):
        made.append(user_id)
        return RuntimeCtx(user_id, device_id, submitted)

    monkeypatch.setattr(runner, "RuntimeCtx", counting)
    scenario = load_scenario(str(SCENARIO))
    sim, world, log = build(scenario, trace=True)
    assert made == []
    sim.run_until(scenario.duration_ms)
    ran = [line.split("\t")[4] for line in sim.trace if "\truntime-arrival\t" in line]
    assert len(ran) > 0
    assert [f"user={user}" for user in made] == ran


def test_one_user_id_string_serves_the_whole_run():
    scenario = load_scenario(str(SCENARIO))
    sim, world, log = build(scenario)
    ids = {id(user) for user in world.user_ids}
    seen = []

    def handler(target, payload):
        if payload.kind == "enroll-arrival":
            seen.extend(sample.speaker_id for sample in payload.audio)
        if payload.kind in ("enroll-arrival", "runtime-arrival"):
            seen.append(payload.user_id)
        world.handle(target, payload)

    sim.handler = handler
    sim.run_until(scenario.duration_ms)
    assert len(seen) > scenario.users * (scenario.samples_per_user + 2)
    assert {id(user) for user in seen} == ids


def _runtime_arrivals_seen(scenario):
    """(time, user) of each runtime arrival, in the order the run takes them."""
    sim, world, log = build(scenario)
    seen = []

    def handler(target, payload):
        if payload.kind == "runtime-arrival":
            seen.append((sim.now, payload.user_id))
        world.handle(target, payload)

    sim.handler = handler
    sim.run_until(scenario.duration_ms)
    return seen


def test_runtime_arrivals_run_in_user_id_order_with_each_users_draws():
    explicit = _runtime_arrivals_seen(scenario_from_dict(EDGES["edge-arrival-order/1"]))
    assert explicit == [
        (5, "u042"), (5, "u042"), (5, "u100"), (5, "u1000"), (5, "u999"), (9, "u042"),
    ]
    # a Poisson user's stream draws its enrollment samples, then per arrival
    # one gap and one draw that nothing reads
    scenario = load_scenario(str(SCENARIO))
    poisson = _runtime_arrivals_seen(scenario)
    assert poisson == sorted(poisson)
    rate = scenario.runtime_arrivals.poisson_rate_per_user_per_s
    draw = node_stream(scenario.seed, USER_STREAM_BASE + 1).next_u64
    for _ in range(scenario.samples_per_user):
        draw()
    expected, t = [], 0
    while True:
        t += int(-math.log(1.0 - (draw() >> 11) * 2.0**-53) / rate * 1000.0)
        if t > scenario.duration_ms:
            break
        expected.append(t)
        draw()
    assert len(expected) > 2
    assert [at for at, user in poisson if user == "u001"] == expected


def _drawn_workload(scenario):
    """Reference for ``runner._generate_workload`` and the enrollment audio:
    every value of each user's stream is drawn through the full mix, the
    discarded ones included. The users' enrollment samples as tuples, and the
    packed arrival ints, sorted."""
    users = sorted(f"u{i:03d}" for i in range(scenario.users))
    spec = scenario.runtime_arrivals
    samples, arrivals = {}, []
    for rank, user in enumerate(users):
        draw = node_stream(scenario.seed, USER_STREAM_BASE + int(user[1:])).next_u64
        samples[user] = tuple(
            AudioSample(user, 1000, draw()) for _ in range(scenario.samples_per_user)
        )
        if spec.explicit is not None:
            times = [a.time_ms for a in spec.explicit if a.user_id == user]
        else:
            times, t = [], 0
            while True:
                u = 1.0 - (draw() >> 11) * 2.0**-53
                t += int(-math.log(u) / spec.poisson_rate_per_user_per_s * 1000.0)
                if t > scenario.duration_ms:
                    break
                times.append(t)
                draw()
        arrivals += [t << 64 | rank << 32 | i for i, t in enumerate(times)]
    return samples, sorted(arrivals)


def _enrollment_audio(scenario):
    """The world, and user -> the audio its enrollment arrival carries."""
    sim, world, log = build(scenario)
    audio = {}

    def handler(target, payload):
        if payload.kind == "enroll-arrival":
            audio[payload.user_id] = payload.audio

    sim.handler = handler
    sim.run_until(0)
    return world, audio


_DERIVED = [
    replace(load_scenario(str(SCENARIO)), seed=seed, users=40, devices=8) for seed in (7, 2**64 - 3)
] + [scenario_from_dict(EDGES["edge-arrival-order/1"])]


@pytest.mark.parametrize("scenario", _DERIVED, ids=["poisson-7", "poisson-max", "explicit"])
def test_derived_enrollment_audio_is_what_drawing_every_value_gave(scenario):
    drawn, arrivals = _drawn_workload(scenario)
    world, audio = _enrollment_audio(scenario)
    assert set(audio) == set(drawn) == set(world.user_ids)
    version = VersionId("V9", 9)
    for user, samples in drawn.items():
        value = audio[user]
        assert isinstance(value, EnrollmentAudio)
        assert len(value) == scenario.samples_per_user
        assert tuple(value) == tuple(value) == samples
        derived, explicit = UserProfile(user, version, value), UserProfile(user, version, samples)
        assert derived.digest == explicit.digest
        assert derived == explicit
        assert hash(derived) == hash(explicit)
    assert runner._generate_workload(scenario, world.user_ids)[0] == arrivals


def test_every_store_and_profile_shares_the_users_one_audio_value():
    scenario = load_scenario(str(SCENARIO))
    sim, world, log = build(scenario)
    audio = {}

    def handler(target, payload):
        if payload.kind == "enroll-arrival":
            audio[payload.user_id] = payload.audio
        world.handle(target, payload)

    sim.handler = handler
    sim.run_until(scenario.duration_ms)
    assert set(world.db.audio) == set(world.db.profiles) == set(audio) == set(world.user_ids)
    for user, profiles in world.db.profiles.items():
        assert world.db.audio[user] is audio[user]
        assert profiles and all(p.audio is audio[user] for p in profiles)


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_the_report_agrees_with_the_kept_logs(name, strategy, initial):
    result = run(_sweep_scenario(strategy, initial, 1), logs=True)
    report, reenrolls = result.report, result.reenrolls
    assert report.total_reenrollments == len(reenrolls)
    assert report.bounce_count == sum(e.to_version.seq < e.from_seq for e in reenrolls)
    from_records = summarize(result.records)
    assert from_records.total_requests == report.total_requests
    assert from_records.latency_ms == report.latency_ms


def zero_link_scenario(strategy, initial, users, servers):
    """Every link at 0 ms and no engine cost, so a flow that goes round
    without waiting keeps the clock where it is."""
    zero = {"base_ms": 0, "jitter_ms": 0}
    return {
        "strategy": dict(strategy),
        "users": users,
        "devices": 2,
        "cloud_servers": servers,
        "enroll_cost_ms_per_sample": 0,
        "runtime_cost_ms": 0,
        "initial_versions": list(initial),
        "latency": {
            link: zero
            for link in ("device_frontend", "device_storage", "frontend_cloud", "frontend_db")
        },
        "releases": [
            {"time_ms": t, "version_id": v, "download_ms": 1, "server_update_ms": [200, 3000]}
            for t, v in ((2000, "R2"), (5000, "R3"))
        ],
        "runtime_arrivals": {"poisson_rate_per_user_per_s": 1.0},
        "duration_ms": 10_000,
        "seed": 1,
    }


_STALLING = [c for c in _COMBOS if c[0] in ("hybrid-single", "hybrid-single-handshake")]
_HEALTHY = [c for c in _COMBOS if c not in _STALLING]


@pytest.mark.parametrize("name, strategy, initial", _STALLING, ids=[c[0] for c in _STALLING])
def test_a_stalled_clock_fails_the_run(name, strategy, initial):
    # HYBRID single's retry loop re-enrolls and retries at one millisecond
    # forever on zero-latency links; the bound, 64 x (20 + 2 + 2) plus 64
    # for the one event queued there, ends it
    scenario = scenario_from_dict(zero_link_scenario(strategy, initial, 20, 2))
    with pytest.raises(RunFailedError, match="clock stalled") as failed:
        run(scenario)
    assert isinstance(failed.value.cause, StalledClockError)
    assert "1600 events ran there" in str(failed.value)


@pytest.mark.parametrize("name, strategy, initial", _HEALTHY, ids=[c[0] for c in _HEALTHY])
def test_healthy_runs_on_zero_latency_links_stay_under_the_bound(name, strategy, initial):
    result = run(scenario_from_dict(zero_link_scenario(strategy, initial, 200, 16)))
    assert result.report.total_requests["RUNTIME"]["OK"] > 0


@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_a_burst_at_one_millisecond_raises_its_own_bound(name, strategy, initial):
    # 600 arrivals for one user at t=1000 and 300 releases at t=2000 put far
    # more than 64 x (4 + 2 + 2) events in one millisecond; the events queued
    # there raise the bound, so the run finishes
    scenario = scenario_from_dict(
        {
            "strategy": dict(strategy),
            "users": 4,
            "devices": 2,
            "cloud_servers": 2,
            "initial_versions": list(initial),
            "releases": [
                {"time_ms": 2000, "version_id": f"R{i}", "download_ms": 5,
                 "server_update_ms": [200, 200]}
                for i in range(2, 302)
            ],  # fmt: skip
            "runtime_arrivals": {"explicit": [{"time_ms": 1000, "user_id": "u000"}] * 600},
            "duration_ms": 60_000,
        }
    )
    assert run(scenario).report.total_requests["RUNTIME"]["OK"] == 600
