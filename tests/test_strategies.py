"""End-to-end behavior of each deployment/policy pairing on small scenarios.

Latency assertions are hop-exact: with jitter 0 every chain is a fixed sum of
link costs and engine work, so the numbers below are computed from the
scenario, not observed and pasted back.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from test_acceptance import _COMBOS, _sweep_scenario
from test_output_digests import EDGES
from versim.domain import Outcome
from versim.kernel import Simulator
from versim.metrics import RequestKind
from versim.runner import build, run
from versim.scenario import load_scenario, scenario_from_dict
from versim.strategies import common, server
from versim.strategies.common import EnrollCtx, HandshakeCtx, RuntimeCtx

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


def _runtime_records(result):
    return [r for r in result.records if r.kind is RequestKind.RUNTIME]


def _enroll_records(result):
    return [r for r in result.records if r.kind is RequestKind.ENROLL]


def _arrivals(times_by_user):
    return {
        "explicit": [
            {"time_ms": t, "user_id": user}
            for user, times in times_by_user.items()
            for t in times
        ]
    }


# -- device deployment


def test_device_requests_are_local():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "DEVICE"},
                "users": 1,
                "devices": 1,
                "runtime_arrivals": _arrivals({"u000": [1000]}),
                "duration_ms": 2000,
            }
        ),
        logs=True,
    )
    (enroll,) = _enroll_records(result)
    (runtime,) = _runtime_records(result)
    assert enroll.latency_ms == 30  # 3 samples x 10ms, no network
    assert runtime.latency_ms == 5
    assert result.report.availability == 1.0


def test_device_defers_requests_during_update_window():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "DEVICE"},
                "users": 1,
                "devices": 1,
                "releases": [
                    {"time_ms": 2000, "version_id": "V2", "download_ms": 1000}
                ],
                "runtime_arrivals": _arrivals({"u000": [1000, 2500, 4000]}),
                "duration_ms": 5000,
            }
        ),
        logs=True,
    )
    latencies = sorted(r.latency_ms for r in _runtime_records(result))
    # notify lands at 2005 (device_storage 5), download runs to 3005, the one
    # owner re-enrolls for 30, so the 2500 arrival waits until 3035 + 5 work
    assert latencies == [5, 5, 540]
    assert len(result.reenrolls) == 1
    assert result.report.bounce_count == 0
    assert all(r.outcome is Outcome.OK for r in result.records)


def test_device_runtime_task_straddling_the_model_switch_is_clean():
    # the 1990 task runs to 2040; notify lands at 2001, so the 10 ms download
    # switches the model at 2011 while the task is in flight. It scores with
    # the engine and profile it started with.
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "DEVICE"},
                "users": 1,
                "devices": 1,
                "runtime_cost_ms": 50,
                "latency": {"device_storage": {"base_ms": 1, "jitter_ms": 0}},
                "releases": [
                    {"time_ms": 2000, "version_id": "V2", "download_ms": 10}
                ],
                "runtime_arrivals": _arrivals({"u000": [1990]}),
                "duration_ms": 5000,
            }
        ),
        logs=True,
    )
    (runtime,) = _runtime_records(result)
    assert runtime.latency_ms == 50
    assert [e.to_version.id for e in result.reenrolls] == ["V2"]


def test_device_update_window_takes_a_second_notice_and_holds_a_request():
    # R1 and R2 are registered by 101, so the R1 notice at 105 starts a
    # download of R2 itself (to 305). The R2 notice at 106 lands mid-update,
    # and the recheck when the window closes finds the device current. Each
    # device re-enrolls its two owners (30 ms each) to 365, so u001's 150
    # request is held to 365 plus 5 ms work. u000's t=0 request comes before
    # its enrollment is done, so the device answers it at once.
    lines: list[str] = []
    result = run(scenario_from_dict(EDGES["edge-device-update-window/1"]), trace=lines, logs=True)
    records = sorted(_runtime_records(result), key=lambda r: r.submitted)
    assert [(r.user_id, r.submitted, r.completed) for r in records] == [
        ("u000", 0, 0),
        ("u001", 150, 370),
        ("u002", 400, 405),
    ]
    assert all(r.outcome is Outcome.OK for r in result.records)
    kinds = [line.split("\t")[3:] for line in lines]
    assert kinds.count(["notify-release", "version=R1"]) == 2
    assert kinds.count(["notify-release", "version=R2"]) == 2
    assert [k for k in kinds if k[0] == "download-done"] == [["download-done", "version=R2"]] * 2
    assert [(e.from_seq, e.to_version.id) for e in result.reenrolls] == [(1, "R2")] * 4


def test_device_enroll_task_keeps_the_engine_it_started_with():
    # the t=0 enroll tasks run to 30 on V1; R1 and R2 land at 0 and the 1 ms
    # download switches both devices to R2 at 1, mid-task. Each task still
    # makes a V1 profile, so the re-enroll pass moves every user V1 -> R2.
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "DEVICE"},
                "users": 6,
                "devices": 2,
                "latency": {"device_storage": {"base_ms": 0, "jitter_ms": 0}},
                "releases": [
                    {"time_ms": 0, "version_id": "R1", "download_ms": 1},
                    {"time_ms": 0, "version_id": "R2", "download_ms": 1},
                ],
                "runtime_arrivals": _arrivals({}),
                "duration_ms": 1000,
            }
        ),
        logs=True,
    )
    assert [(e.from_seq, e.to_version.id) for e in result.reenrolls] == [(1, "R2")] * 6
    assert [seq for _, _, seq in result.profile_puts] == [1] * 6 + [3] * 6


_DEVICE_TABLE_RUNS = {
    "device-rollout": load_scenario(str(SCENARIOS[0].parent / "device_rollout.json")),
    "edge-device-update-window": scenario_from_dict(EDGES["edge-device-update-window/1"]),
}


@pytest.mark.parametrize("name", sorted(_DEVICE_TABLE_RUNS))
def test_device_models_switch_at_download_done_and_no_task_starts_in_a_window(monkeypatch, name):
    """After every event, a device's entry in ``models`` has changed only if
    the event was its own download-done, and then to that notice's version.
    No runtime task starts on a device in ``_window``: a request that
    arrives while the window is open starts once it has closed."""
    scenario = _DEVICE_TABLE_RUNS[name]
    sim, world, _ = build(scenario)
    handle, schedule_in = world.handle, Simulator.schedule_in
    downloads, switches, deferred, started = 0, [], [], []

    def schedule_and_check(simulator, delay, target, payload):
        if payload.kind == "device-task-done" and payload.flow == "runtime":
            assert payload.device_id not in world._window, payload
            started.append(payload)
        schedule_in(simulator, delay, target, payload)

    def handle_and_check(target, payload):
        nonlocal downloads
        before = dict(world.models)
        handle(target, payload)
        for device_id, model in world.models.items():
            if model != before[device_id]:
                assert payload.kind == "download-done", (device_id, payload)
                assert target == world.device_targets[device_id]
                assert model == payload.version
                switches.append(device_id)
        downloads += payload.kind == "download-done"
        if payload.kind == "runtime-arrival" and payload.device_id in world._window:
            deferred.append(payload)

    monkeypatch.setattr(Simulator, "schedule_in", schedule_and_check)
    world.handle = handle_and_check
    sim.run_until(scenario.duration_ms)
    assert sorted(switches) == world.device_ids and downloads == len(switches)
    assert deferred and all(any(ctx is s for s in started) for ctx in deferred)
    assert not world._window


# -- engine costs: every timing test above runs at the default 3 samples x
# 10 ms and 5 ms; these pin the hops at other costs, so an enrollment is
# 4 x 7 = 28 ms of compute and a recognition 9 ms


def _costly(strategy, times, release):
    return scenario_from_dict(
        {
            "strategy": strategy,
            "users": 1,
            "devices": 1,
            "cloud_servers": 1,
            "samples_per_user": 4,
            "enroll_cost_ms_per_sample": 7,
            "runtime_cost_ms": 9,
            "latency": {
                "device_frontend": {"base_ms": 3, "jitter_ms": 0},
                "device_storage": {"base_ms": 4, "jitter_ms": 0},
                "frontend_cloud": {"base_ms": 2, "jitter_ms": 0},
                "frontend_db": {"base_ms": 1, "jitter_ms": 0},
            },
            "releases": [{"time_ms": 2000, "version_id": "V2", **release}],
            "runtime_arrivals": _arrivals({"u000": times}),
            "duration_ms": 4000,
        }
    )


def test_device_tasks_and_reenrollment_charge_the_scenario_costs():
    # the notice lands at 2004 and the download at 2104; the one owner
    # re-enrolls for 28 ms to 2132, and the 2050 request is held to then
    result = run(
        _costly({"deployment": "DEVICE"}, [1000, 2050], {"download_ms": 100}), logs=True
    )
    assert [r.latency_ms for r in _enroll_records(result)] == [28]
    assert [(r.submitted, r.completed) for r in _runtime_records(result)] == [
        (1000, 1009),
        (2050, 2132 + 9),
    ]
    assert [e.at for e in result.reenrolls] == [2132]


def test_server_online_repair_and_offline_bulk_pass_charge_the_scenario_costs():
    # enroll: device 3, store-audio 1 + 1, job 2 + 28 + 2, put 1 + 1, device 3
    update = {"server_update_ms": [100, 100]}
    online = run(_costly({}, [1000, 3000], update), logs=True)
    assert [r.latency_ms for r in _enroll_records(online)] == [3 + 2 + 32 + 2 + 3]
    # runtime: device 3, fetch 1 + 1, job 2 + 9 + 2, device 3; the repair
    # after the swap adds 28 ms to the job and a put of 1 + 1
    records = sorted(_runtime_records(online), key=lambda r: r.submitted)
    assert [r.latency_ms for r in records] == [21, 21 + 28 + 2]
    # logged when the job reaches the server
    assert [e.at for e in online.reenrolls] == [3000 + 3 + 2 + 2]
    # the window opens at 2000 and the update runs to 2100; the bulk pass
    # fetches (1 + 1), enrolls (2 + 28 + 2) and puts (1 + 1) the one user
    offline = run(_costly({"policy": "SINGLE_OFFLINE"}, [1000], update), logs=True)
    assert [e.at for e in offline.reenrolls] == [2100 + 2 + 32 + 2]
    assert offline.report.maintenance_ms == 100 + 36


# -- server, single version, online swap


def test_server_baseline_latencies():
    result = run(
        scenario_from_dict(
            {
                "users": 2,
                "runtime_arrivals": _arrivals({"u000": [1000], "u001": [1200]}),
                "duration_ms": 3000,
            }
        ),
        logs=True,
    )
    assert [r.latency_ms for r in _enroll_records(result)] == [48, 48]
    assert [r.latency_ms for r in _runtime_records(result)] == [21, 21]


def test_online_swap_spikes_first_request_per_user_once():
    times = {f"u{i:03d}": [1000 + 10 * i, 6000 + 10 * i, 7000 + 10 * i] for i in range(4)}
    result = run(
        scenario_from_dict(
            {
                "users": 4,
                "cloud_servers": 3,
                "strategy": {"dispatch": "RANDOM"},
                "releases": [
                    {"time_ms": 4000, "version_id": "V2", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": _arrivals(times),
                "duration_ms": 9000,
            }
        ),
        logs=True,
    )
    by_user = {}
    for rec in _runtime_records(result):
        by_user.setdefault(rec.user_id, []).append(rec)
    for user, recs in by_user.items():
        recs.sort(key=lambda r: r.submitted)
        assert [r.latency_ms for r in recs] == [21, 53, 21]
        assert [r.reenrollments_in_path for r in recs] == [0, 1, 0]
    assert result.report.total_reenrollments == 4
    assert result.report.availability == 1.0
    assert result.report.mismatch_violations == 0


# -- server, single version, offline swap


def test_offline_swap_rejects_during_maintenance():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"policy": "SINGLE_OFFLINE"},
                "users": 1,
                "cloud_servers": 1,
                "releases": [
                    {"time_ms": 2000, "version_id": "V2", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": _arrivals({"u000": [1000, 2100, 3000]}),
                "duration_ms": 4000,
            }
        ),
        logs=True,
    )
    records = sorted(_runtime_records(result), key=lambda r: r.submitted)
    assert [r.outcome for r in records] == [Outcome.OK, Outcome.MAINTENANCE, Outcome.OK]
    assert records[1].latency_ms == 10  # bounced at the frontend, one round trip
    assert result.report.availability == 2 / 3
    assert result.report.maintenance_ms > 0
    assert len(result.reenrolls) == 1


def test_offline_window_length_is_update_plus_serial_reenrolls():
    zero = {"base_ms": 0, "jitter_ms": 0}
    for lanes, servers, window_ms in ((1, 1, 500), (3, 1, 320), (4, 2, 290), (12, 3, 230)):
        lines: list[str] = []
        result = run(
            scenario_from_dict(
                {
                    "strategy": {"policy": "SINGLE_OFFLINE"},
                    "users": 10,
                    "devices": 2,
                    "cloud_servers": servers,
                    "reenroll_parallelism": lanes,
                    "latency": {
                        "device_frontend": zero,
                        "device_storage": zero,
                        "frontend_cloud": zero,
                        "frontend_db": zero,
                    },
                    "releases": [
                        {"time_ms": 2000, "version_id": "V2", "server_update_ms": [200, 200]}
                    ],
                    "runtime_arrivals": _arrivals({"u000": [1000]}),
                    "duration_ms": 4000,
                }
            ),
            trace=lines,
            logs=True,
        )
        # 200ms update, then 10 users x (30ms re-enroll), min(lanes, 10) at a time
        assert window_ms == 200 + -(-10 // min(lanes, 10)) * 30
        assert result.report.maintenance_ms == window_ms, (lanes, servers)
        assert len(result.reenrolls) == 10
        # lane i sends its jobs to server i modulo the fleet
        bulk_servers = {
            line.split("server=")[1].split()[0]
            for line in lines
            if "\tenroll-job\t" in line and "for=bulk" in line
        }
        assert bulk_servers == {f"s{i:02d}" for i in range(min(lanes, servers))}, (lanes, servers)


def test_offline_rollout_waits_for_requests_admitted_before_the_release():
    # the 990 request is admitted at 995 and still fetching at the 1000
    # release; the update waits until it answers at 1604, so its V1 job never
    # meets a V2 engine. The window then runs the 10 ms update and one
    # re-enrollment (four 300 ms db hops, 2 + 30 + 2 on the cloud) to 2848.
    result = run(
        scenario_from_dict(
            {
                "strategy": {"policy": "SINGLE_OFFLINE"},
                "users": 1,
                "devices": 1,
                "cloud_servers": 1,
                "latency": {"frontend_db": {"base_ms": 300, "jitter_ms": 0}},
                "releases": [
                    {"time_ms": 1000, "version_id": "V2", "server_update_ms": [10, 10]}
                ],
                "runtime_arrivals": _arrivals({"u000": [990]}),
                "duration_ms": 4000,
            }
        ),
        logs=True,
    )
    assert result.report.maintenance_ms == 1848
    assert [r.outcome for r in result.records] == [Outcome.OK, Outcome.OK]
    assert [e.to_version.id for e in result.reenrolls] == ["V2"]


def test_offline_window_open_at_the_horizon_counts_to_the_horizon():
    # the window opens at 900 and the 500 ms update runs past the 1000 ms
    # horizon: maintenance_ms counts 1000 - 900, and the 950 request is refused
    result = run(scenario_from_dict(EDGES["edge-server-offline-open-at-horizon/1"]), logs=True)
    assert result.report.maintenance_ms == 100
    assert [r.outcome for r in _runtime_records(result)] == [Outcome.MAINTENANCE]
    assert result.reenrolls == []


# -- server, double version


def test_double_rollout_stays_available_with_no_inline_reenrolls():
    times = {f"u{i:03d}": list(range(500 + 40 * i, 8000, 600)) for i in range(4)}
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
                "runtime_arrivals": _arrivals(times),
                "duration_ms": 9000,
            }
        ),
        logs=True,
    )
    assert result.report.availability == 1.0
    assert result.report.total_requests["RUNTIME"]["MAINTENANCE"] == 0
    assert result.report.stale_profile_events == 0
    assert all(r.reenrollments_in_path == 0 for r in result.records)
    for user in (f"u{i:03d}" for i in range(4)):
        held = {p.version.id for p in result.world.db.profiles.get(user, ())}
        assert held == {"V2", "V3"}
    assert result.report.bounce_count == 0


# -- hybrid, single version


def test_hybrid_baseline_and_retry_after_swap():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "HYBRID"},
                "users": 1,
                "devices": 1,
                "cloud_servers": 1,
                "releases": [
                    {"time_ms": 3000, "version_id": "V2", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": _arrivals({"u000": [1000, 6000, 7000]}),
                "duration_ms": 9000,
            }
        ),
        logs=True,
    )
    records = sorted(_runtime_records(result), key=lambda r: r.submitted)
    # 19 = 2x5 device-frontend + 2x2 frontend-cloud + 5ms work (profiles ride
    # along, no db hops); the retry repeats the round trip three times and
    # adds the 30ms re-enroll
    assert [r.latency_ms for r in records] == [19, 77, 19]
    assert [r.reenrollments_in_path for r in records] == [0, 1, 0]
    assert len(_enroll_records(result)) == 1  # the in-path rebuild is not a request
    assert result.report.total_reenrollments == 1


def test_hybrid_handshake_refreshes_device_before_traffic():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "HYBRID", "handshake_period_ms": 600},
                "users": 1,
                "devices": 1,
                "cloud_servers": 1,
                "releases": [
                    {"time_ms": 3000, "version_id": "V2", "server_update_ms": [200, 200]}
                ],
                "runtime_arrivals": _arrivals({"u000": [1000, 5000]}),
                "duration_ms": 6000,
            }
        ),
        logs=True,
    )
    records = sorted(_runtime_records(result), key=lambda r: r.submitted)
    # the 3600 handshake sees V2 and rebuilds in the background, so the 5000
    # arrival pays no retry
    assert [r.latency_ms for r in records] == [19, 19]
    assert all(r.reenrollments_in_path == 0 for r in records)
    handshakes = [r for r in result.records if r.kind is RequestKind.HANDSHAKE]
    assert handshakes and all(r.latency_ms == 10 for r in handshakes)
    assert result.report.total_reenrollments == 1
    assert len(_enroll_records(result)) == 2  # initial plus background rebuild


# -- hybrid, double version


def test_hybrid_double_goes_stale_after_two_releases():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "HYBRID", "policy": "DOUBLE"},
                "users": 1,
                "devices": 1,
                "cloud_servers": 2,
                "initial_versions": ["V1", "V2"],
                "releases": [
                    {"time_ms": 3000, "version_id": "V3", "server_update_ms": [200, 200]},
                    {"time_ms": 6000, "version_id": "V4", "server_update_ms": [200, 200]},
                ],
                "runtime_arrivals": _arrivals({"u000": [1000, 4000, 8000, 9000]}),
                "duration_ms": 10000,
            }
        ),
        logs=True,
    )
    records = sorted(_runtime_records(result), key=lambda r: r.submitted)
    outcomes = [r.outcome for r in records]
    # one release leaves the overlap intact; the second one empties it
    assert outcomes == [Outcome.OK, Outcome.OK, Outcome.STALE_PROFILES, Outcome.OK]
    assert records[2].latency_ms == 10  # refused at the frontend
    assert result.report.stale_profile_events == 1
    # the stale answer triggers one background rebuild to the served pair
    device = result.world.devices["d00"]
    assert {p.version.id for p in device.profiles.get("u000", ())} == {"V3", "V4"}


def test_hybrid_double_dedupes_concurrent_stale_rebuilds():
    result = run(
        scenario_from_dict(
            {
                "strategy": {"deployment": "HYBRID", "policy": "DOUBLE"},
                "users": 1,
                "devices": 1,
                "cloud_servers": 2,
                "initial_versions": ["V1", "V2"],
                "releases": [
                    {"time_ms": 3000, "version_id": "V3", "server_update_ms": [200, 200]},
                    {"time_ms": 6000, "version_id": "V4", "server_update_ms": [200, 200]},
                ],
                "runtime_arrivals": _arrivals({"u000": [8000, 8005]}),
                "duration_ms": 10000,
            }
        ),
        logs=True,
    )
    stale = [r for r in _runtime_records(result) if r.outcome is Outcome.STALE_PROFILES]
    assert len(stale) == 2
    # both answers ask for a rebuild; only one is in flight at a time
    assert len(_enroll_records(result)) == 2  # initial enrollment plus one rebuild


def test_hybrid_background_enrollment_starts_once_per_user_while_in_flight():
    sim, world, _ = build(
        scenario_from_dict(
            {
                "strategy": {"deployment": "HYBRID", "policy": "DOUBLE"},
                "users": 2,
                "devices": 2,
                "cloud_servers": 2,
                "initial_versions": ["V1", "V2"],
                "runtime_arrivals": {"explicit": []},
                "duration_ms": 1000,
            }
        )
    )
    sim.run_until(1000)  # both users have enrolled
    started = []
    world._request_enroll = started.append
    served = world.served_versions
    for _ in range(2):
        for user in ("u000", "u001"):
            world._start_background_enroll(world.device_of(user), user, served)
    assert [ctx.user_id for ctx in started] == ["u000", "u001"]
    assert started[0].plan is served  # the two served versions, not a copy
    # the response reaches the device and ends the flight; the next start goes out
    world._store_produced(started[0])
    world._start_background_enroll("d00", "u000", served)
    assert [ctx.user_id for ctx in started] == ["u000", "u001", "u000"]


# -- flows share the stores' tuples


def test_flow_contexts_start_with_empty_tuples():
    ctx = EnrollCtx("u000", "d00", 0, ())
    assert ctx.plan == () and ctx.produced == ()
    assert RuntimeCtx("u000", "d00", 0).profiles == ()


@pytest.mark.parametrize(
    "strategy, kind",
    [({}, "db-fetch-reply"), ({"deployment": "HYBRID"}, "runtime-request")],
)
def test_a_runtime_request_holds_the_store_tuple_itself(strategy, kind):
    """The runtime ctx that a fetch reply fills holds the database's own
    tuple; a hybrid request holds the device's."""
    sim, world, _ = build(
        scenario_from_dict(
            {
                "strategy": strategy,
                "users": 1,
                "devices": 1,
                "runtime_arrivals": _arrivals({"u000": [1000, 2000]}),
                "duration_ms": 3000,
            }
        )
    )
    handle, checked = world.handle, []

    def stored_profiles():
        if kind == "db-fetch-reply":
            return world.db.profiles.get("u000", ())
        return world.devices["d00"].profiles.get("u000", ())

    def handle_and_check(target, payload):
        # read before the handler runs: a flow context, which is the message
        # of every hop, carries its next hop's kind once the handler sends it on
        hop = payload.kind
        handle(target, payload)
        if hop == kind:
            stored = stored_profiles()
            assert type(stored) is tuple and len(stored) == 1
            assert payload.profiles is stored
            checked.append(payload)

    world.handle = handle_and_check
    sim.run_until(3000)
    assert len(checked) == 2


_FLOW_CONTEXTS = (EnrollCtx, RuntimeCtx, HandshakeCtx, common.SyncProbe, server._SweepCtx)


def _flow_of(payload):
    """The flow context an event moves: the payload, which is the message of
    every hop of its flow."""
    return payload if type(payload) in _FLOW_CONTEXTS else None


_QUEUE_RUNS = [
    pytest.param(strategy, initial, servers, seed, id=f"{name}-{servers}s-seed{seed}")
    for name, strategy, initial in _COMBOS
    for servers in (3, 16)
    for seed in (1, 2)
]


def _flows_queued_twice(monkeypatch, scenario) -> list[str]:
    """Run ``scenario`` and return the kind of every event that queued a
    flow context already queued for another event."""
    sim, world, _ = build(scenario)
    queued, twice = set(), []
    send, schedule, handle = Simulator.send, Simulator.schedule, world.handle

    def note(payload):
        ctx = _flow_of(payload)
        if ctx is not None:
            if id(ctx) in queued:
                twice.append(payload.kind)
            queued.add(id(ctx))

    def note_send(self, link, rng, target, payload, extra=0):
        note(payload)
        send(self, link, rng, target, payload, extra)

    def note_schedule(self, at, target, payload):
        note(payload)
        schedule(self, at, target, payload)

    def handle_and_clear(target, payload):
        queued.discard(id(_flow_of(payload)))
        handle(target, payload)

    monkeypatch.setattr(Simulator, "send", note_send)
    monkeypatch.setattr(Simulator, "schedule", note_schedule)
    world.handle = handle_and_clear
    sim.run_until(scenario.duration_ms)
    return twice


@pytest.mark.parametrize("strategy, initial, servers, seed", _QUEUE_RUNS)
def test_no_flow_context_is_queued_for_two_events_at_once(
    monkeypatch, strategy, initial, servers, seed
):
    """A flow context, the sweep's and each sync probe's included, is the
    message of every hop of its flow, and a handler sets its next hop's kind
    on it; that is sound only while each flow has at most one event queued.
    The DEVICE runs count too: each request's context is queued again as its
    device-task-done."""
    scenario = replace(_sweep_scenario(strategy, initial, seed), cloud_servers=servers)
    assert _flows_queued_twice(monkeypatch, scenario) == []


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_no_flow_context_is_queued_twice_in_the_shipped_scenarios(monkeypatch, path):
    assert _flows_queued_twice(monkeypatch, load_scenario(path)) == []


# -- sync-table mitigation


def test_sync_table_rollout_is_bounce_free():
    times = {f"u{i:03d}": list(range(500 + 37 * i, 9500, 150)) for i in range(4)}
    result = run(
        scenario_from_dict(
            {
                "strategy": {"mitigation": "SYNC_TABLE", "sync_table_period_ms": 400},
                "users": 4,
                "cloud_servers": 3,
                "releases": [
                    {"time_ms": 2000, "version_id": "V2", "server_update_ms": [200, 3000]},
                    {"time_ms": 5000, "version_id": "V3", "server_update_ms": [200, 3000]},
                ],
                "runtime_arrivals": _arrivals(times),
                "duration_ms": 10000,
                "seed": 3,
            }
        )
    )
    assert result.report.bounce_count == 0
    assert result.report.mismatch_violations == 0
    assert result.report.availability == 1.0


# -- population-sized bookkeeping: owners, sweep order, served-version index


def test_users_are_dealt_round_robin_to_devices():
    """User i lives on device i mod devices: ``owners_of`` says so in every
    world, and every user's arrivals in every world go to that device."""
    users, devices = 1003, 7
    for deployment in ("DEVICE", "HYBRID", "SERVER"):
        sim, world, _ = build(
            scenario_from_dict(
                {
                    "strategy": {"deployment": deployment},
                    "users": users,
                    "devices": devices,
                    "runtime_arrivals": _arrivals({f"u{i:03d}": [50] for i in range(users)}),
                    "duration_ms": 100,
                }
            )
        )
        for j in range(devices):
            expected = [f"u{i:03d}" for i in range(users) if i % devices == j]
            # user order, not id-string order: u993 comes before u1000 on d06
            assert world.owners_of(f"d{j:02d}") == expected
        # kind -> user -> (event target, the context's device id)
        arrived = {"enroll-arrival": {}, "runtime-arrival": {}}

        def handler(target, payload, world=world, arrived=arrived):
            if payload.kind in arrived:
                arrived[payload.kind][payload.user_id] = (target, payload.device_id)
            world.handle(target, payload)

        sim.handler = handler
        sim.run_until(100)
        for kind, by_user in arrived.items():
            assert len(by_user) == users, (deployment, kind)
            for user, (target, device_id) in by_user.items():
                expected = f"d{int(user[1:]) % devices:02d}"
                assert (target, device_id) == (f"device:{expected}", expected), (kind, user)


@pytest.mark.parametrize(
    "strategy, initial",
    [(s, i) for _, s, i in _COMBOS if s.get("deployment", "SERVER") == "SERVER"],
    ids=[n for n, s, _ in _COMBOS if s.get("deployment", "SERVER") == "SERVER"],
)
def test_a_server_world_holds_no_device_nodes_and_no_user_device_map(
    monkeypatch, strategy, initial
):
    def refuse(*args):
        raise AssertionError("a SERVER world built a device node")

    monkeypatch.setattr(common, "DeviceNode", refuse)
    world = run(_sweep_scenario(strategy, initial, 7)).world
    assert not hasattr(world, "devices")
    users = set(world.user_ids)
    assert not any(isinstance(v, dict) and set(v) == users for v in vars(world).values())


def test_double_sweep_visits_stale_users_in_id_string_order():
    # Group 0 updates from 0 to 300 ms, so an enrollment dispatched before
    # 300 ms gets only a V2 profile. Device jitter spreads the enrollments:
    # the early ones are stale when the sweep starts at 300 ms, and those
    # that finish after it join the sweep while it runs.
    result = run(
        scenario_from_dict(
            {
                "strategy": {"policy": "DOUBLE"},
                "users": 1001,
                "devices": 13,
                "cloud_servers": 2,
                "initial_versions": ["V1", "V2"],
                "releases": [
                    {"time_ms": 0, "version_id": "V3", "server_update_ms": [300, 300]}
                ],
                "latency": {"device_frontend": {"base_ms": 5, "jitter_ms": 300}},
                "runtime_arrivals": {"explicit": []},
                "duration_ms": 6000,
                "seed": 1,
            }
        ),
        logs=True,
    )
    # the sweep handles one user at a time, so re-enrollments log in visit order
    order = [e.user_id for e in result.reenrolls]
    assert len(order) > 102
    assert order == sorted(set(order))
    at = order.index("u100")
    assert order[at : at + 3] == ["u100", "u1000", "u101"]
    first_put = {}
    for t, user, _seq in result.profile_puts:
        first_put.setdefault(user, t)
    # users whose one-profile enrollment landed after the sweep began still
    # take their id-order place in it
    assert [u for u in order if first_put[u] > 300]


def _served_by_scan(world):
    """Reference for the served-version index: scan every server."""
    live = [
        (sid, world.engines[sid].model)
        for sid in world.frontend.server_ids
        if sid not in world.updating
    ]
    models = {model.seq: model for _, model in live}
    versions = tuple(models[seq] for seq in sorted(models))
    serving = {v.seq: [sid for sid, model in live if model == v] for v in versions}
    return versions, serving


_FLEET_RUNS = [
    ({"policy": "DOUBLE"}, ["V1", "V2"]),
    ({"deployment": "HYBRID", "policy": "DOUBLE", "handshake_period_ms": 600}, ["V1", "V2"]),
    ({"policy": "SINGLE_OFFLINE"}, ["V1"]),
    ({"deployment": "HYBRID", "handshake_period_ms": 600}, ["V1"]),
]


def _fleet_scenario(strategy, initial):
    """Five servers and three releases whose server updates overlap requests."""
    return scenario_from_dict(
        {
            "strategy": strategy,
            "users": 40,
            "devices": 10,
            "cloud_servers": 5,
            "initial_versions": initial,
            "releases": [
                {"time_ms": t, "version_id": f"R{i}", "server_update_ms": [200, 3000]}
                for i, t in enumerate((2000, 6000, 10000))
            ],
            "runtime_arrivals": {"poisson_rate_per_user_per_s": 0.5},
            "duration_ms": 16000,
            "seed": 5,
        }
    )


@pytest.mark.parametrize("strategy, initial", _FLEET_RUNS)
def test_served_index_matches_a_scan_after_every_event(strategy, initial):
    scenario = _fleet_scenario(strategy, initial)
    sim, world, _ = build(scenario)
    handle = world.handle
    updates_done = 0
    models = set()  # every model any server has served so far

    def handle_and_check(target, payload):
        nonlocal updates_done
        handle(target, payload)
        versions, serving = _served_by_scan(world)
        assert world.served_versions == versions
        models.update(engine.model for engine in world.engines.values())
        for model in models:
            assert world.servers_serving(model) == serving.get(model.seq, [])
        updates_done += payload.kind == "server-update-done"

    world.handle = handle_and_check
    sim.run_until(scenario.duration_ms)
    assert updates_done >= 2 * len(scenario.releases)
    assert len(models) == len(initial) + len(scenario.releases)


@pytest.mark.parametrize(
    "strategy, initial", _FLEET_RUNS + [({"mitigation": "SYNC_TABLE"}, ["V1"])]
)
def test_a_server_serves_its_old_engine_until_its_update_is_done(strategy, initial):
    """A server in ``updating`` keeps the engine it had when its release
    began; its ``server-update-done``, and no other event, swaps in the
    release's engine and takes it out of ``updating``."""
    scenario = _fleet_scenario(strategy, initial)
    sim, world, _ = build(scenario)
    handle = world.handle
    # server mid-update -> (the engine it served when its update began, the
    # version its release brings)
    rolling = {}
    swaps = 0

    def handle_and_check(target, payload):
        nonlocal swaps
        before = dict(world.engines)
        handle(target, payload)
        for sid in world.updating.difference(rolling):
            rolling[sid] = (before[sid], world.releases[0].version)
        for sid in world.updating:
            assert world.engines[sid] is rolling[sid][0]
        if payload.kind == "server-update-done":
            sid = payload.server_id
            old, new = rolling.pop(sid)
            assert sid not in world.updating and payload.version == new
            assert old.model.seq < new.seq and world.engines[sid].model == new
            before[sid] = world.engines[sid]
            swaps += 1
        assert world.engines == before and set(rolling) == world.updating

    world.handle = handle_and_check
    sim.run_until(scenario.duration_ms)
    assert swaps >= 2 * len(scenario.releases)
