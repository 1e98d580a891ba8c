"""runner.run pauses the cyclic collector and leaves it as it found it.

The pause is sound only while the event loop makes no reference cycles, so
the guard test runs every strategy combination with the collector off and
checks that a full collection, with the world still alive, finds nothing.
A finished world is no cycle either: it is freed as soon as its result is
dropped, with no collection at all.

The report is folded as requests complete. The request records,
re-enrollments and profile writes are kept only with ``logs=True``, and
keeping them changes no report byte.

runner.build also picks the world, and only the SYNC_TABLE world carries the
sync-table machinery; only the SINGLE_OFFLINE world keeps a maintenance
window and answers MAINTENANCE. Each world class handles exactly the
message kinds written out here.
"""

import gc
import weakref
from pathlib import Path

import pytest

from test_acceptance import _COMBOS, _sweep_scenario
from versim.domain import Outcome, VersionMismatchError
from versim.engine import EngineInstance
from versim.metrics import report_to_json
from versim.runner import RunFailedError, build, run
from versim.scenario import load_scenario
from versim.strategies import SyncTableServerWorld, common

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
    def recognize(self, runtime_audio, profiles):
        raise VersionMismatchError("injected mismatch")

    monkeypatch.setattr(EngineInstance, "recognize", recognize)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(collector, monkeypatch, enabled):
    original = EngineInstance.recognize
    seen = []

    def recognize(self, runtime_audio, profiles):
        seen.append(gc.isenabled())
        return original(self, runtime_audio, profiles)

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

    monkeypatch.setattr(common, "RequestRecord", refuse)
    monkeypatch.setattr(common, "ReenrollEvent", refuse)
    # one combination that re-enrolls, so each kind of log entry would be made
    result = run(load_scenario(str(SCENARIO)))
    assert result.report.total_reenrollments > 0
    assert (result.records, result.reenrolls, result.profile_puts) == (None, None, None)
