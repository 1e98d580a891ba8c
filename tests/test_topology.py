"""Node behavior: release registry, profile store, dispatch, device storage."""

import pytest

from versim.domain import (
    AudioSample,
    NoEligibleServerError,
    UnknownUserError,
    UserProfile,
    VersionId,
)
from versim.engine import EngineInstance, fnv1a64
from versim.kernel import SimRng
from versim.topology import (
    CloudServerNode,
    DatabaseNode,
    DeviceNode,
    DispatchPolicy,
    FrontendNode,
    ModelStorageNode,
)

V1 = VersionId("V1", 1)
V2 = VersionId("V2", 2)
V3 = VersionId("V3", 3)


def _profile(user, version, seed=0):
    return UserProfile(user_id=user, version=version, audio=(AudioSample(user, 1000, seed),))


def _engine(version):
    return EngineInstance(model=version, enroll_cost_ms_per_sample=10, runtime_cost_ms=5)


def test_storage_assigns_release_order():
    storage = ModelStorageNode()
    a = storage.register("V1", 0, 1000, (0, 0))
    b = storage.register("R1", 5000, 1000, (100, 200))
    assert a.version == VersionId("V1", 1)
    assert b.version == VersionId("R1", 2)
    assert storage.latest == b.version


def test_update_duration_draw_stays_in_bounds():
    storage = ModelStorageNode()
    release = storage.register("V1", 0, 0, (100, 105))
    rng = SimRng(3)
    seen = {release.draw_update_duration(rng) for _ in range(300)}
    assert seen == {100, 101, 102, 103, 104, 105}


def test_db_store_then_fetch():
    db = DatabaseNode()
    samples = (AudioSample("u000", 1000, 7),)
    db.store_audio("u000", samples)
    row = db.fetch("u000")
    assert row.audio == samples
    assert row.profiles == []
    assert db.fetch("nobody") is None


def test_db_put_requires_known_user():
    db = DatabaseNode()
    with pytest.raises(UnknownUserError):
        db.put_profile(_profile("u000", V1), retain=1)


def test_db_put_keeps_ascending_and_drops_oldest():
    db = DatabaseNode()
    db.store_audio("u000", (AudioSample("u000", 1000, 1),))
    db.put_profile(_profile("u000", V2), retain=2)
    db.put_profile(_profile("u000", V1), retain=2)
    row = db.fetch("u000")
    assert [p.version for p in row.profiles] == [V1, V2]
    db.put_profile(_profile("u000", V3), retain=2)
    assert [p.version for p in row.profiles] == [V2, V3]


def test_db_put_same_version_replaces():
    db = DatabaseNode()
    db.store_audio("u000", (AudioSample("u000", 1000, 1),))
    first = _profile("u000", V1, seed=10)
    second = _profile("u000", V1, seed=20)
    db.put_profile(first, retain=1)
    db.put_profile(second, retain=1)
    row = db.fetch("u000")
    assert len(row.profiles) == 1
    assert row.profiles[0] is second


def test_db_retain_none_is_unbounded():
    db = DatabaseNode()
    db.store_audio("u000", (AudioSample("u000", 1000, 1),))
    for version in (V1, V2, V3):
        db.put_profile(_profile("u000", version), retain=None)
    assert [p.version for p in db.fetch("u000").profiles] == [V1, V2, V3]


def test_server_keeps_old_engine_until_update_completes():
    server = CloudServerNode("s00", _engine(V1))
    assert not server.updating
    server.begin_update(_engine(V2))
    assert server.updating
    assert server.engine.model == V1  # still serving the old model
    server.complete_update()
    assert not server.updating
    assert server.engine.model == V2


def _frontend(policy):
    return FrontendNode(["s00", "s01", "s02"], policy, SimRng(1))


def test_round_robin_cycles_in_id_order():
    fe = _frontend(DispatchPolicy.ROUND_ROBIN)
    picks = [fe.choose("u000", fe.server_ids) for _ in range(6)]
    assert picks == ["s00", "s01", "s02", "s00", "s01", "s02"]


def test_round_robin_skips_ineligible_but_keeps_cursor_moving():
    fe = _frontend(DispatchPolicy.ROUND_ROBIN)
    assert fe.choose("u000", ["s00", "s01", "s02"]) == "s00"
    assert fe.choose("u000", ["s00", "s02"]) == "s02"  # s01 skipped
    assert fe.choose("u000", ["s00", "s01", "s02"]) == "s00"


def test_random_dispatch_draws_from_the_frontend_stream():
    fe = _frontend(DispatchPolicy.RANDOM)
    expect_rng = SimRng(1)
    eligible = fe.server_ids
    for _ in range(20):
        expected = eligible[expect_rng.randrange(len(eligible))]
        assert fe.choose("u000", eligible) == expected


def test_hash_dispatch_is_stable_per_user():
    fe = _frontend(DispatchPolicy.HASH_BY_USER)
    expected = fe.server_ids[fnv1a64(b"u042") % 3]
    for _ in range(5):
        assert fe.choose("u042", fe.server_ids) == expected


def test_hash_dispatch_refuses_filtered_pick():
    """The hash always lands on the same server, so filtering that server out
    is a dispatch failure, not a reroute."""
    fe = _frontend(DispatchPolicy.HASH_BY_USER)
    pick = fe.choose("u042", fe.server_ids)
    remaining = [s for s in fe.server_ids if s != pick]
    with pytest.raises(NoEligibleServerError):
        fe.choose("u042", remaining)


def test_choose_with_nothing_eligible_fails():
    fe = _frontend(DispatchPolicy.ROUND_ROBIN)
    with pytest.raises(NoEligibleServerError):
        fe.choose("u000", [])


def test_device_profile_cap_keeps_newest():
    device = DeviceNode("d00", ["u000"], V1)
    device.put_profile(_profile("u000", V1), retain=2)
    device.put_profile(_profile("u000", V3), retain=2)
    device.put_profile(_profile("u000", V2), retain=2)
    assert [p.version for p in device.profiles_for("u000")] == [V2, V3]
    assert device.profiles_for("u000")[-1].version == V3


def test_device_store_replaces_same_version():
    device = DeviceNode("d00", ["u000"], V1)
    first = _profile("u000", V1, seed=1)
    second = _profile("u000", V1, seed=2)
    device.put_profile(first, retain=1)
    device.put_profile(second, retain=1)
    profiles = device.profiles_for("u000")
    assert len(profiles) == 1 and profiles[0] is second


def test_device_profiles_empty_for_strangers():
    device = DeviceNode("d00", ["u000"], V1)
    assert device.profiles_for("u999") == []


@pytest.mark.parametrize("retain", [1, 2, None])
def test_database_and_devices_keep_profiles_by_one_rule(retain):
    db = DatabaseNode()
    db.store_audio("u000", (AudioSample("u000", 1000, 1),))
    device = DeviceNode("d00", ["u000"], V1)
    for version in (V2, V1, V3, V2):
        for store in (db, device):
            store.put_profile(_profile("u000", version), retain)
        assert db.profiles_for("u000") == device.profiles_for("u000")
    assert db.profiles_for("nobody") == [] == device.profiles_for("nobody")
