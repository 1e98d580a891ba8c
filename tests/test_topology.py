"""Node behavior: release update draws, profile stores, dispatch, device storage."""

import pytest

from versim.domain import (
    AudioSample,
    NoEligibleServerError,
    UnknownUserError,
    UserProfile,
    VersionId,
    fnv1a64,
)
from versim.kernel import SimRng
from versim.topology import (
    DatabaseNode,
    DeviceNode,
    DispatchPolicy,
    FrontendNode,
    ModelRelease,
)

V1 = VersionId("V1", 1)
V2 = VersionId("V2", 2)
V3 = VersionId("V3", 3)


def _profile(user, version, seed=0):
    return UserProfile(user_id=user, version=version, audio=(AudioSample(user, 1000, seed),))


def test_update_duration_draw_stays_in_bounds():
    release = ModelRelease(V1, 0, (100, 105))
    rng = SimRng(3)
    seen = {release.draw_update_duration(rng) for _ in range(300)}
    assert seen == {100, 101, 102, 103, 104, 105}


def test_db_store_then_read():
    db = DatabaseNode()
    samples = (AudioSample("u000", 1000, 7),)
    db.audio["u000"] = samples
    assert db.audio["u000"] == samples
    assert "u000" not in db.profiles
    assert "nobody" not in db.audio and "nobody" not in db.profiles


def test_db_put_requires_known_user():
    db = DatabaseNode()
    with pytest.raises(UnknownUserError):
        db.put_profile(_profile("u000", V1), retain=1)


def test_db_put_keeps_ascending_and_drops_oldest():
    db = DatabaseNode()
    db.audio["u000"] = (AudioSample("u000", 1000, 1),)
    db.put_profile(_profile("u000", V2), retain=2)
    db.put_profile(_profile("u000", V1), retain=2)
    assert [p.version for p in db.profiles["u000"]] == [V1, V2]
    db.put_profile(_profile("u000", V3), retain=2)
    assert [p.version for p in db.profiles["u000"]] == [V2, V3]


def test_db_put_same_version_replaces():
    db = DatabaseNode()
    db.audio["u000"] = (AudioSample("u000", 1000, 1),)
    first = _profile("u000", V1, seed=10)
    second = _profile("u000", V1, seed=20)
    db.put_profile(first, retain=1)
    db.put_profile(second, retain=1)
    profiles = db.profiles["u000"]
    assert len(profiles) == 1
    assert profiles[0] is second


def test_db_retain_none_is_unbounded():
    db = DatabaseNode()
    db.audio["u000"] = (AudioSample("u000", 1000, 1),)
    for version in (V1, V2, V3):
        db.put_profile(_profile("u000", version), retain=None)
    assert [p.version for p in db.profiles["u000"]] == [V1, V2, V3]


def _stored_after(profiles, profile, retain):
    """The user's profiles once ``profile`` is stored over ``profiles``."""
    device = DeviceNode()
    device.profiles["u000"] = profiles
    device.store_profile(profile, retain)
    return device.profiles["u000"]


def test_store_profile_keeps_a_new_tuple_of_exactly_the_kept_profiles():
    p1, p2, p3 = (_profile("u000", v) for v in (V1, V2, V3))
    device = DeviceNode()
    device.profiles["u000"] = stored = (p1, p3)
    device.store_profile(p2, 2)
    kept = device.profiles["u000"]
    assert type(kept) is tuple and kept == (p2, p3)
    assert stored == (p1, p3)  # a put replaces the stored tuple, never changes it
    assert _stored_after(kept, p1, 1) == (p3,)
    assert _stored_after(kept, p1, None) == (p1, p2, p3)
    again = _profile("u000", V2, seed=9)
    assert _stored_after(kept, again, 2) == (again, p3)


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
    device = DeviceNode()
    device.put_profile(_profile("u000", V1), retain=2)
    device.put_profile(_profile("u000", V3), retain=2)
    device.put_profile(_profile("u000", V2), retain=2)
    assert [p.version for p in device.profiles["u000"]] == [V2, V3]
    assert device.profiles["u000"][-1].version == V3


def test_device_store_replaces_same_version():
    device = DeviceNode()
    first = _profile("u000", V1, seed=1)
    second = _profile("u000", V1, seed=2)
    device.put_profile(first, retain=1)
    device.put_profile(second, retain=1)
    profiles = device.profiles["u000"]
    assert len(profiles) == 1 and profiles[0] is second


def test_device_profiles_empty_for_strangers():
    device = DeviceNode()
    assert "u999" not in device.profiles


@pytest.mark.parametrize("retain", [1, 2, None])
def test_database_and_devices_keep_profiles_by_one_rule(retain):
    db = DatabaseNode()
    db.audio["u000"] = (AudioSample("u000", 1000, 1),)
    device = DeviceNode()
    for version in (V2, V1, V3, V2):
        for store in (db, device):
            store.put_profile(_profile("u000", version), retain)
        assert db.profiles["u000"] == device.profiles["u000"]
    assert "nobody" not in db.audio and "nobody" not in db.profiles
    assert "nobody" not in device.profiles
