"""Value types: immutability, order and hash."""

import pytest

from versim.domain import AudioSample, UserProfile, VersionId


def test_values_are_immutable():
    profile = UserProfile("u000", VersionId("V1", 1), audio=(AudioSample("u000", 1000, 7),))
    with pytest.raises(AttributeError):
        profile.digest = 8
    with pytest.raises(AttributeError):
        profile.audio = ()
    values = [
        (VersionId("V1", 1), ("id", "seq")),
        (AudioSample("u000", 1000, 7), ("speaker_id", "duration_ms", "seed")),
    ]
    for value, fields in values:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)


def test_version_ids_have_no_order_and_hash_as_their_fields():
    older, newer = VersionId("V2", 2), VersionId("V10", 10)
    for compare in (
        lambda a, b: a < b,
        lambda a, b: a <= b,
        lambda a, b: a > b,
        lambda a, b: a >= b,
    ):
        with pytest.raises(TypeError):
            compare(older, newer)
    # the hash of the field tuple, so sets of versions keep their order
    assert hash(VersionId("V1", 1)) == hash(("V1", 1))
    assert hash(AudioSample("u000", 1000, 7)) == hash(("u000", 1000, 7))
    assert {VersionId("V1", 1), VersionId("V1", 1)} == {VersionId("V1", 1)}
