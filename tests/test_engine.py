"""Mock engine: hashing, enrollment, and recognition, which is the
mismatch tripwire and nothing else.

The digest reference values below were computed with an independent FNV-1a
implementation before this engine existed, so these tests are the anchor the
engine must hit, not a snapshot of its own output.
"""

import random

import pytest

from versim.domain import (
    AudioSample,
    EmptyAudioError,
    EmptyUserIdError,
    VersionId,
    VersionMismatchError,
    fnv1a64,
    profile_digest,
)
from versim.engine import EngineInstance

V1 = VersionId("V1", 1)
V2 = VersionId("V2", 2)
V3 = VersionId("V3", 3)


def _engine(model=V1):
    return EngineInstance(model=model)


def _sample(speaker, seed):
    return AudioSample(speaker_id=speaker, duration_ms=1000, seed=seed)


def test_fnv1a64_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_profile_digest_reference_values():
    assert profile_digest("V2", "u1", [7]) == 10261338670014762554
    assert profile_digest("V3", "u1", [7]) == 11969827911593221833


def test_profile_digest_seed_order_is_irrelevant():
    assert profile_digest("V1", "u7", [3, 9]) == 2504644850314720542
    assert profile_digest("V1", "u7", [9, 3]) == 2504644850314720542


def test_digest_separates_model_user_and_audio():
    base = profile_digest("V1", "u1", [1, 2])
    assert profile_digest("V2", "u1", [1, 2]) != base
    assert profile_digest("V1", "u2", [1, 2]) != base
    assert profile_digest("V1", "u1", [1, 3]) != base


def test_enroll_produces_profile_at_engine_version():
    engine = _engine(V2)
    profile = engine.enroll("u1", (_sample("u1", 7),))
    assert profile.user_id == "u1"
    assert profile.version == V2
    assert profile.digest == 10261338670014762554


def test_enroll_keeps_the_audio_and_derives_the_digest():
    samples = (_sample("u1", 9), _sample("u1", 7))
    profile = _engine(V2).enroll("u1", samples)
    assert profile.audio is samples
    assert profile.digest == profile_digest("V2", "u1", [7, 9])


def test_profiles_compare_by_user_version_and_digest():
    a, b = _sample("u1", 7), _sample("u1", 9)
    first = _engine(V2).enroll("u1", (a, b))
    reordered = _engine(V2).enroll("u1", (b, a))
    assert first == reordered and hash(first) == hash(reordered)
    assert first != tuple(first) and tuple(first) != first
    assert first != _engine(V2).enroll("u1", (a,))
    assert first != _engine(V3).enroll("u1", (a, b))


def test_enroll_rejects_empty_inputs():
    engine = _engine()
    with pytest.raises(EmptyUserIdError):
        engine.enroll("", (_sample("u1", 7),))
    with pytest.raises(EmptyAudioError):
        engine.enroll("u1", ())


def test_version_mismatch_is_a_hard_failure():
    old = _engine(V1).enroll("u1", (_sample("u1", 7),))
    assert _engine(V1).recognize(old) is None
    with pytest.raises(VersionMismatchError, match="'u1' is at 'V1' but the engine runs 'V2'"):
        _engine(V2).recognize(old)


def test_enrollment_is_pure_and_order_free():
    """Same user, same audio set, same model: identical profile, regardless
    of sample order or how many times it runs."""
    rng = random.Random(20240816)
    engine = _engine(V3)
    for _ in range(200):
        user = f"u{rng.randrange(50):03d}"
        samples = [
            _sample(user, rng.getrandbits(64)) for _ in range(rng.randrange(1, 6))
        ]
        first = engine.enroll(user, tuple(samples))
        rng.shuffle(samples)
        second = engine.enroll(user, tuple(samples))
        assert first == second
        assert first.version == V3
