"""Value types: result thresholds, immutability."""

import pytest

from versim.domain import (
    AudioSample,
    RecognitionResult,
    UserProfile,
    VersionId,
    result_from_score,
)


def test_result_threshold_is_half():
    assert result_from_score(0.5).accepted
    assert result_from_score(1.0).accepted
    assert not result_from_score(0.49999).accepted
    assert not result_from_score(0.0).accepted


def test_values_are_immutable():
    profile = UserProfile("u000", VersionId("V1", 1), audio=(AudioSample("u000", 1000, 7),))
    with pytest.raises(AttributeError):
        profile.digest = 8
    with pytest.raises(AttributeError):
        profile.audio = ()
    result = RecognitionResult(score=1.0, accepted=True)
    with pytest.raises(AttributeError):
        result.score = 0.0
