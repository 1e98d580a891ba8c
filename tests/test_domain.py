"""Value types: result thresholds, request validation."""

import pytest

from versim.domain import (
    AudioSample,
    EmptyAudioError,
    EmptyUserIdError,
    EnrollmentRequest,
    Outcome,
    RecognitionResult,
    RuntimeRequest,
    RuntimeResponse,
    SimulationError,
    UserProfile,
    VersionId,
    result_from_score,
    validate_enrollment_request,
    validate_runtime_request,
    validate_runtime_response,
)


def test_result_threshold_is_half():
    assert result_from_score(0.5).accepted
    assert result_from_score(1.0).accepted
    assert not result_from_score(0.49999).accepted
    assert not result_from_score(0.0).accepted


def _sample(speaker="u000", seed=1):
    return AudioSample(speaker_id=speaker, duration_ms=1000, seed=seed)


def test_enrollment_validation_order():
    # empty user id wins over empty audio when both are wrong
    with pytest.raises(EmptyUserIdError):
        validate_enrollment_request(EnrollmentRequest(user_id="", samples=()))
    with pytest.raises(EmptyAudioError):
        validate_enrollment_request(EnrollmentRequest(user_id="u000", samples=()))
    validate_enrollment_request(EnrollmentRequest(user_id="u000", samples=(_sample(),)))


def test_runtime_request_needs_candidates():
    with pytest.raises(SimulationError):
        validate_runtime_request(RuntimeRequest(runtime_audio=_sample(), candidate_ids=()))


def test_runtime_request_carried_profiles_must_cover_candidates():
    profile = UserProfile("u000", VersionId("V1", 1), digest=7)
    req = RuntimeRequest(
        runtime_audio=_sample(),
        candidate_ids=("u000", "u001"),
        carried_profiles=(profile,),
    )
    with pytest.raises(SimulationError, match="u001"):
        validate_runtime_request(req)


def test_ok_response_scores_every_candidate():
    results = {"u000": result_from_score(1.0)}
    validate_runtime_response(
        RuntimeResponse(outcome=Outcome.OK, results=results), ("u000",)
    )
    with pytest.raises(SimulationError):
        validate_runtime_response(
            RuntimeResponse(outcome=Outcome.OK, results=results), ("u000", "u001")
        )


def test_failed_response_carries_no_results():
    with pytest.raises(SimulationError):
        validate_runtime_response(
            RuntimeResponse(
                outcome=Outcome.MAINTENANCE, results={"u000": result_from_score(0.0)}
            ),
            ("u000",),
        )
    validate_runtime_response(RuntimeResponse(outcome=Outcome.MAINTENANCE), ("u000",))


def test_values_are_immutable():
    profile = UserProfile("u000", VersionId("V1", 1), digest=7)
    with pytest.raises(AttributeError):
        profile.digest = 8
    result = RecognitionResult(score=1.0, accepted=True)
    with pytest.raises(AttributeError):
        result.score = 0.0
