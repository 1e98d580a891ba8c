"""Core value types shared by every deployment flavor.

Everything in this module is an immutable value: model versions, audio
samples, user profiles, and the request/response messages that travel
between nodes. None of it knows about the event queue or the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class SimulationError(Exception):
    """Base class for every error the simulator raises deliberately."""


class EmptyUserIdError(SimulationError):
    pass


class EmptyAudioError(SimulationError):
    pass


class VersionMismatchError(SimulationError):
    """Tripwire: recognition was attempted with a profile produced by a
    different model version. A correct strategy never lets this fire."""


class UnknownUserError(SimulationError):
    pass


class NoEligibleServerError(SimulationError):
    """Dispatch filter left no server to route to."""


class NoCommonVersionError(SimulationError):
    """Tripwire: no version is both held by every candidate and served by a
    live server. Reaching it fails the run."""


class NoStoredAudioError(SimulationError):
    pass


class Outcome(Enum):
    OK = "OK"
    MAINTENANCE = "MAINTENANCE"
    STALE_PROFILES = "STALE_PROFILES"


@dataclass(frozen=True, slots=True)
class VersionId:
    """A model release identity. ``seq`` is the global release order; ids are
    opaque labels. Equal seq with unequal id means the registry is corrupt."""

    id: str
    seq: int


@dataclass(frozen=True, slots=True)
class AudioSample:
    """Stand-in for a recorded utterance. ``seed`` is the only content; the
    engine hashes it instead of extracting features."""

    speaker_id: str
    duration_ms: int
    seed: int


@dataclass(frozen=True, slots=True)
class UserProfile:
    """Enrollment artifact. Only meaningful to the exact model version that
    produced it, which is the whole point of this simulator."""

    user_id: str
    version: VersionId
    digest: int


@dataclass(frozen=True, slots=True)
class RecognitionResult:
    score: float
    accepted: bool


def result_from_score(score: float) -> RecognitionResult:
    return RecognitionResult(score=score, accepted=score >= 0.5)


@dataclass(frozen=True, slots=True)
class EnrollmentRequest:
    user_id: str
    samples: tuple[AudioSample, ...]


@dataclass(frozen=True, slots=True)
class EnrollmentResponse:
    """Server-side deployments return no profiles (they stay in the db);
    hybrid returns one per served version."""

    profiles: tuple[UserProfile, ...]


@dataclass(frozen=True, slots=True)
class RuntimeRequest:
    """``candidate_ids`` names the users to score. Server-side requests carry
    ids only; hybrid requests also carry the device's stored profiles."""

    runtime_audio: AudioSample
    candidate_ids: tuple[str, ...]
    carried_profiles: tuple[UserProfile, ...] | None = None


@dataclass(frozen=True, slots=True)
class RuntimeResponse:
    outcome: Outcome
    results: dict[str, RecognitionResult] = field(default_factory=dict)


def validate_enrollment_request(req: EnrollmentRequest) -> None:
    if not req.user_id:
        raise EmptyUserIdError("enrollment request has an empty user id")
    if not req.samples:
        raise EmptyAudioError(f"enrollment for {req.user_id!r} carries no audio")


def validate_runtime_request(req: RuntimeRequest) -> None:
    if not req.candidate_ids:
        raise SimulationError("runtime request names no candidates")
    if req.carried_profiles is not None:
        carried = {p.user_id for p in req.carried_profiles}
        missing = [u for u in req.candidate_ids if u not in carried]
        if missing:
            raise SimulationError(
                f"runtime request carries no profile for candidates {missing}"
            )


def validate_runtime_response(resp: RuntimeResponse, candidate_ids: tuple[str, ...]) -> None:
    if resp.outcome is Outcome.OK:
        if set(resp.results) != set(candidate_ids):
            raise SimulationError("OK response must score every candidate")
    elif resp.results:
        raise SimulationError("failed response must carry no results")
