"""Core value types shared by every deployment flavor.

Everything in this module is an immutable value or an error type: model
versions, audio samples, user profiles and recognition results. None of it
knows about the event queue or the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
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
