"""Deterministic mock speech engine.

The engine stands in for feature extraction plus a speaker encoder. Instead
of computing an embedding, an enrollment yields a profile whose digest is an
FNV-1a hash of the model id, the user id and the audio seeds. Recognition is
the version check and nothing else: no runtime audio is modelled and no score
is computed. What the engine models faithfully is the single property under
study: a profile can only be consumed by the model version that produced it,
and feeding it to any other version is a hard failure, not a degraded score.

The engine charges no time: the world charges the scenario's enrollment
and runtime costs as simulated time. ``enroll`` does no hashing either: the
profile keeps the audio and derives its digest when read (see
``UserProfile``); the audio derives its samples (see ``EnrollmentAudio``).
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass

from .domain import (
    AudioSample,
    EmptyAudioError,
    EmptyUserIdError,
    UserProfile,
    VersionId,
    VersionMismatchError,
)
from .kernel import SimRng

__all__ = ["EngineInstance", "EnrollmentAudio"]


@dataclass(slots=True)
class EnrollmentAudio:
    """A user's ``count`` enrollment samples of 1 s, kept as the SplitMix64
    stream ``state`` that draws their seeds: iterating derives the samples,
    so the stores, the flows and the profiles share this one small value."""

    speaker_id: str
    state: int
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[AudioSample]:
        draw = SimRng(self.state).next_u64
        return (AudioSample(self.speaker_id, 1000, draw()) for _ in range(self.count))


@dataclass(frozen=True, slots=True)
class EngineInstance:
    """One loaded model: a server or device runs one at a time. It is the
    version check alone; the world charges the scenario's costs."""

    model: VersionId

    def enroll(self, user_id: str, samples: Collection[AudioSample]) -> UserProfile:
        if not user_id:
            raise EmptyUserIdError("enroll called with an empty user id")
        if not samples:
            raise EmptyAudioError(f"enroll for {user_id!r} called with no audio")
        return UserProfile(user_id, self.model, samples)

    def recognize(self, profile: UserProfile) -> None:
        """Check a runtime request's ``profile``: raises VersionMismatchError
        if a model other than this instance produced it. That is the
        tripwire every strategy in this package exists to keep silent."""
        if profile.version != self.model:
            raise VersionMismatchError(
                f"profile for {profile.user_id!r} is at {profile.version.id!r} "
                f"but the engine runs {self.model.id!r}"
            )
