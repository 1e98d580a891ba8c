"""Deterministic mock speech engine.

The engine stands in for feature extraction plus a speaker encoder. Instead
of computing an embedding, an enrollment yields a profile whose digest is an
FNV-1a hash of the model id, the user id and the audio seeds, and the engine
scores a candidate 1.0 exactly when the runtime audio was spoken by that
candidate. What it models faithfully is the single property under study: a
profile can only be consumed by the model version that produced it, and
feeding it to any other version is a hard failure, not a degraded score.

The simulated cost of an enrollment is charged as simulated time, so
``enroll`` does no hashing: the profile keeps the audio and derives its
digest when read (see ``UserProfile``). ``fnv1a64`` and ``profile_digest``
live in ``domain`` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .domain import (
    AudioSample,
    EmptyAudioError,
    EmptyUserIdError,
    RecognitionResult,
    UserProfile,
    VersionId,
    VersionMismatchError,
    fnv1a64,
    profile_digest,
    result_from_score,
)

__all__ = ["EngineInstance", "fnv1a64", "profile_digest"]


@dataclass(frozen=True, slots=True)
class EngineInstance:
    """One loaded model. Server nodes hold one (or two) of these; devices hold
    exactly one. Costs are carried here so callers can charge simulated time
    without reaching back into the scenario."""

    model: VersionId
    enroll_cost_ms_per_sample: int
    runtime_cost_ms: int

    def enroll(self, user_id: str, samples: tuple[AudioSample, ...]) -> UserProfile:
        if not user_id:
            raise EmptyUserIdError("enroll called with an empty user id")
        if not samples:
            raise EmptyAudioError(f"enroll for {user_id!r} called with no audio")
        return UserProfile(user_id, self.model, samples)

    def enroll_duration_ms(self, sample_count: int) -> int:
        return sample_count * self.enroll_cost_ms_per_sample

    def recognize(
        self,
        runtime_audio: AudioSample,
        profiles: Mapping[str, UserProfile],
    ) -> dict[str, RecognitionResult]:
        """Score every candidate profile against the runtime audio.

        Raises VersionMismatchError if any profile was produced by a model
        other than this instance. That is the tripwire every strategy in this
        package exists to keep silent.
        """
        if not profiles:
            raise EmptyAudioError("recognize called with no candidate profiles")
        for user_id, profile in profiles.items():
            if profile.version != self.model:
                raise VersionMismatchError(
                    f"profile for {user_id!r} is at {profile.version.id!r} "
                    f"but the engine runs {self.model.id!r}"
                )
        return {
            user_id: result_from_score(
                1.0 if profile.user_id == runtime_audio.speaker_id else 0.0
            )
            for user_id, profile in profiles.items()
        }
