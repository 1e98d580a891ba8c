"""Core value types shared by every deployment flavor.

Everything in this module is an immutable value, an error type or a pure
hash: model versions, enrollment audio samples, user profiles and the FNV-1a
profile digest. Recognition has no value type of its own: it is the engine's
version check and returns nothing. None of it knows about the event queue or
the clock. The digest lives here, not in the engine, because a profile
derives it from its own fields and the engine imports this module.

The three value types are named tuples, built, compared and hashed in C. A
run builds one per enrollment, and no ``AudioSample``: ``engine``'s
``EnrollmentAudio`` derives them. ``VersionId`` and ``AudioSample`` hash as
the plain tuple of their fields, so a set or dict of them iterates in the
order a set of those tuples would; ``UserProfile`` has its own eq and hash.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


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


class VersionId(NamedTuple):
    """A model release identity. ``seq`` is the global release order; ids are
    opaque labels. Equal seq with unequal id means the registry is corrupt."""

    id: str
    seq: int

    # releases are ordered by ``seq`` alone, never by tuple order, which
    # would compare the ids first: ``<`` between two VersionIds raises
    # TypeError
    def __lt__(self, other: object):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


class AudioSample(NamedTuple):
    """Stand-in for a recorded utterance. ``seed`` is the only content; the
    engine hashes it instead of extracting features."""

    speaker_id: str
    duration_ms: int
    seed: int


def fnv1a64(data: bytes) -> int:
    """FNV-1a over ``data``, 64-bit."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def profile_digest(model_id: str, user_id: str, seeds: Iterable[int]) -> int:
    """Digest of an enrollment: model id, NUL, user id, NUL, then every audio
    seed as 8 big-endian bytes in ascending order. Seed order in the input
    must not matter, hence the sort."""
    payload = bytearray(model_id.encode("utf-8"))
    payload.append(0)
    payload += user_id.encode("utf-8")
    payload.append(0)
    for seed in sorted(s & _MASK64 for s in seeds):
        payload += seed.to_bytes(8, "big")
    return fnv1a64(bytes(payload))


class UserProfile(NamedTuple):
    """Enrollment artifact. Only meaningful to the exact model version that
    produced it, which is the whole point of this simulator.

    A profile keeps a reference to the enrollment audio it was made from (in a
    run, the user's ``EnrollmentAudio``) and derives ``digest`` from it when
    read. No report, trace or log reads the digest, so a run never pays for
    the pure-Python hash. Equality and hash are those of ``(user_id, version,
    digest)``: the same audio set enrolled in any order gives equal profiles.
    """

    user_id: str
    version: VersionId
    audio: Iterable[AudioSample]

    @property
    def digest(self) -> int:
        return profile_digest(self.version.id, self.user_id, (s.seed for s in self.audio))

    def _identity(self) -> tuple[str, VersionId, int]:
        return (self.user_id, self.version, self.digest)

    # tuple's own comparisons would compare the audio values, and would find
    # a profile equal to a plain tuple of its fields
    def __eq__(self, other: object) -> bool:
        return isinstance(other, UserProfile) and self._identity() == other._identity()

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._identity())

