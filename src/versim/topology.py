"""Node state for the three deployment shapes.

Topology is a star centered on the frontend: devices, cloud servers and the
database all talk through it. Nodes hold state and local rules only; the
multi-hop request flows, the cloud servers' engines and the release order
live in ``strategies``. A ``ModelRelease`` is one release as the run
numbers it. The database and the devices are the two profile stores, with
one interface: ``put_profile(profile, retain)`` keeps a profile under the
one retention rule, ``_retain``. A database row's ``profiles`` and a
device's ``profiles_for(user_id)`` hold one user's profiles, oldest first.
The profiles are an exact-size tuple, ``()`` for a user with none, that a
put replaces and never changes, so a reader may keep the store's own tuple
without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

from .domain import (
    NoEligibleServerError,
    UnknownUserError,
    UserProfile,
    VersionId,
)
from .engine import EnrollmentAudio, fnv1a64
from .kernel import SimRng


class DispatchPolicy(Enum):
    ROUND_ROBIN = "ROUND_ROBIN"
    RANDOM = "RANDOM"
    HASH_BY_USER = "HASH_BY_USER"


# the members FrontendNode.choose tests, bound once as module names: a read
# through the enum class goes through ``EnumType``'s attribute hook and costs
# about 10x a plain name
RANDOM = DispatchPolicy.RANDOM
HASH_BY_USER = DispatchPolicy.HASH_BY_USER


@dataclass(frozen=True, slots=True)
class ModelRelease:
    """One release, numbered when the run is built: the message of its
    release event. Everything downstream compares versions by seq only."""

    kind: ClassVar[str] = "release"
    version: VersionId
    download_ms: int
    server_update_ms: tuple[int, int]

    def draw_update_duration(self, rng: SimRng) -> int:
        lo, hi = self.server_update_ms
        return lo + rng.randrange(hi - lo + 1)

    def summary(self) -> str:
        return f"version={self.version.id}"


@dataclass(slots=True)
class DbRow:
    """One user's database row: the enrollment audio, and the profiles that
    ``_retain`` kept, ascending by version seq with one per version."""

    audio: EnrollmentAudio | tuple[()] = ()
    profiles: tuple[UserProfile, ...] = ()


def _retain(
    profiles: tuple[UserProfile, ...], profile: UserProfile, cap: int | None
) -> tuple[UserProfile, ...]:
    """The one profile-retention rule of the database and the devices: a new
    exact-size tuple with ``profile`` in place of any entry of its version,
    ascending by seq, the lowest seqs dropped beyond ``cap`` (None: no cap)."""
    kept = [p for p in profiles if p.version.seq != profile.version.seq]
    kept.append(profile)
    kept.sort(key=lambda p: p.version.seq)
    return tuple(kept if cap is None else kept[-cap:])


class DatabaseNode:
    """Backend profile store. Operations are free in simulated time; the
    network hops to reach it are not."""

    def __init__(self) -> None:
        self.rows: dict[str, DbRow] = {}

    def store_audio(self, user_id: str, samples: EnrollmentAudio) -> None:
        row = self.rows.setdefault(user_id, DbRow())
        row.audio = samples

    def fetch(self, user_id: str) -> DbRow | None:
        return self.rows.get(user_id)

    def put_profile(self, profile: UserProfile, retain: int | None) -> None:
        """Store ``profile`` under the retention rule of ``_retain``; the
        user's row, made by its audio, must exist."""
        row = self.rows.get(profile.user_id)
        if row is None:
            raise UnknownUserError(f"profile put for unknown user {profile.user_id!r}")
        row.profiles = _retain(row.profiles, profile, retain)



class FrontendNode:
    """Reverse proxy and dispatcher. Owns the round-robin cursor and the
    random stream used for RANDOM dispatch. (The SINGLE_OFFLINE maintenance
    window and the sync-table mitigation's served-version table belong to
    their worlds, ``OfflineServerWorld`` and ``SyncTableServerWorld``.)"""

    def __init__(
        self,
        server_ids: list[str],
        policy: DispatchPolicy,
        rng: SimRng,
    ):
        self.server_ids = list(server_ids)
        self.policy = policy
        self.rng = rng
        self._rr_cursor = 0

    def choose(self, user_id: str, eligible: list[str]) -> str:
        """Apply the dispatch policy over ``eligible`` (a subset of all
        servers, in id order). HASH_BY_USER hashes over the full server list
        by definition, so a filtered-out hash pick is a dispatch failure."""
        if not eligible:
            raise NoEligibleServerError(f"no eligible server for {user_id!r}")
        if self.policy is HASH_BY_USER:
            pick = self.server_ids[
                fnv1a64(user_id.encode("utf-8")) % len(self.server_ids)
            ]
            if pick not in eligible:
                raise NoEligibleServerError(
                    f"hash pick {pick!r} is not eligible for {user_id!r}"
                )
            return pick
        if self.policy is RANDOM:
            return eligible[self.rng.randrange(len(eligible))]
        # ROUND_ROBIN: cycle the full id order, skip ineligible entries
        n = len(self.server_ids)
        for step in range(n):
            candidate = self.server_ids[(self._rr_cursor + step) % n]
            if candidate in eligible:
                self._rr_cursor = (self._rr_cursor + step + 1) % n
                return candidate
        raise NoEligibleServerError(f"no eligible server for {user_id!r}")


class DeviceNode:
    """End-user device of the deployments that keep profiles on devices; its
    owners are the users that the world's ownership rule puts on it. Device
    and hybrid deployments store audio and profiles on it; the on-device
    strategy also keeps its model and update window there. A server-side
    deployment builds none: a device there is only a request origin, its
    link stream and event target."""

    __slots__ = (
        "device_id",
        "local_model",
        "stored_audio",
        "stored_profiles",
        "updating",
        "recheck_after_update",
    )

    def __init__(self, device_id: str, local_model: VersionId):
        self.device_id = device_id
        self.local_model = local_model
        self.stored_audio: dict[str, EnrollmentAudio] = {}
        self.stored_profiles: dict[str, tuple[UserProfile, ...]] = {}
        self.updating = False
        self.recheck_after_update = False

    def put_profile(self, profile: UserProfile, retain: int | None) -> None:
        # the store itself keeps the name ``store_profile``, which bench/child.py times
        self.store_profile(profile, retain)

    def store_profile(self, profile: UserProfile, retain: int | None) -> None:
        """Store ``profile`` under the retention rule of ``_retain``."""
        user = profile.user_id
        self.stored_profiles[user] = _retain(self.profiles_for(user), profile, retain)

    def profiles_for(self, user_id: str) -> tuple[UserProfile, ...]:
        return self.stored_profiles.get(user_id, ())
