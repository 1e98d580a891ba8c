"""Node state for the three deployment shapes.

Topology is a star centered on the frontend: devices, cloud servers and the
database all talk through it. Model storage is the release registry. Nodes
hold state and local rules only; the multi-hop request flows live in
``strategies``. The database and the devices are the two profile stores,
with one interface: ``put_profile(profile, retain)`` keeps a profile under
the one retention rule, ``_retain``, and ``profiles_for(user_id)`` reads
one user's profiles, oldest first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .domain import (
    AudioSample,
    NoEligibleServerError,
    UnknownUserError,
    UserProfile,
    VersionId,
)
from .engine import EngineInstance, fnv1a64
from .kernel import SimRng


class DispatchPolicy(Enum):
    ROUND_ROBIN = "ROUND_ROBIN"
    RANDOM = "RANDOM"
    HASH_BY_USER = "HASH_BY_USER"


@dataclass(frozen=True, slots=True)
class ModelRelease:
    version: VersionId
    release_time: int
    download_ms: int
    server_update_ms: tuple[int, int]

    def draw_update_duration(self, rng: SimRng) -> int:
        lo, hi = self.server_update_ms
        return lo + rng.randrange(hi - lo + 1)


class ModelStorageNode:
    """Release registry. Assigns the global sequence numbers that define
    version ordering; everything downstream compares by seq only."""

    def __init__(self) -> None:
        self.releases: list[ModelRelease] = []

    def register(
        self,
        version_id: str,
        release_time: int,
        download_ms: int,
        server_update_ms: tuple[int, int],
    ) -> ModelRelease:
        release = ModelRelease(
            version=VersionId(id=version_id, seq=len(self.releases) + 1),
            release_time=release_time,
            download_ms=download_ms,
            server_update_ms=server_update_ms,
        )
        self.releases.append(release)
        return release

    @property
    def latest(self) -> VersionId:
        return self.releases[-1].version


@dataclass(slots=True)
class DbRow:
    audio: tuple[AudioSample, ...] = ()
    # ascending by version seq, one entry per distinct version
    profiles: list[UserProfile] = field(default_factory=list)


def _retain(
    profiles: list[UserProfile], profile: UserProfile, cap: int | None
) -> list[UserProfile]:
    """The one profile-retention rule of the database and the devices: a new
    list with ``profile`` in place of any entry of its version, ascending by
    seq, and the lowest seqs dropped beyond ``cap`` entries (None: unbounded)."""
    kept = [p for p in profiles if p.version.seq != profile.version.seq]
    kept.append(profile)
    kept.sort(key=lambda p: p.version.seq)
    if cap is not None and len(kept) > cap:
        del kept[: len(kept) - cap]
    return kept


class DatabaseNode:
    """Backend profile store. Operations are free in simulated time; the
    network hops to reach it are not."""

    def __init__(self) -> None:
        self.rows: dict[str, DbRow] = {}

    def store_audio(self, user_id: str, samples: tuple[AudioSample, ...]) -> None:
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

    def profiles_for(self, user_id: str) -> list[UserProfile]:
        row = self.rows.get(user_id)
        return row.profiles if row is not None else []


class CloudServerNode:
    """One cloud machine running one engine (double-version deployments give
    each of the two fixed groups its own version). While an update is in
    flight the old engine keeps running; the swap happens at the completion
    event."""

    __slots__ = ("server_id", "engine", "pending_engine")

    def __init__(self, server_id: str, engine: EngineInstance):
        self.server_id = server_id
        self.engine = engine
        self.pending_engine: EngineInstance | None = None

    @property
    def updating(self) -> bool:
        return self.pending_engine is not None

    def begin_update(self, new_engine: EngineInstance) -> None:
        self.pending_engine = new_engine

    def complete_update(self) -> None:
        assert self.pending_engine is not None
        self.engine = self.pending_engine
        self.pending_engine = None


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
        if self.policy is DispatchPolicy.HASH_BY_USER:
            pick = self.server_ids[
                fnv1a64(user_id.encode("utf-8")) % len(self.server_ids)
            ]
            if pick not in eligible:
                raise NoEligibleServerError(
                    f"hash pick {pick!r} is not eligible for {user_id!r}"
                )
            return pick
        if self.policy is DispatchPolicy.RANDOM:
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
    """End-user device. Server-side deployments use it only as the request
    origin; device and hybrid deployments also store audio, profiles and (for
    the on-device strategy) the local engine's model."""

    __slots__ = (
        "device_id",
        "owner_users",
        "local_model",
        "stored_audio",
        "stored_profiles",
        "updating",
        "deferred",
        "recheck_after_update",
        "bg_enroll_inflight",
    )

    def __init__(self, device_id: str, owner_users: list[str], local_model: VersionId):
        self.device_id = device_id
        self.owner_users = list(owner_users)
        self.local_model = local_model
        self.stored_audio: dict[str, tuple[AudioSample, ...]] = {}
        self.stored_profiles: dict[str, list[UserProfile]] = {}
        self.updating = False
        self.deferred: list = []
        self.recheck_after_update = False
        self.bg_enroll_inflight: set[str] = set()

    def put_profile(self, profile: UserProfile, retain: int | None) -> None:
        # the store itself keeps the name ``store_profile``, which bench/child.py times
        self.store_profile(profile, retain)

    def store_profile(self, profile: UserProfile, retain: int | None) -> None:
        """Store ``profile`` under the retention rule of ``_retain``."""
        user = profile.user_id
        self.stored_profiles[user] = _retain(self.profiles_for(user), profile, retain)

    def profiles_for(self, user_id: str) -> list[UserProfile]:
        return self.stored_profiles.get(user_id, [])
