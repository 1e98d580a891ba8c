"""Node state for the three deployment shapes.

Topology is a star centered on the frontend: devices, cloud servers and the
database all talk through it. Nodes hold state and local rules only; the
multi-hop request flows, the cloud servers' engines, the devices' models and
the release order live in ``strategies``. A ``ModelRelease`` is one release
as the run numbers it. ``DatabaseNode`` is the one profile store: the
database is one, and each device's store is its subclass ``DeviceNode``.
A store is two dicts, read and written in place: a user's enrollment audio
in ``audio``, and in ``profiles`` the user's profiles, oldest first, as an
exact-size tuple (``profiles.get(user_id, ())`` for a user with none) that a
put replaces and never changes, so a reader may keep the store's own tuple
without a copy. ``put_profile(profile, retain)`` keeps a profile under the
one retention rule, ``store_profile``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import ClassVar

from .domain import NoEligibleServerError, UnknownUserError, UserProfile, VersionId, fnv1a64
from .engine import EnrollmentAudio
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
VERSION_SEQ = attrgetter("version.seq")  # a profile's sort key, without a Python frame


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


class DatabaseNode:
    """The profile store: the backend database of the server-side
    deployments. Operations are free in simulated time; the network hops to
    reach it are not."""

    __slots__ = ("audio", "profiles")

    def __init__(self) -> None:
        self.audio: dict[str, EnrollmentAudio] = {}
        self.profiles: dict[str, tuple[UserProfile, ...]] = {}

    def put_profile(self, profile: UserProfile, retain: int | None) -> None:
        """Store ``profile`` under ``store_profile``'s rule; the user's audio
        must be stored."""
        if profile.user_id not in self.audio:
            raise UnknownUserError(f"profile put for unknown user {profile.user_id!r}")
        self.store_profile(profile, retain)

    def store_profile(self, profile: UserProfile, retain: int | None) -> None:
        """The one profile-retention rule: ``profile`` is spliced into a copy
        of the user's profiles, ascending by seq, in place of any entry of its
        version, and the result is a new exact-size tuple, the lowest seqs
        dropped beyond ``retain`` (None: no cap)."""
        user, seq = profile.user_id, profile.version.seq
        held = self.profiles.get(user, ())
        i = bisect_left(held, seq, key=VERSION_SEQ)
        kept = list(held)  # a list, not tuple slices, which raised peak RSS
        kept[i : bisect_right(held, seq, i, key=VERSION_SEQ)] = (profile,)
        self.profiles[user] = tuple(kept if retain is None else kept[-retain:])


class FrontendNode:
    """Reverse proxy and dispatcher. Owns the round-robin cursor and the
    random stream used for RANDOM dispatch. (The SINGLE_OFFLINE maintenance
    window and the sync-table mitigation's served-version table belong to
    their worlds, ``OfflineServerWorld`` and ``SyncTableServerWorld``.)"""

    def __init__(self, server_ids: list[str], policy: DispatchPolicy, rng: SimRng):
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
            pick = self.server_ids[fnv1a64(user_id.encode("utf-8")) % len(self.server_ids)]
            if pick not in eligible:
                raise NoEligibleServerError(f"hash pick {pick!r} is not eligible for {user_id!r}")
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


class DeviceNode(DatabaseNode):
    """The profile store of one end-user device, in the deployments that keep
    profiles on devices; its owners are the users that the world's ownership
    rule puts on it. A put needs no stored audio. A server-side deployment
    builds none: a device there is only a request origin, its link stream
    and event target."""

    __slots__ = ()

    def put_profile(self, profile: UserProfile, retain: int | None) -> None:
        # bench/child.py times the database's ``put_profile`` and this
        # store's ``store_profile``, so a device put stays out of the former
        self.store_profile(profile, retain)
