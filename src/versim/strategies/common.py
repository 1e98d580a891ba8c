"""Shared machinery for the strategy controllers: configuration, the message
vocabulary that travels on the event queue, the run log, and the world base
classes that wire nodes to the simulator.

A "world" is one deployment wired up: nodes, their rng streams, and the
handler table that routes every executed event by its message ``kind``.
Request flows are chains of messages; each hop is one traced event, and each
message carries its flow context object so node handlers stay stateless
between hops. There is one message class per hop shape. Where a shape serves
several hops (``Request``, ``Response``, ``ServerHop``, ``DbAck``, ``Tick``,
...) the kind is data, set when the message is built; the trace prints it.

``WorldBase`` holds what every world has: devices, engines, handlers, and
``_put``, the profile write into a store (``topology``'s database or device)
under the world's one ``retain``; ``DeviceWorld`` (``device.py``) builds on
it alone. ``CloudWorldBase`` is the cloud fleet of the SERVER and HYBRID
worlds: servers and frontend, the served-version index, the rollout, the
cloud jobs, runtime dispatch, and the one enrollment flow. That flow admits
the device's request, plans its legs, sends one enroll job per leg, keeps
each produced profile, answers enroll-response, and records the request or
resumes the runtime request it re-enrolled for. The worlds differ only in
where profiles are kept: ``server.py`` hops to the database (the audio
first, then a put per leg), while in ``hybrid.py`` the device keeps the
profiles when the response reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, ClassVar

from ..domain import AudioSample, Outcome, UserProfile, VersionId
from ..engine import EngineInstance
from ..kernel import SimRng, Simulator, node_stream
from ..metrics import RequestKind, RequestRecord
from ..topology import (
    CloudServerNode,
    DatabaseNode,
    DeviceNode,
    DispatchPolicy,
    FrontendNode,
    ModelRelease,
    ModelStorageNode,
)

if TYPE_CHECKING:
    from ..scenario import Scenario


class Deployment(Enum):
    DEVICE = "DEVICE"
    SERVER = "SERVER"
    HYBRID = "HYBRID"


class UpdatePolicy(Enum):
    SINGLE_OFFLINE = "SINGLE_OFFLINE"
    SINGLE_ONLINE = "SINGLE_ONLINE"
    DOUBLE = "DOUBLE"


class Mitigation(Enum):
    NONE = "NONE"
    SYNC_TABLE = "SYNC_TABLE"
    HASH_LB = "HASH_LB"
    MULTI_PROFILE = "MULTI_PROFILE"


@dataclass(frozen=True, slots=True)
class StrategyConfig:
    deployment: Deployment
    policy: UpdatePolicy
    mitigation: Mitigation = Mitigation.NONE
    dispatch: DispatchPolicy = DispatchPolicy.ROUND_ROBIN
    handshake_period_ms: int | None = None
    sync_table_period_ms: int | None = None


# node stream indices; every node's randomness is root_seed XOR one of these
FRONTEND_STREAM = 1
DB_STREAM = 2
STORAGE_STREAM = 3
CLOUD_STREAM_BASE = 16
DEVICE_STREAM_BASE = 4096
USER_STREAM_BASE = 65536


@dataclass(slots=True)
class ReenrollEvent:
    at: int
    user_id: str
    from_seq: int
    to_version: VersionId


class RunLog:
    """Everything a run observes: request records, re-enrollments, a bounce count,
    profile writes and maintenance windows. The Report is folded from this."""

    def __init__(self) -> None:
        self.records: list[RequestRecord] = []
        self.bounce_count = 0
        self.reenrolls: list[ReenrollEvent] = []
        self.profile_puts: list[tuple[int, str, int]] = []
        self._maintenance_open: int | None = None
        self._maintenance_total = 0

    def record(
        self,
        kind: RequestKind,
        user_id: str,
        submitted: int,
        completed: int,
        outcome: Outcome,
        reenrollments_in_path: int = 0,
    ) -> None:
        self.records.append(
            RequestRecord(kind, user_id, submitted, completed, outcome, reenrollments_in_path)
        )

    def log_reenroll(self, at: int, user_id: str, from_version: VersionId, to_version: VersionId) -> None:
        self.reenrolls.append(
            ReenrollEvent(at, user_id, from_version.seq, to_version)
        )
        if to_version.seq < from_version.seq:
            self.bounce_count += 1

    def log_put(self, at: int, user_id: str, version: VersionId) -> None:
        self.profile_puts.append((at, user_id, version.seq))

    def maintenance_begin(self, at: int) -> None:
        self._maintenance_open = at

    def maintenance_end(self, at: int) -> None:
        assert self._maintenance_open is not None
        self._maintenance_total += at - self._maintenance_open
        self._maintenance_open = None

    def maintenance_ms(self, horizon: int) -> int:
        total = self._maintenance_total
        if self._maintenance_open is not None:
            total += horizon - self._maintenance_open
        return total


# ---------------------------------------------------------------------------
# flow contexts

@dataclass(slots=True)
class EnrollCtx:
    user_id: str
    device_id: str
    submitted: int
    samples: tuple[AudioSample, ...]
    produced: list[UserProfile] = field(default_factory=list)
    plan: list[VersionId | None] = field(default_factory=list)
    pinned_server: str | None = None
    background: bool = False
    # the runtime request this in-path re-enrollment serves; None for a
    # request of its own, which is recorded
    parent: "RuntimeCtx | None" = None


@dataclass(slots=True)
class RuntimeCtx:
    """One runtime request: the speaking user's profiles, oldest first, and
    on the server side the stored audio and the profile repaired from it."""

    user_id: str
    device_id: str
    submitted: int
    sample: AudioSample
    profiles: list[UserProfile] = field(default_factory=list)
    audio: tuple[AudioSample, ...] = ()
    refreshed: UserProfile | None = None
    reenrolls: int = 0
    pinned_server: str | None = None


@dataclass(slots=True)
class HandshakeCtx:
    user_id: str
    device_id: str
    submitted: int


# ---------------------------------------------------------------------------
# message payloads: one class per hop shape. ``kind`` routes the event and is
# printed in its trace line; it is a field where one shape serves several
# kinds and a class constant otherwise.

@dataclass(slots=True)
class EnrollArrival:
    kind: ClassVar[str] = "enroll-arrival"
    user_id: str
    samples: tuple[AudioSample, ...]

    def summary(self) -> str:
        return f"user={self.user_id} samples={len(self.samples)}"


@dataclass(slots=True)
class RuntimeArrival:
    kind: ClassVar[str] = "runtime-arrival"
    user_id: str
    sample: AudioSample

    def summary(self) -> str:
        return f"user={self.user_id}"


@dataclass(slots=True)
class ReleasePayload:
    kind: ClassVar[str] = "release"
    version_id: str
    download_ms: int
    server_update_ms: tuple[int, int]

    def summary(self) -> str:
        return f"version={self.version_id}"


@dataclass(slots=True)
class VersionNotice:
    """notify-release (storage to device) or download-done (on the device)."""

    kind: str
    version: VersionId

    def summary(self) -> str:
        return f"version={self.version.id}"


@dataclass(slots=True)
class DeviceTaskDone:
    """Completion of a device-local engine task, ``task`` "enroll" or
    "runtime". A runtime task scores with the ``engine`` and ``profile`` it
    started with."""

    kind: ClassVar[str] = "device-task-done"
    task: str
    user_id: str
    submitted: int
    payload: EnrollArrival | RuntimeArrival
    engine: EngineInstance | None = None
    profile: UserProfile | None = None

    def summary(self) -> str:
        return f"task={self.task} user={self.user_id}"


@dataclass(slots=True)
class ServerUpdateDone:
    kind: ClassVar[str] = "server-update-done"
    server_id: str
    version: VersionId

    def summary(self) -> str:
        return f"server={self.server_id} version={self.version.id}"


@dataclass(slots=True)
class Tick:
    """A step whose only data is its summary ``note``: sync-tick, sweep-step,
    handshake-tick (its target names the device) or device-reenroll-done (the
    device's re-enroll queue names the user)."""

    kind: str
    note: str

    def summary(self) -> str:
        return self.note


SYNC_TICK = Tick("sync-tick", "periodic")
SWEEP_STEP = Tick("sweep-step", "next-user")


@dataclass(slots=True)
class SyncProbe:
    kind: ClassVar[str] = "sync-probe"
    round_id: int
    server_id: str

    def summary(self) -> str:
        return f"round={self.round_id} server={self.server_id}"


@dataclass(slots=True)
class SyncReply:
    kind: ClassVar[str] = "sync-reply"
    round_id: int
    server_id: str
    versions: tuple[VersionId, ...]

    def summary(self) -> str:
        served = ",".join(v.id for v in self.versions) or "-"
        return f"round={self.round_id} server={self.server_id} serves={served}"


@dataclass(slots=True)
class DispatchRetry:
    kind: ClassVar[str] = "dispatch-retry"
    ctx: object
    flow: str

    def summary(self) -> str:
        return f"flow={self.flow} user={self.ctx.user_id}"


@dataclass(slots=True)
class Request:
    """A request from the device: enroll-request, runtime-request or
    handshake-request."""

    kind: str
    ctx: EnrollCtx | RuntimeCtx | HandshakeCtx

    def summary(self) -> str:
        return f"user={self.ctx.user_id}"


@dataclass(slots=True)
class Response:
    """enroll-response (a hybrid device stores the ``produced`` profiles of
    its ctx) or runtime-response."""

    kind: str
    ctx: EnrollCtx | RuntimeCtx
    outcome: Outcome

    def summary(self) -> str:
        return f"user={self.ctx.user_id} outcome={self.outcome.value}"


@dataclass(slots=True)
class EnrollJob:
    kind: ClassVar[str] = "enroll-job"
    ctx: object
    server_id: str
    samples: tuple[AudioSample, ...]
    token: str

    def summary(self) -> str:
        return f"user={self.ctx.user_id} server={self.server_id} for={self.token}"


@dataclass(slots=True)
class EnrollJobDone:
    kind: ClassVar[str] = "enroll-job-done"
    ctx: object
    server_id: str
    profile: UserProfile
    token: str

    def summary(self) -> str:
        return (
            f"user={self.profile.user_id} server={self.server_id} "
            f"version={self.profile.version.id} for={self.token}"
        )


@dataclass(slots=True)
class ServerHop:
    """A runtime request bound to one server: recognize-job, or the
    retry-signal and retry-needed that send a stale hybrid profile back to
    its device."""

    kind: str
    ctx: RuntimeCtx
    server_id: str

    def summary(self) -> str:
        return f"user={self.ctx.user_id} server={self.server_id}"


@dataclass(slots=True)
class RecognizeJobDone:
    kind: ClassVar[str] = "recognize-job-done"
    ctx: RuntimeCtx
    server_id: str

    def summary(self) -> str:
        return (
            f"user={self.ctx.user_id} server={self.server_id} "
            f"reenrolled={int(self.ctx.refreshed is not None)}"
        )


@dataclass(slots=True)
class JobRejected:
    kind: ClassVar[str] = "job-rejected"
    ctx: object
    server_id: str
    flow: str

    def summary(self) -> str:
        return f"flow={self.flow} server={self.server_id}"


@dataclass(slots=True)
class HandshakeReply:
    kind: ClassVar[str] = "handshake-reply"
    ctx: HandshakeCtx
    versions: tuple[VersionId, ...]

    def summary(self) -> str:
        served = ",".join(v.id for v in self.versions) or "-"
        return f"user={self.ctx.user_id} serves={served}"


@dataclass(slots=True)
class DbStoreAudio:
    """Store the enrollment audio of ``ctx``."""

    kind: ClassVar[str] = "db-store-audio"
    token: str
    ctx: EnrollCtx

    def summary(self) -> str:
        return f"user={self.ctx.user_id} for={self.token}"


@dataclass(slots=True)
class DbAck:
    """db-store-ack or db-put-ack: the database is done; ``token`` names the
    flow step that continues."""

    kind: str
    token: str
    ctx: object

    def summary(self) -> str:
        return f"for={self.token}"


@dataclass(slots=True)
class DbFetch:
    kind: ClassVar[str] = "db-fetch"
    user_id: str
    token: str
    ctx: object

    def summary(self) -> str:
        return f"users={self.user_id} for={self.token}"


@dataclass(slots=True)
class DbFetchReply:
    """The fetched user's profiles and audio; both empty when the user has no
    row yet. A row always has audio, so ``rows`` counts it by that."""

    kind: ClassVar[str] = "db-fetch-reply"
    profiles: list[UserProfile]
    audio: tuple[AudioSample, ...]
    token: str
    ctx: object

    def summary(self) -> str:
        return f"rows={int(bool(self.audio))} for={self.token}"


@dataclass(slots=True)
class DbPutProfile:
    kind: ClassVar[str] = "db-put-profile"
    profile: UserProfile
    token: str
    ctx: object

    def summary(self) -> str:
        p = self.profile
        return f"{p.user_id}@{p.version.id} for={self.token}"


# ---------------------------------------------------------------------------


class WorldBase:
    """One wired deployment. Subclasses register handlers per message kind
    and implement the flows; this base owns the devices, engine caching, the
    handler table and the profile writes."""

    # profiles the world's store keeps per user (None: unbounded)
    retain: int | None = 1

    def __init__(self, scenario: "Scenario", sim: Simulator, storage: ModelStorageNode, log: RunLog):
        self.sc = scenario
        self.sim = sim
        self.storage = storage
        self.log = log
        self.cfg = scenario.strategy
        self._engines: dict[VersionId, EngineInstance] = {}
        self._handlers: dict[str, Callable[[str, object], None]] = {}

        self.user_ids = [f"u{i:03d}" for i in range(scenario.users)]
        self.devices: dict[str, DeviceNode] = {}
        self.device_rng: dict[str, SimRng] = {}
        self.user_device: dict[str, str] = {}
        device_ids = [f"d{i:02d}" for i in range(scenario.devices)]
        # event targets, built once so scheduled events share one string each
        self._device_targets = {device_id: f"device:{device_id}" for device_id in device_ids}
        initial = storage.releases[0].version
        for j, device_id in enumerate(device_ids):
            # round-robin ownership: user i lives on device i % devices
            owners = self.user_ids[j :: scenario.devices]
            self.devices[device_id] = DeviceNode(device_id, owners, initial)
            self.device_rng[device_id] = node_stream(scenario.seed, DEVICE_STREAM_BASE + j)
            for u in owners:
                self.user_device[u] = device_id
        self.storage_rng = node_stream(scenario.seed, STORAGE_STREAM)

    # -- wiring helpers

    def on(self, kind: str, handler: Callable) -> None:
        self._handlers[kind] = handler

    def handle(self, target: str, payload) -> None:
        self._handlers[payload.kind](target, payload)

    def engine_for(self, version: VersionId) -> EngineInstance:
        engine = self._engines.get(version)
        if engine is None:
            engine = EngineInstance(
                model=version,
                enroll_cost_ms_per_sample=self.sc.enroll_cost_ms_per_sample,
                runtime_cost_ms=self.sc.runtime_cost_ms,
            )
            self._engines[version] = engine
        return engine

    def device_target(self, device_id: str) -> str:
        return self._device_targets[device_id]

    def _put(self, store: "DatabaseNode | DeviceNode", profile: UserProfile) -> None:
        """Keep ``profile`` in the world's store under ``retain`` and log the write."""
        store.put_profile(profile, self.retain)
        self.log.log_put(self.sim.now, profile.user_id, profile.version)


class CloudWorldBase(WorldBase):
    """A world with a cloud fleet behind the frontend; the one fleet that the
    SERVER and HYBRID deployments share. It owns the servers and their rng
    streams, the frontend, the served-version index, release serialization,
    the rollout, the cloud job handlers, the enrollment flow, the runtime
    dispatch (single-version and DOUBLE) and the runtime response path.

    Single-version policies run one server group, all on the initial version,
    and a release updates every server at once, each for its own drawn
    duration. DOUBLE splits the fleet into two fixed groups that serve two
    consecutive versions, and a release rolls the group on the older one.
    Either way a release is done when its last server is, unless the world
    holds it open (bulk re-enrollment, profile sweep).
    """

    def __init__(self, scenario: "Scenario", sim: Simulator, storage: ModelStorageNode, log: RunLog):
        super().__init__(scenario, sim, storage, log)
        server_ids = [f"s{i:02d}" for i in range(scenario.cloud_servers)]
        if self.cfg.policy is UpdatePolicy.DOUBLE:
            # the first group, one larger when the count is odd, starts on the
            # older initial version
            half = (len(server_ids) + 1) // 2
            self.groups = [server_ids[:half], server_ids[half:]]
        else:
            self.groups = [server_ids]
        self._cloud_targets = {sid: f"cloud:{sid}" for sid in server_ids}
        self.clouds: dict[str, CloudServerNode] = {}
        for g, members in enumerate(self.groups):
            engine = self.engine_for(storage.releases[g].version)
            for sid in members:
                self.clouds[sid] = CloudServerNode(sid, engine)
        self.cloud_rng: dict[str, SimRng] = {
            sid: node_stream(scenario.seed, CLOUD_STREAM_BASE + i)
            for i, sid in enumerate(server_ids)
        }
        self.frontend = FrontendNode(
            server_ids, self.cfg.dispatch, node_stream(scenario.seed, FRONTEND_STREAM)
        )
        self.pending_releases: list[ModelRelease] = []
        self.active_release: ModelRelease | None = None
        self._update_remaining: set[str] = set()
        self._index_served()
        self._conts: dict[str, Callable] = {self.leg_token: self._enroll_leg_done}
        self.on("enroll-arrival", self._on_enroll_arrival)
        self.on("enroll-request", self._on_enroll_request)
        self.on("enroll-job-done", self._continue)
        self.on("enroll-response", self._on_enroll_response)
        self.on("runtime-arrival", self._on_runtime_arrival)
        self.on("runtime-request", self._on_runtime_request)
        self.on("release", self._on_release)
        self.on("server-update-done", self._on_server_update_done)
        self.on("enroll-job", self._on_enroll_job)
        self.on("recognize-job", self._on_recognize_job)
        self.on("recognize-job-done", self._on_recognize_done)
        self.on("runtime-response", self._on_runtime_response)

    # -- one-hop sends: each hop has its link's latency model and draws the
    # latency from the sending node's stream

    def _device_to_frontend(self, device_id: str, payload) -> None:
        delay = self.sc.latency.device_frontend.sample(self.device_rng[device_id])
        self.sim.schedule(self.sim.now + delay, "frontend", payload)

    def _frontend_to_device(self, device_id: str, payload) -> None:
        delay = self.sc.latency.device_frontend.sample(self.frontend.rng)
        self.sim.schedule(self.sim.now + delay, self._device_targets[device_id], payload)

    def _frontend_to_cloud(self, server_id: str, payload) -> None:
        delay = self.sc.latency.frontend_cloud.sample(self.frontend.rng)
        self.sim.schedule(self.sim.now + delay, self._cloud_targets[server_id], payload)

    def _cloud_to_frontend(self, server_id: str, payload, extra_delay: int = 0) -> None:
        delay = self.sc.latency.frontend_cloud.sample(self.cloud_rng[server_id])
        self.sim.schedule(self.sim.now + extra_delay + delay, "frontend", payload)

    # -- served-version index; rebuilt whenever a server begins or completes
    # an update, so readers never scan the fleet

    def _index_served(self) -> None:
        models: dict[int, VersionId] = {}
        serving: dict[int, list[str]] = {}
        for sid in self.frontend.server_ids:
            server = self.clouds[sid]
            if not server.updating:
                model = server.engine.model
                models[model.seq] = model
                serving.setdefault(model.seq, []).append(sid)
        # oldest first; the lists are shared with readers, who never mutate them
        self.served_versions: list[VersionId] = [models[seq] for seq in sorted(models)]
        self._serving = serving

    def servers_serving(self, version: VersionId) -> list[str]:
        """Servers not mid-update that run ``version``, in server-id order."""
        return self._serving.get(version.seq, [])

    # -- releases, rolled out one at a time in registration order

    def _on_release(self, target, msg: ReleasePayload):
        release = self.storage.register(
            msg.version_id, self.sim.now, msg.download_ms, msg.server_update_ms
        )
        if self.active_release is not None:
            self.pending_releases.append(release)
            return
        self.active_release = release
        self._begin_release(release)

    def finish_release(self) -> None:
        self.active_release = None
        if self.pending_releases:
            self.active_release = self.pending_releases.pop(0)
            self._begin_release(self.active_release)

    def _begin_release(self, release: ModelRelease) -> None:
        # releases are serialized, so no server is mid-update here and every
        # server of a group runs the group's version: roll the older group
        members = min(self.groups, key=lambda group: self.clouds[group[0]].engine.model.seq)
        self._update_remaining = set(members)
        for sid in members:
            self._start_server_update(sid, release)

    def _start_server_update(self, server_id: str, release: ModelRelease) -> None:
        duration = release.draw_update_duration(self.cloud_rng[server_id])
        self.clouds[server_id].begin_update(self.engine_for(release.version))
        self._index_served()
        self.sim.schedule(
            self.sim.now + duration,
            self._cloud_targets[server_id],
            ServerUpdateDone(server_id=server_id, version=release.version),
        )

    def _on_server_update_done(self, target, msg: ServerUpdateDone):
        self.clouds[msg.server_id].complete_update()
        self._index_served()
        self._update_remaining.discard(msg.server_id)
        self._after_server_updated()

    def _after_server_updated(self) -> None:
        if not self._update_remaining:
            self.finish_release()

    # -- cloud jobs; a server mid-update still serves on its old engine

    def _on_enroll_job(self, target, msg: EnrollJob):
        engine = self.clouds[msg.server_id].engine
        profile = engine.enroll(msg.ctx.user_id, msg.samples)
        self._cloud_to_frontend(
            msg.server_id,
            EnrollJobDone(ctx=msg.ctx, server_id=msg.server_id, profile=profile, token=msg.token),
            extra_delay=engine.enroll_duration_ms(len(msg.samples)),
        )

    def _on_recognize_job(self, target, msg: ServerHop):
        server_id, ctx = msg.server_id, msg.ctx
        work = self._service_runtime(self.clouds[server_id].engine, ctx)
        if work is None:
            self._cloud_to_frontend(server_id, ServerHop("retry-signal", ctx, server_id))
            return
        self._cloud_to_frontend(
            server_id, RecognizeJobDone(ctx=ctx, server_id=server_id), extra_delay=work
        )

    def _service_runtime(self, engine: EngineInstance, ctx: RuntimeCtx) -> int | None:
        """Score the request on ``engine`` with the user's profile for the
        engine's version; returns the compute time. The user has profiles
        (a request without any is answered before dispatch). Without one for
        this version the request goes through ``_stale_profile``, and None
        from there sends it back to the device."""
        work = engine.runtime_cost_ms
        profile = next((p for p in ctx.profiles if p.version == engine.model), None)
        if profile is None:
            repaired = self._stale_profile(engine, ctx)
            if repaired is None:
                return None
            profile, cost = repaired
            work += cost
        engine.recognize(ctx.sample, {ctx.user_id: profile})
        return work

    def _stale_profile(
        self, engine: EngineInstance, ctx: RuntimeCtx
    ) -> tuple[UserProfile, int] | None:
        """The user holds no profile for ``engine``: return the profile to
        score and the compute spent getting it, or None to bounce the request.
        By default the newest profile goes through and the engine's version
        check is the tripwire; dispatch keeps correct worlds from this."""
        return ctx.profiles[-1], 0

    # -- enrollment, one flow for every cloud world: the frontend admits the
    # device's request, plans its legs and sends one enroll job per leg,
    # keeps each produced profile, and answers enroll-response; the device
    # records the request, or resumes the runtime request it re-enrolled for.
    # A world names where its profiles are kept by the hops it takes there:
    # ``_store_audio`` before the legs, ``_store_leg`` after each one, and
    # ``_store_produced`` at the response. By default each keeps nothing and
    # the flow goes straight on.

    leg_token = "leg"  # the continuation of an enroll job, printed as ``for=``

    def _on_enroll_arrival(self, target, msg: EnrollArrival):
        self._request_enroll(target.split(":", 1)[1], msg.user_id, msg.samples)

    def _request_enroll(self, device_id: str, user_id: str, samples, **flow) -> None:
        """The device sends an enroll-request; ``flow`` sets the ``EnrollCtx``
        fields of a background or in-path re-enrollment."""
        ctx = EnrollCtx(user_id, device_id, self.sim.now, samples, **flow)
        self._device_to_frontend(device_id, Request("enroll-request", ctx))

    def _on_enroll_request(self, target, msg: Request):
        self._store_audio(msg.ctx)

    def _store_audio(self, ctx: EnrollCtx) -> None:
        self._start_enroll(ctx)

    def _start_enroll(self, ctx: EnrollCtx) -> None:
        """Plan the legs, unless the request brought its plan, and send the
        first. The plan is one leg on any server for the single-version
        policies, and one leg per served version, oldest first, for DOUBLE."""
        if not ctx.plan:
            double = self.cfg.policy is UpdatePolicy.DOUBLE
            ctx.plan = self.served_versions[-2:] if double else [None]
        self._next_enroll_leg(ctx)

    def _next_enroll_leg(self, ctx: EnrollCtx) -> None:
        """Send the enroll job for the next leg of ``ctx.plan``: to the pinned
        server, else to a live server of the leg's version (of any version
        for None). A leg whose version no server serves is skipped. Once the
        plan is used up, answer the device."""
        while ctx.plan:
            version = ctx.plan.pop(0)
            if ctx.pinned_server is not None:
                server_id = ctx.pinned_server
            else:
                eligible = (
                    self.frontend.server_ids if version is None else self.servers_serving(version)
                )
                if not eligible:
                    continue
                server_id = self.frontend.choose(ctx.user_id, eligible)
            self._send_enroll_job(server_id, ctx, ctx.samples, self.leg_token)
            return
        self._respond_enroll(ctx, Outcome.OK)

    def _send_enroll_job(self, server_id: str, ctx, samples, token: str) -> None:
        self._frontend_to_cloud(server_id, EnrollJob(ctx, server_id, samples, token))

    def _continue(self, target, msg) -> None:
        """Go on with the flow step that the reply's ``token`` names."""
        self._conts[msg.token](msg)

    def _enroll_leg_done(self, msg: EnrollJobDone) -> None:
        msg.ctx.produced.append(msg.profile)
        self._store_leg(msg.ctx, msg.profile)

    def _store_leg(self, ctx: EnrollCtx, profile: UserProfile) -> None:
        self._next_enroll_leg(ctx)

    def _respond_enroll(self, ctx: EnrollCtx, outcome: Outcome) -> None:
        self._frontend_to_device(ctx.device_id, Response("enroll-response", ctx, outcome))

    def _on_enroll_response(self, target, msg: Response):
        ctx = msg.ctx
        self._store_produced(ctx)
        if ctx.parent is None:
            now = self.sim.now
            self.log.record(RequestKind.ENROLL, ctx.user_id, ctx.submitted, now, msg.outcome)
            return
        parent = ctx.parent
        parent.reenrolls += 1
        parent.profiles = list(self.devices[ctx.device_id].profiles_for(ctx.user_id))
        self._device_to_frontend(ctx.device_id, Request("runtime-request", parent))

    def _store_produced(self, ctx: EnrollCtx) -> None:
        """Keep the produced profiles when the response reaches the device."""

    # -- runtime requests: the device sends the profiles it holds, which are
    # none outside HYBRID; a world that keeps them elsewhere fetches them
    # before dispatch

    def _on_runtime_arrival(self, target, msg: RuntimeArrival):
        device_id = target.split(":", 1)[1]
        profiles = list(self.devices[device_id].profiles_for(msg.user_id))
        ctx = RuntimeCtx(msg.user_id, device_id, self.sim.now, msg.sample, profiles)
        self._device_to_frontend(device_id, Request("runtime-request", ctx))

    def _on_runtime_request(self, target, msg: Request):
        self._dispatch_runtime(msg.ctx)

    def _send_recognize_job(self, server_id: str, ctx: RuntimeCtx) -> None:
        self._frontend_to_cloud(server_id, ServerHop("recognize-job", ctx, server_id))

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        """Single-version dispatch: to the pinned server, else to any server."""
        fe = self.frontend
        self._send_recognize_job(ctx.pinned_server or fe.choose(ctx.user_id, fe.server_ids), ctx)

    def _dispatch_to_common_version(self, ctx: RuntimeCtx) -> bool:
        """DOUBLE dispatch: send the request to a live server of the newest
        served version the user has a profile for. False when no served
        version qualifies."""
        held = {p.version.seq for p in ctx.profiles}
        usable = [v for v in self.served_versions if v.seq in held]
        if not usable:
            return False
        server_id = self.frontend.choose(ctx.user_id, self.servers_serving(usable[-1]))
        self._send_recognize_job(server_id, ctx)
        return True

    # -- runtime responses

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        self._respond_runtime(msg.ctx, Outcome.OK)

    def _respond_runtime(self, ctx: RuntimeCtx, outcome: Outcome) -> None:
        self._frontend_to_device(ctx.device_id, Response("runtime-response", ctx, outcome))

    def _on_runtime_response(self, target, msg: Response):
        ctx = msg.ctx
        self.log.record(
            RequestKind.RUNTIME,
            ctx.user_id,
            ctx.submitted,
            self.sim.now,
            msg.outcome,
            reenrollments_in_path=ctx.reenrolls,
        )
