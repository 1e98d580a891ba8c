"""Shared machinery for the strategy controllers: configuration, the message
vocabulary that travels on the event queue, and the world base classes
that wire nodes to the simulator. The worlds tell ``metrics.RunLog`` what
happens; what is counted or kept is decided there.

A "world" is one deployment wired up: nodes, their rng streams, and the
handler table that routes every executed event by its message ``kind`` to
the world's method named for it, dashes written as underscores: kind
``recognize-job-done`` goes to ``_on_recognize_job_done``.
Request flows are chains of messages. Each hop is one traced event that
``Simulator.send`` queues on its link, with the latency drawn from the
sending node's stream. A flow's context object (``EnrollCtx``,
``RuntimeCtx``, ``HandshakeCtx``, the sync table's ``SyncProbe``, and the
re-enrollment pump's ``server._SweepCtx``) is itself the message of every
hop of the flow, so node handlers stay stateless between hops: just before
it sends, the sender sets the hop's ``kind`` on the context, with the server
id, the continuation ``token`` or the outcome the hop carries, and a handler
writes what its node produced (fetched profiles, an enrolled profile) onto it.
That is sound because a flow has at most one message queued at a time, and
its trace line is printed before the handler moves the context on to its
next hop. A request's context is also its arrival: the runner schedules each
user's ``EnrollCtx`` as its enroll-arrival and feeds each ``RuntimeCtx`` as
its runtime-arrival, and on a DEVICE it is also its device-task-done. The
hops outside a flow (releases, server updates, ticks) have one message class
per shape.

``WorldBase`` holds what every world has: the users, the ``initial``
versions, numbered 1..n, each device's link stream and event target, the
ownership rule ``device_of`` and its inverse ``owners_of``, engines,
handlers, and ``_put``, the profile write into a store (``topology``'s
database or device) under the world's one ``retain``. Only the worlds that
keep profiles on the devices build device nodes: the hybrid worlds and
``DeviceWorld`` (``device.py``), which builds on the base alone.
``CloudWorldBase`` is the cloud fleet of the SERVER and HYBRID worlds: the
servers, kept as two tables (each one's engine in ``engines``, the ones
mid-update in ``updating``), the frontend, the served-version index, the
rollout, the cloud jobs, runtime dispatch, and the one enrollment flow.
That flow admits the device's request, plans its legs, sends one enroll job
per leg, keeps each produced profile, answers enroll-response, and records
the request. The worlds differ only in where profiles are kept:
``server.py`` hops to the database (the audio first, then a put per leg),
while in ``hybrid.py`` the device keeps the profiles when the response
reaches it, and resumes the runtime request that an in-path re-enrollment
served.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, ClassVar

from ..domain import Outcome, UserProfile, VersionId
from ..engine import EngineInstance, EnrollmentAudio
from ..kernel import SimRng, Simulator, node_stream
from ..metrics import RunLog
from ..topology import DatabaseNode, DeviceNode, DispatchPolicy, FrontendNode, ModelRelease

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
    deployment: Deployment = Deployment.SERVER
    policy: UpdatePolicy = UpdatePolicy.SINGLE_ONLINE
    mitigation: Mitigation = Mitigation.NONE
    dispatch: DispatchPolicy = DispatchPolicy.ROUND_ROBIN
    handshake_period_ms: int | None = None
    sync_table_period_ms: int = 1000


# node stream indices; every node's randomness is root_seed XOR one of these
FRONTEND_STREAM = 1
DB_STREAM = 2
STORAGE_STREAM = 3
CLOUD_STREAM_BASE = 16
DEVICE_STREAM_BASE = 4096
USER_STREAM_BASE = 65536

# outcomes bound once as module names: a read through the enum class goes
# through ``EnumType``'s attribute hook and costs about 10x a plain name
OK = Outcome.OK
MAINTENANCE = Outcome.MAINTENANCE
STALE_PROFILES = Outcome.STALE_PROFILES


# ---------------------------------------------------------------------------
# flow contexts. Each is the message of every hop of its flow: the sender
# sets the hop's ``kind`` on it, with the ``server_id`` and the continuation
# ``token`` the hop carries, and the trace prints the summary that
# ``_SUMMARIES`` gives for the kind.


def _user(ctx) -> str:
    return f"user={ctx.user_id}"


def _answered(ctx) -> str:
    # ``_value_`` is a plain attribute; ``Enum.value`` is a slower property
    return f"user={ctx.user_id} outcome={ctx.outcome._value_}"


def _on_server(ctx) -> str:
    return f"user={ctx.user_id} server={ctx.server_id}"


def _acked(ctx) -> str:
    return f"for={ctx.token}"


def _serves(ctx) -> str:
    return ",".join([v.id for v in ctx.versions]) or "-"


def _round(ctx) -> str:
    return f"round={ctx.round_id} server={ctx.server_id}"


_SUMMARIES: dict[str, Callable[..., str]] = {
    "enroll-arrival": lambda c: f"user={c.user_id} samples={len(c.audio)}",
    "runtime-arrival": _user,
    "enroll-request": _user,
    "runtime-request": _user,
    "handshake-request": _user,
    "enroll-response": _answered,
    "runtime-response": _answered,
    "recognize-job": _on_server,
    "retry-signal": _on_server,
    "retry-needed": _on_server,
    "recognize-job-done": lambda c: (
        f"user={c.user_id} server={c.server_id} reenrolled={'1' if c.produced else '0'}"
    ),
    "handshake-reply": lambda c: f"user={c.user_id} serves={_serves(c)}",
    "device-task-done": lambda c: f"task={c.flow} user={c.user_id}",
    "sync-probe": _round,
    "sync-reply": lambda c: f"{_round(c)} serves={'-' if c.version is None else c.version.id}",
    "dispatch-retry": lambda c: f"flow={c.flow} user={c.user_id}",
    "job-rejected": lambda c: f"flow={c.flow} server={c.server_id}",
    "enroll-job": lambda c: f"user={c.user_id} server={c.server_id} for={c.token}",
    "enroll-job-done": lambda c: (
        f"user={c.user_id} server={c.server_id} "
        f"version={c.produced[-1].version.id} for={c.token}"
    ),
    "db-store-audio": lambda c: f"user={c.user_id} for={c.token}",
    "db-store-ack": _acked,
    "db-put-ack": _acked,
    "db-fetch": lambda c: f"users={c.user_id} for={c.token}",
    # a stored user always has audio, so ``rows`` counts the user by that
    "db-fetch-reply": lambda c: f"rows={'1' if c.audio else '0'} for={c.token}",
    "db-put-profile": lambda c: f"{c.user_id}@{c.produced[-1].version.id} for={c.token}",
}


class FlowCtx:
    """A flow context, traced by the summary of its hop's kind."""

    __slots__ = ()

    def summary(self) -> str:
        return _SUMMARIES[self.kind](self)


@dataclass(slots=True)
class EnrollCtx(FlowCtx):
    """One enrollment flow: its ``audio``, the versions of its legs still to
    send (None: any server), and the profiles made so far; tuples that a leg
    replaces. It is the message of enroll-arrival (a user's own request
    only), enroll-request, enroll-job and enroll-job-done, job-rejected and
    dispatch-retry, the database's store-audio and put hops and their acks,
    and enroll-response, the last with the ``outcome`` answered. On a DEVICE
    it is the message of enroll-arrival and of the device-task-done that
    enrolls on its one leg's version."""

    flow: ClassVar[str] = "enroll"
    user_id: str
    device_id: str
    submitted: int
    audio: EnrollmentAudio
    plan: tuple[VersionId | None, ...] = ()
    background: bool = False
    # the runtime request this in-path re-enrollment serves, whose server its
    # leg goes to; None for a request of its own, which is recorded
    parent: "RuntimeCtx | None" = None
    produced: tuple[UserProfile, ...] = ()
    kind: str = "enroll-arrival"
    server_id: str | None = None
    token: str = ""
    outcome: Outcome | None = None


@dataclass(slots=True)
class RuntimeCtx(FlowCtx):
    """One runtime request: the speaking user's profiles, oldest first, and
    on the server side the fetched audio and the profile ``produced`` from
    it by a repair. The profiles are the store's own tuple, shared and never
    changed. It is the message of runtime-arrival and runtime-request, the
    database's fetch and put hops and their replies, recognize-job and
    recognize-job-done, job-rejected and dispatch-retry, the retry-signal and
    retry-needed that send a stale hybrid profile back to its device, and
    runtime-response, the last with the ``outcome`` answered. On a DEVICE
    it is the message of runtime-arrival and device-task-done."""

    flow: ClassVar[str] = "runtime"
    user_id: str
    device_id: str
    submitted: int
    profiles: tuple[UserProfile, ...] = ()
    audio: EnrollmentAudio | tuple[()] = ()
    produced: tuple[UserProfile, ...] = ()
    reenrolls: int = 0
    kind: str = "runtime-arrival"
    server_id: str | None = None
    token: str = ""
    outcome: Outcome | None = None


@dataclass(slots=True)
class HandshakeCtx(FlowCtx):
    """One handshake: the message of handshake-request, and of the
    handshake-reply that brings the served ``versions`` back."""

    user_id: str
    device_id: str
    submitted: int
    kind: str = "handshake-request"
    versions: tuple[VersionId, ...] = ()


@dataclass(slots=True)
class SyncProbe(FlowCtx):
    """One server's part of a sync-table refresh round, built for it alone:
    the message of sync-probe, and of the sync-reply that brings back the
    ``version`` it serves (None while it is mid-update)."""

    round_id: int
    server_id: str
    kind: str = "sync-probe"
    version: VersionId | None = None


# ---------------------------------------------------------------------------
# the messages of the hops outside a flow: one class per hop shape. ``kind``
# routes the event and is printed in its trace line; it is a field where one
# shape serves several kinds and a class constant otherwise. A release's
# message is its ``topology.ModelRelease``, numbered when the run is built.

@dataclass(slots=True)
class VersionNotice:
    """notify-release (storage to device) or download-done (on the device)."""

    kind: str
    version: VersionId

    def summary(self) -> str:
        return f"version={self.version.id}"


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


# ---------------------------------------------------------------------------


class WorldBase:
    """One wired deployment. Subclasses implement the flows and handle each
    message kind ``K`` in a method ``_on_K`` (dashes written as underscores,
    as ``ast.NodeVisitor`` names its ``visit_<Name>`` methods); this base
    owns the users and devices and the rule that puts each user on a device,
    engine caching, the handler table it derives from those names, and the
    profile writes."""

    # profiles the world's store keeps per user (None: unbounded)
    retain: int | None = 1
    # message kind -> handler function, one table per class; plain functions,
    # so no world refers to itself and a finished one is freed by refcount
    _handlers: ClassVar[dict[str, Callable[["WorldBase", str, object], None]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {
            sys.intern(name[4:].replace("_", "-")): getattr(cls, name)
            for name in dir(cls) if name.startswith("_on_")
        }

    def __init__(self, scenario: "Scenario", sim: Simulator, log: RunLog):
        self.sc = scenario
        self.sim = sim
        self.log = log
        self.cfg = scenario.strategy
        self._engines: dict[VersionId, EngineInstance] = {}
        # the initial versions, numbered 1..n; the runner numbers each
        # release after them, in schedule order
        self.initial = tuple(VersionId(v, i) for i, v in enumerate(scenario.initial_versions, 1))

        self.user_ids = [f"u{i:03d}" for i in range(scenario.users)]
        self.device_ids = [f"d{i:02d}" for i in range(scenario.devices)]
        # each device's event target, built once so scheduled events share
        # one string each, and its link stream
        self.device_targets = {device_id: f"device:{device_id}" for device_id in self.device_ids}
        self.device_rng: dict[str, SimRng] = {
            device_id: node_stream(scenario.seed, DEVICE_STREAM_BASE + j)
            for j, device_id in enumerate(self.device_ids)
        }

    def device_of(self, user_id: str) -> str:
        """The ownership rule: user i lives on device i mod devices."""
        return self.device_ids[int(user_id[1:]) % len(self.device_ids)]

    def owners_of(self, device_id: str) -> list[str]:
        """The users ``device_of`` puts on ``device_id``, in user order."""
        return self.user_ids[int(device_id[1:]) :: len(self.device_ids)]

    def _build_devices(self) -> None:
        """Build the device nodes of a world whose profiles live on the
        devices, and map each event target back to its device's one id string."""
        self.devices = {d: DeviceNode() for d in self.device_ids}
        self._device_ids = {target: d for d, target in self.device_targets.items()}

    # -- wiring helpers

    def handle(self, target: str, payload) -> None:
        self._handlers[payload.kind](self, target, payload)

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

    def _put(self, store: "DatabaseNode | DeviceNode", profile: UserProfile) -> None:
        """Keep ``profile`` in the world's store under ``retain`` and log the write."""
        store.put_profile(profile, self.retain)
        self.log.profile_stored(self.sim.now, profile.user_id, profile.version)


class CloudWorldBase(WorldBase):
    """A world with a cloud fleet behind the frontend; the one fleet that the
    SERVER and HYBRID deployments share. It owns the servers and their rng
    streams, the frontend, the served-version index, release serialization,
    the rollout, the cloud job handlers, the enrollment flow, the runtime
    dispatch (single-version and DOUBLE) and the runtime response path.

    A server is its id, the key of two tables: ``engines``, the engine it
    serves on, and ``updating``, the servers mid-update. A server mid-update
    keeps serving on its old engine, and its ``server-update-done`` swaps in
    the release's engine. Every server hop carries the server's id.

    A single-version world runs one server group on the initial version, and
    a release updates every server at once, each for its own drawn duration.
    A ``double`` world (DOUBLE) splits the fleet into two fixed groups that
    serve two consecutive versions, and a release rolls the older group. A
    release is done when its last server is, unless the world holds it open.
    """

    double = False

    def __init__(self, scenario: "Scenario", sim: Simulator, log: RunLog):
        super().__init__(scenario, sim, log)
        server_ids = [f"s{i:02d}" for i in range(scenario.cloud_servers)]
        if self.double:
            # the first group, one larger when the count is odd, starts on the
            # older initial version
            half = (len(server_ids) + 1) // 2
            self.groups = [server_ids[:half], server_ids[half:]]
        else:
            self.groups = [server_ids]
        self._cloud_targets = {sid: f"cloud:{sid}" for sid in server_ids}
        self.engines: dict[str, EngineInstance] = {
            sid: self.engine_for(self.initial[g])
            for g, members in enumerate(self.groups)
            for sid in members
        }
        self.cloud_rng: dict[str, SimRng] = {
            sid: node_stream(scenario.seed, CLOUD_STREAM_BASE + i)
            for i, sid in enumerate(server_ids)
        }
        self.frontend = FrontendNode(
            server_ids, self.cfg.dispatch, node_stream(scenario.seed, FRONTEND_STREAM)
        )
        self._device_link = scenario.latency.device_frontend
        self._cloud_link = scenario.latency.frontend_cloud
        self.pending_releases: list[ModelRelease] = []
        self.active_release: ModelRelease | None = None
        self.updating: set[str] = set()
        self._index_served()
        # token -> step function, unbound for the same reason as ``_handlers``
        self._conts: dict[str, Callable] = {self.leg_token: type(self)._store_leg}

    # -- one-hop sends: each hop goes out on its link through
    # ``Simulator.send``, which draws the latency from the sending node's
    # stream; ``extra`` is the sender's compute time before it sends

    def _device_to_frontend(self, device_id: str, payload) -> None:
        self.sim.send(self._device_link, self.device_rng[device_id], "frontend", payload)

    def _frontend_to_device(self, device_id: str, payload) -> None:
        target = self.device_targets[device_id]
        self.sim.send(self._device_link, self.frontend.rng, target, payload)

    def _frontend_to_cloud(self, server_id: str, payload) -> None:
        target = self._cloud_targets[server_id]
        self.sim.send(self._cloud_link, self.frontend.rng, target, payload)

    def _cloud_to_frontend(self, server_id: str, payload, extra: int = 0) -> None:
        self.sim.send(self._cloud_link, self.cloud_rng[server_id], "frontend", payload, extra)

    # -- served-version index; rebuilt whenever a server begins or completes
    # an update, so readers never scan the fleet

    def _index_served(self) -> None:
        models: dict[int, VersionId] = {}
        serving: dict[int, list[str]] = {}
        for sid in self.frontend.server_ids:
            if sid not in self.updating:
                model = self.engines[sid].model
                models[model.seq] = model
                serving.setdefault(model.seq, []).append(sid)
        # oldest first; the lists are shared with readers, who never mutate them
        self.served_versions = tuple(models[seq] for seq in sorted(models))
        self._serving = serving

    def servers_serving(self, version: VersionId) -> list[str]:
        """Servers not mid-update that run ``version``, in server-id order."""
        return self._serving.get(version.seq, [])

    # -- releases, rolled out one at a time in schedule order

    def _on_release(self, target, release: ModelRelease):
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
        members = min(self.groups, key=lambda group: self.engines[group[0]].model.seq)
        self.updating = set(members)
        self._index_served()
        for sid in members:
            at = self.sim.now + release.draw_update_duration(self.cloud_rng[sid])
            self.sim.schedule(at, self._cloud_targets[sid], ServerUpdateDone(sid, release.version))

    def _on_server_update_done(self, target, msg: ServerUpdateDone):
        self.engines[msg.server_id] = self.engine_for(msg.version)
        self.updating.discard(msg.server_id)
        self._index_served()
        self._after_server_updated()

    def _after_server_updated(self) -> None:
        if not self.updating:
            self.finish_release()

    # -- cloud jobs; a server mid-update still serves on its old engine

    def _on_enroll_job(self, target, ctx):
        engine = self.engines[ctx.server_id]
        ctx.produced += (engine.enroll(ctx.user_id, ctx.audio),)
        ctx.kind = "enroll-job-done"
        self._cloud_to_frontend(ctx.server_id, ctx, engine.enroll_duration_ms(len(ctx.audio)))

    def _on_recognize_job(self, target, ctx: RuntimeCtx):
        work = self._service_runtime(self.engines[ctx.server_id], ctx)
        ctx.kind = "retry-signal" if work is None else "recognize-job-done"
        self._cloud_to_frontend(ctx.server_id, ctx, work or 0)

    def _service_runtime(self, engine: EngineInstance, ctx: RuntimeCtx) -> int | None:
        """Recognize the request on ``engine`` with the user's profile for the
        engine's version; returns the compute time. The user has profiles
        (a request without any is answered before dispatch). Without one for
        this version the request goes through ``_stale_profile``, and None
        from there sends it back to the device."""
        work = engine.runtime_cost_ms
        model = engine.model
        for profile in ctx.profiles:
            if profile.version == model:
                break
        else:
            repaired = self._stale_profile(engine, ctx)
            if repaired is None:
                return None
            profile, cost = repaired
            work += cost
        engine.recognize(profile)
        return work

    def _stale_profile(
        self, engine: EngineInstance, ctx: RuntimeCtx
    ) -> tuple[UserProfile, int] | None:
        """The user holds no profile for ``engine``: return the profile to
        recognize and the compute spent getting it, or None to bounce the request.
        By default the newest profile goes through and the engine's version
        check is the tripwire; dispatch keeps correct worlds from this."""
        return ctx.profiles[-1], 0

    # -- enrollment, one flow for every cloud world: the frontend admits the
    # device's request, plans its legs and sends one enroll job per leg,
    # keeps each produced profile, and answers enroll-response; the device
    # records the request (a hybrid device first keeps the profiles, and
    # resumes the runtime request that an in-path re-enrollment served).
    # A world names where its profiles are kept by the hops it takes there:
    # ``_store_audio`` before the legs and ``_store_leg`` after each one. By
    # default each keeps nothing and the flow goes straight on.

    leg_token = "leg"  # the continuation of an enroll job, printed as ``for=``

    def _on_enroll_arrival(self, target, ctx: EnrollCtx):
        self._request_enroll(ctx)

    def _request_enroll(self, ctx: EnrollCtx) -> None:
        """The device sends an enroll-request: a request of its own, or a
        background or in-path re-enrollment."""
        ctx.kind = "enroll-request"
        self._device_to_frontend(ctx.device_id, ctx)

    def _on_enroll_request(self, target, ctx: EnrollCtx):
        self._store_audio(ctx)

    def _store_audio(self, ctx: EnrollCtx) -> None:
        self._start_enroll(ctx)

    def _start_enroll(self, ctx: EnrollCtx) -> None:
        """Plan the legs, unless the request brought its plan, and send the
        first. The plan is one leg on any server for the single-version
        policies, and one leg per served version, oldest first, for DOUBLE."""
        if not ctx.plan:
            ctx.plan = self.served_versions[-2:] if self.double else (None,)
        self._next_enroll_leg(ctx)

    def _next_enroll_leg(self, ctx: EnrollCtx) -> None:
        """Send the enroll job for the next leg of ``ctx.plan``: to the server
        that sent the runtime request it serves back, else to a live server
        of the leg's version (of any version for None). A leg whose version no
        server serves is skipped. Once the plan is used up, answer the device."""
        while ctx.plan:
            version, ctx.plan = ctx.plan[0], ctx.plan[1:]
            if ctx.parent is not None:
                server_id = ctx.parent.server_id
            else:
                eligible = (
                    self.frontend.server_ids if version is None else self.servers_serving(version)
                )
                if not eligible:
                    continue
                server_id = self.frontend.choose(ctx.user_id, eligible)
            self._send_enroll_job(server_id, ctx, self.leg_token)
            return
        self._respond_enroll(ctx, OK)

    def _send_enroll_job(self, server_id: str, ctx, token: str) -> None:
        """Enroll ``ctx.audio`` on the server; ``token`` names the step that
        takes the produced profile, the last of ``ctx.produced``."""
        ctx.kind = "enroll-job"
        ctx.server_id = server_id
        ctx.token = token
        self._frontend_to_cloud(server_id, ctx)

    def _continue(self, target, ctx) -> None:
        """Go on with the flow step that the reply's ``token`` names."""
        self._conts[ctx.token](self, ctx)

    _on_enroll_job_done = _continue

    def _store_leg(self, ctx: EnrollCtx) -> None:
        self._next_enroll_leg(ctx)

    def _respond_enroll(self, ctx: EnrollCtx, outcome: Outcome) -> None:
        ctx.kind = "enroll-response"
        ctx.outcome = outcome
        self._frontend_to_device(ctx.device_id, ctx)

    def _on_enroll_response(self, target, ctx: EnrollCtx):
        self.log.request_done("ENROLL", ctx.user_id, ctx.submitted, self.sim.now, ctx.outcome)

    # -- runtime requests: the device sends the request, with the profiles
    # it holds under HYBRID; a world that keeps them elsewhere fetches them
    # before dispatch

    def _on_runtime_arrival(self, target, ctx: RuntimeCtx):
        ctx.kind = "runtime-request"
        self._device_to_frontend(ctx.device_id, ctx)

    def _on_runtime_request(self, target, ctx: RuntimeCtx):
        self._dispatch_runtime(ctx)

    def _send_recognize_job(self, server_id: str, ctx: RuntimeCtx) -> None:
        ctx.kind = "recognize-job"
        ctx.server_id = server_id
        self._frontend_to_cloud(server_id, ctx)

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        """Single-version dispatch: a retried request to the server it went
        to, else to any server."""
        fe = self.frontend
        self._send_recognize_job(ctx.server_id or fe.choose(ctx.user_id, fe.server_ids), ctx)

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

    def _on_recognize_job_done(self, target, ctx: RuntimeCtx):
        self._respond_runtime(ctx, OK)

    def _respond_runtime(self, ctx: RuntimeCtx, outcome: Outcome) -> None:
        ctx.kind = "runtime-response"
        ctx.outcome = outcome
        self._frontend_to_device(ctx.device_id, ctx)

    def _on_runtime_response(self, target, ctx: RuntimeCtx):
        self.log.request_done(
            "RUNTIME", ctx.user_id, ctx.submitted, self.sim.now, ctx.outcome, ctx.reenrolls
        )
