"""Shared machinery for the strategy controllers: configuration, the message
vocabulary that travels on the event queue, and the world base classes
that wire nodes to the simulator. The worlds tell ``metrics.RunLog`` what
happens; what is counted or kept is decided there.

A "world" is one deployment wired up: nodes, their rng streams, and the
handler table that routes every executed event by its message ``kind`` to the
world's method named for it, dashes written as underscores: kind
``recognize-job-done`` goes to ``_on_recognize_job_done``. Request flows are
chains of messages. Each hop is one traced event, queued by one
``Simulator.send`` call from the handler that sends it, with the latency drawn
from the sender's stream (``CloudWorldBase.__init__`` names each hop's). A
flow's context object (``EnrollCtx``, ``RuntimeCtx``, ``HandshakeCtx``, the
sync table's ``SyncProbe``, and the re-enrollment pump's ``server._SweepCtx``)
is itself the message of every hop of the flow, so node handlers stay
stateless between hops: just before it sends, the sender sets the hop's
``kind`` on the context, with the server id, the continuation ``token`` or the
outcome the hop carries, and a handler writes what its node produced (fetched
profiles, an enrolled profile) onto it. That is sound because a flow has at
most one message queued at a time, and its trace line, which ``TRACE_LINES``
builds by kind, is printed before the handler moves the context on to its
next hop. A request's context is also its arrival: the runner schedules each
user's ``EnrollCtx`` as its enroll-arrival and feeds each ``RuntimeCtx`` as
its runtime-arrival, and on a DEVICE it is also its device-task-done. The
hops outside a flow (releases, server updates, ticks) have one message class
per shape.

``WorldBase`` holds what every world has: the users, the ``initial``
versions, numbered 1..n, each device's link stream and event target, the
ownership rule ``user_devices`` and its inverse ``owners_of``, the compute
times ``enroll_ms`` and ``runtime_ms``, handlers, and ``_put``, the profile
write into a store (``topology``'s database or device) under the world's one
``retain``. Only the worlds that keep profiles on the devices build device
nodes: the hybrid worlds and ``DeviceWorld`` (``device.py``), which builds
on the base alone.
``CloudWorldBase`` is the cloud fleet of the SERVER and HYBRID worlds: the
servers, kept as two tables (each one's engine in ``engines``, the ones
mid-update in ``updating``), the frontend, the served-version index, the
rollout, the cloud jobs, runtime dispatch, and the one enrollment flow:
admit the device's request, plan the legs, send one enroll job per leg,
keep each produced profile, answer, and record. Both request flows share
the job, answer and record hops, with one method each, since each flow
context names its kinds of them (``job``, ``response``, ``record``). The
worlds differ only in where profiles are kept: ``server.py`` hops to the
database (the audio first, then a put per leg), while in ``hybrid.py`` the
device keeps the profiles when the response reaches it, and resumes the
runtime request that an in-path re-enrollment served.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from itertools import cycle, islice
from typing import TYPE_CHECKING, Callable, ClassVar

from ..domain import Outcome, UserProfile, VersionId
from ..engine import EngineInstance, EnrollmentAudio
from ..kernel import SimRng, Simulator, node_seed
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
# ``token`` the hop carries, and ``TRACE_LINES`` prints it by that kind.


@dataclass(slots=True)
class EnrollCtx:
    """One enrollment flow: its ``audio``, the versions of its legs still to
    send (None: any server), and the profiles made so far; tuples that a leg
    replaces. It is the message of enroll-arrival (a user's own request
    only), enroll-request, enroll-job and enroll-job-done, job-rejected and
    dispatch-retry, the database's store-audio and put hops and their acks,
    and enroll-response, the last with the ``outcome`` answered. On a DEVICE
    it is the message of enroll-arrival and of the device-task-done that
    enrolls on its one leg's version."""

    flow: ClassVar[str] = "enroll"
    job: ClassVar[str] = "enroll-job"
    response: ClassVar[str] = "enroll-response"
    record: ClassVar[str] = "ENROLL"
    reenrolls: ClassVar[int] = 0  # an enrollment's record counts no in-path repair
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
class RuntimeCtx:
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
    job: ClassVar[str] = "recognize-job"
    response: ClassVar[str] = "runtime-response"
    record: ClassVar[str] = "RUNTIME"
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
class HandshakeCtx:
    """One handshake: the message of handshake-request, and of the
    handshake-reply that brings the served ``versions`` back."""

    device_id: str
    submitted: int
    kind: str = "handshake-request"
    versions: tuple[VersionId, ...] = ()


@dataclass(slots=True)
class SyncProbe:
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


@dataclass(slots=True)
class ServerUpdateDone:
    kind: ClassVar[str] = "server-update-done"
    server_id: str
    version: VersionId


@dataclass(slots=True)
class Tick:
    """A step whose only data is its trace ``note``: sync-tick, sweep-step,
    handshake-tick (its target names the device) or device-reenroll-done (the
    device's re-enroll queue names the user)."""

    kind: str
    note: str


SYNC_TICK = Tick("sync-tick", "periodic")
SWEEP_STEP = Tick("sweep-step", "next-user")


# ---------------------------------------------------------------------------
# the trace: message kind -> the function that builds an executed event's
# whole line from its stamp (``"<ms>\t"``), seq, target and message, in one
# f-string, so a line costs one Python frame. A stored user always has audio,
# so db-fetch-reply's ``rows`` counts the user by that; ``_value_`` is a plain
# attribute, where ``Enum.value`` is a slower property.

TRACE_LINES: dict[str, Callable[..., str]] = {
    "enroll-arrival": lambda s, n, t, c:
        f"{s}{n}\t{t}\tenroll-arrival\tuser={c.user_id} samples={c.audio.count}",
    "runtime-arrival": lambda s, n, t, c: f"{s}{n}\t{t}\truntime-arrival\tuser={c.user_id}",
    "enroll-request": lambda s, n, t, c: f"{s}{n}\t{t}\tenroll-request\tuser={c.user_id}",
    "runtime-request": lambda s, n, t, c: f"{s}{n}\t{t}\truntime-request\tuser={c.user_id}",
    "handshake-request": lambda s, n, t, c: f"{s}{n}\t{t}\thandshake-request\tuser={c.device_id}",
    "handshake-reply": lambda s, n, t, c:
        f"{s}{n}\t{t}\thandshake-reply\tuser={c.device_id} "
        f"serves={','.join([v.id for v in c.versions]) or '-'}",
    "enroll-response": lambda s, n, t, c:
        f"{s}{n}\t{t}\tenroll-response\tuser={c.user_id} outcome={c.outcome._value_}",
    "runtime-response": lambda s, n, t, c:
        f"{s}{n}\t{t}\truntime-response\tuser={c.user_id} outcome={c.outcome._value_}",
    "recognize-job": lambda s, n, t, c:
        f"{s}{n}\t{t}\trecognize-job\tuser={c.user_id} server={c.server_id}",
    "recognize-job-done": lambda s, n, t, c:
        f"{s}{n}\t{t}\trecognize-job-done\tuser={c.user_id} server={c.server_id} "
        f"reenrolled={'1' if c.produced else '0'}",
    "retry-signal": lambda s, n, t, c:
        f"{s}{n}\t{t}\tretry-signal\tuser={c.user_id} server={c.server_id}",
    "retry-needed": lambda s, n, t, c:
        f"{s}{n}\t{t}\tretry-needed\tuser={c.user_id} server={c.server_id}",
    "device-task-done": lambda s, n, t, c:
        f"{s}{n}\t{t}\tdevice-task-done\ttask={c.flow} user={c.user_id}",
    "sync-probe": lambda s, n, t, c:
        f"{s}{n}\t{t}\tsync-probe\tround={c.round_id} server={c.server_id}",
    "sync-reply": lambda s, n, t, c:
        f"{s}{n}\t{t}\tsync-reply\tround={c.round_id} server={c.server_id} "
        f"serves={'-' if c.version is None else c.version.id}",
    "dispatch-retry": lambda s, n, t, c:
        f"{s}{n}\t{t}\tdispatch-retry\tflow={c.flow} user={c.user_id}",
    "job-rejected": lambda s, n, t, c:
        f"{s}{n}\t{t}\tjob-rejected\tflow={c.flow} server={c.server_id}",
    "enroll-job": lambda s, n, t, c:
        f"{s}{n}\t{t}\tenroll-job\tuser={c.user_id} server={c.server_id} for={c.token}",
    "enroll-job-done": lambda s, n, t, c:
        f"{s}{n}\t{t}\tenroll-job-done\tuser={c.user_id} server={c.server_id} "
        f"version={c.produced[-1].version.id} for={c.token}",
    "db-store-audio": lambda s, n, t, c:
        f"{s}{n}\t{t}\tdb-store-audio\tuser={c.user_id} for={c.token}",
    "db-store-ack": lambda s, n, t, c: f"{s}{n}\t{t}\tdb-store-ack\tfor={c.token}",
    "db-fetch": lambda s, n, t, c: f"{s}{n}\t{t}\tdb-fetch\tusers={c.user_id} for={c.token}",
    "db-fetch-reply": lambda s, n, t, c:
        f"{s}{n}\t{t}\tdb-fetch-reply\trows={'1' if c.audio else '0'} for={c.token}",
    "db-put-profile": lambda s, n, t, c:
        f"{s}{n}\t{t}\tdb-put-profile\t{c.user_id}@{c.produced[-1].version.id} for={c.token}",
    "db-put-ack": lambda s, n, t, c: f"{s}{n}\t{t}\tdb-put-ack\tfor={c.token}",
    "release": lambda s, n, t, m: f"{s}{n}\t{t}\trelease\tversion={m.version.id}",
    "notify-release": lambda s, n, t, m: f"{s}{n}\t{t}\tnotify-release\tversion={m.version.id}",
    "download-done": lambda s, n, t, m: f"{s}{n}\t{t}\tdownload-done\tversion={m.version.id}",
    "server-update-done": lambda s, n, t, m:
        f"{s}{n}\t{t}\tserver-update-done\tserver={m.server_id} version={m.version.id}",
    "sync-tick": lambda s, n, t, m: f"{s}{n}\t{t}\tsync-tick\t{m.note}",
    "sweep-step": lambda s, n, t, m: f"{s}{n}\t{t}\tsweep-step\t{m.note}",
    "handshake-tick": lambda s, n, t, m: f"{s}{n}\t{t}\thandshake-tick\t{m.note}",
    "device-reenroll-done": lambda s, n, t, m: f"{s}{n}\t{t}\tdevice-reenroll-done\t{m.note}",
}  # fmt: skip


# ---------------------------------------------------------------------------


class WorldBase:
    """One wired deployment. Subclasses implement the flows and handle each
    message kind ``K`` in a method ``_on_K`` (dashes written as underscores,
    as ``ast.NodeVisitor`` names its ``visit_<Name>`` methods); this base
    owns the users and devices and the rule that puts each user on a device,
    the compute costs, the handler table it derives from those names, and the
    profile writes."""

    # profiles the world's store keeps per user (None: unbounded)
    retain: int | None = 1
    # message kind -> handler function, one table per class (bound on each world
    # for ``handle``); plain functions, so a finished world is freed by refcount
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
        self._handlers = type(self)._handlers
        # the compute time of an enrollment and of a recognition: every
        # enrollment audio of a run has ``samples_per_user`` samples
        self.enroll_ms = scenario.samples_per_user * scenario.enroll_cost_ms_per_sample
        self.runtime_ms = scenario.runtime_cost_ms
        # the initial versions, numbered 1..n; the runner numbers each
        # release after them, in schedule order
        self.initial = tuple(VersionId(v, i) for i, v in enumerate(scenario.initial_versions, 1))

        self.user_ids = [f"u{i:03d}" for i in range(scenario.users)]
        self.device_ids = [f"d{i:02d}" for i in range(scenario.devices)]
        # each device's event target, built once so scheduled events share
        # one string each, and its link stream
        self.device_targets = {device_id: f"device:{device_id}" for device_id in self.device_ids}
        self.device_rng: dict[str, SimRng] = {
            device_id: SimRng(node_seed(scenario.seed, DEVICE_STREAM_BASE + j))
            for j, device_id in enumerate(self.device_ids)
        }

    def user_devices(self) -> list[str]:
        """The ownership rule: user i lives on device i mod devices, listed in user order."""
        return list(islice(cycle(self.device_ids), len(self.user_ids)))

    def owners_of(self, device_id: str) -> list[str]:
        """The users ``user_devices`` puts on ``device_id``, in user order."""
        return self.user_ids[int(device_id[1:]) :: len(self.device_ids)]

    def _build_devices(self) -> None:
        """Build the device nodes, and map each event target back to its device's one id string."""
        self.devices = {d: DeviceNode() for d in self.device_ids}
        self._device_ids = {target: d for d, target in self.device_targets.items()}

    # -- wiring helpers

    def handle(self, target: str, payload) -> None:
        self._handlers[payload.kind](self, target, payload)

    def _put(self, store: "DatabaseNode | DeviceNode", profile: UserProfile) -> None:
        """Keep ``profile`` in the world's store under ``retain`` and log the write."""
        store.put_profile(profile, self.retain)
        self.log.profile_stored(self.sim.now, profile.user_id, profile.version)


class CloudWorldBase(WorldBase):
    """A world with a cloud fleet behind the frontend; the one fleet that the
    SERVER and HYBRID deployments share. It owns the servers and their rng
    streams, the frontend, the served-version index, release serialization,
    the rollout, the cloud job handlers, the enrollment flow, the runtime
    dispatch (single-version and DOUBLE) and both flows' response path.

    A server is its id, the key of two tables: ``engines``, the engine it
    serves on, and ``updating``, the servers mid-update. A server mid-update
    keeps serving on its old engine, and its ``server-update-done`` swaps in
    the release's engine. Every server hop carries the server's id.

    A single-version world runs one server group on the initial version, and
    a release updates every server at once, each for its own drawn duration.
    A DOUBLE world (``retain`` 2) splits the fleet into two fixed groups that
    serve two consecutive versions, and a release rolls the older group. A
    release is done when its last server is, unless the world holds it open.
    """

    def __init__(self, scenario: "Scenario", sim: Simulator, log: RunLog):
        super().__init__(scenario, sim, log)
        server_ids = [f"s{i:02d}" for i in range(scenario.cloud_servers)]
        if self.retain == 2:
            # the first group, one larger when the count is odd, starts on the
            # older initial version
            half = (len(server_ids) + 1) // 2
            self.groups = [server_ids[:half], server_ids[half:]]
        else:
            self.groups = [server_ids]
        self._cloud_targets = {sid: f"cloud:{sid}" for sid in server_ids}
        self.engines: dict[str, EngineInstance] = {
            sid: EngineInstance(self.initial[g])
            for g, members in enumerate(self.groups)
            for sid in members
        }
        self.cloud_rng: dict[str, SimRng] = {
            sid: SimRng(node_seed(scenario.seed, CLOUD_STREAM_BASE + i))
            for i, sid in enumerate(server_ids)
        }
        self.frontend = FrontendNode(
            server_ids, self.cfg.dispatch, SimRng(node_seed(scenario.seed, FRONTEND_STREAM))
        )
        # a hop's latency is drawn from its sender's stream: the device's
        # ``device_rng`` to the frontend, ``frontend.rng`` to a device or server,
        # the server's ``cloud_rng`` back, and for the database hops (server.py)
        # ``frontend.rng`` out and ``db_rng`` back
        self._device_link = scenario.latency.device_frontend
        self._cloud_link = scenario.latency.frontend_cloud
        # the releases not yet done, in schedule order: the head is rolling out
        self.releases: list[ModelRelease] = []
        self.updating: set[str] = set()
        self._index_served()
        # token -> step function, unbound for the same reason as ``_handlers``
        self._conts: dict[str, Callable] = {self.leg_token: type(self)._next_enroll_leg}

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
        self.releases.append(release)
        if len(self.releases) == 1:
            self._begin_release(release)

    def finish_release(self) -> None:
        del self.releases[0]
        if self.releases:
            self._begin_release(self.releases[0])

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
        self.engines[msg.server_id] = EngineInstance(msg.version)
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
        self.sim.send(
            self._cloud_link, self.cloud_rng[ctx.server_id], "frontend", ctx, self.enroll_ms
        )

    def _on_recognize_job(self, target, ctx: RuntimeCtx):
        """Recognize the request on the server's engine with the user's
        profile for the engine's version, and reply after the compute time.
        The user has profiles (a request without any is answered before
        dispatch). Without one for this version the request goes through
        ``_stale_profile``, and None from there sends a retry-signal at once."""
        engine = self.engines[ctx.server_id]
        work = self.runtime_ms
        model = engine.model
        for profile in ctx.profiles:
            if profile.version == model:
                break
        else:
            repaired = self._stale_profile(engine, ctx)
            if repaired is None:
                ctx.kind = "retry-signal"
                self.sim.send(self._cloud_link, self.cloud_rng[ctx.server_id], "frontend", ctx)
                return
            profile, cost = repaired
            work += cost
        engine.recognize(profile)
        ctx.kind = "recognize-job-done"
        self.sim.send(self._cloud_link, self.cloud_rng[ctx.server_id], "frontend", ctx, work)

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
    # By default an enroll job's reply, the ``leg_token`` step, sends the
    # next leg; a world that keeps profiles in its database (``server.py``)
    # stores the audio before the legs and registers a put after each one
    # under that token.

    leg_token = "leg"  # the continuation of an enroll job, printed as ``for=``

    def _on_enroll_arrival(self, target, ctx: EnrollCtx):
        self._request_enroll(ctx)

    def _request_enroll(self, ctx: EnrollCtx) -> None:
        """The device sends an enroll-request: a request of its own, or a
        background or in-path re-enrollment."""
        ctx.kind = "enroll-request"
        self.sim.send(self._device_link, self.device_rng[ctx.device_id], "frontend", ctx)

    def _on_enroll_request(self, target, ctx: EnrollCtx):
        self._start_enroll(ctx)

    def _start_enroll(self, ctx: EnrollCtx) -> None:
        """Plan the legs, unless the request brought its plan, and send the
        first. The plan is one leg on any server for the single-version
        policies, and one leg per served version, oldest first, for DOUBLE."""
        if not ctx.plan:
            ctx.plan = self.served_versions[-2:] if self.retain == 2 else (None,)
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
            self._send_job(server_id, ctx, self.leg_token)
            return
        self._respond(ctx)

    def _send_job(self, server_id: str, ctx, token: str = "") -> None:
        """Send the flow's job (``ctx.job``) to the server. An enroll job's
        ``token`` names the step that takes the produced profile, the last of
        ``ctx.produced``; no step reads a recognize job's."""
        ctx.kind = ctx.job
        ctx.server_id = server_id
        ctx.token = token
        self.sim.send(self._cloud_link, self.frontend.rng, self._cloud_targets[server_id], ctx)

    def _continue(self, target, ctx) -> None:
        """Go on with the flow step that the reply's ``token`` names."""
        self._conts[ctx.token](self, ctx)

    _on_enroll_job_done = _continue

    # -- runtime requests: the device sends the request, with the profiles
    # it holds under HYBRID; a world that keeps them elsewhere fetches them
    # before dispatch

    def _on_runtime_arrival(self, target, ctx: RuntimeCtx):
        ctx.kind = "runtime-request"
        self.sim.send(self._device_link, self.device_rng[ctx.device_id], "frontend", ctx)

    def _on_runtime_request(self, target, ctx: RuntimeCtx):
        self._dispatch_runtime(ctx)

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        """Single-version dispatch: a retried request to the server it went
        to, else to any server."""
        fe = self.frontend
        self._send_job(ctx.server_id or fe.choose(ctx.user_id, fe.server_ids), ctx)

    def _dispatch_to_common_version(self, ctx: RuntimeCtx) -> bool:
        """DOUBLE dispatch: send the request to a live server of the newest
        served version the user has a profile for. False when no served
        version qualifies."""
        held = {p.version.seq for p in ctx.profiles}
        usable = [v for v in self.served_versions if v.seq in held]
        if not usable:
            return False
        server_id = self.frontend.choose(ctx.user_id, self.servers_serving(usable[-1]))
        self._send_job(server_id, ctx)
        return True

    def _on_recognize_job_done(self, target, ctx: RuntimeCtx):
        self._respond(ctx)

    # -- responses, one path for both flows: the frontend answers with the
    # flow's ``response`` kind, and the device records its ``record`` kind

    def _respond(self, ctx: EnrollCtx | RuntimeCtx, outcome: Outcome = OK) -> None:
        ctx.kind = ctx.response
        ctx.outcome = outcome
        self.sim.send(self._device_link, self.frontend.rng, self.device_targets[ctx.device_id], ctx)

    def _on_enroll_response(self, target, ctx: EnrollCtx | RuntimeCtx):
        self.log.request_done(
            ctx.record, ctx.user_id, ctx.submitted, self.sim.now, ctx.outcome, ctx.reenrolls
        )

    _on_runtime_response = _on_enroll_response
