"""Server-side strategy controllers: audio and profiles live in the
database, engines on the cloud fleet of ``CloudWorldBase`` (``common.py``),
which also runs the rollout, the cloud jobs and the one enrollment flow.
``ServerWorldBase`` adds the database and names the flow's hops to it: the
enrollment audio is stored before the legs, and each leg's profile is put
after its job. It also adds the runtime fetch and the one re-enrollment pump
(fetch, enroll-job, put per stale user) behind the offline bulk pass and the
DOUBLE sweep. A runtime request fetches its user's profiles (and audio, so a
mismatch can be repaired without extra round trips), answers at once if
there are none, else dispatches it. Each of these flows sends its context
(``EnrollCtx``, ``RuntimeCtx``, or a pump lane's ``_SweepCtx``) as the
message of its database hops, and a database reply goes on with the flow
step that the context's ``token`` names.

The worlds differ in what a model release does:

* ``OfflineServerWorld`` (SINGLE_OFFLINE) opens a maintenance window: it
  refuses new requests, waits for every admitted one, updates every server,
  bulk re-enrolls every user, then lifts the window. The window and its count
  of admitted requests are this world's alone.
* ``OnlineServerWorld`` (SINGLE_ONLINE) updates servers in place: each swaps
  after its own drawn duration and serves on the old engine meanwhile.
  Profiles are repaired on the request path. ``MultiProfileServerWorld``
  (MULTI_PROFILE) keeps every profile; HASH_LB is a dispatch policy.
* ``SyncTableServerWorld`` is SINGLE_ONLINE with SYNC_TABLE: the frontend
  dispatches from a table of served versions that probe rounds refresh, and
  a server mid-update refuses jobs.
* ``DoubleServerWorld`` (DOUBLE) keeps two versions live in the two server
  groups, rolls the older group, and upgrades profiles in the background,
  never on the request path.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from ..domain import NoCommonVersionError, Outcome, UserProfile, VersionId
from ..engine import EnrollmentAudio
from ..kernel import node_stream
from ..topology import DatabaseNode, ModelRelease
from .common import (
    DB_STREAM,
    MAINTENANCE,
    OK,
    SWEEP_STEP,
    SYNC_TICK,
    CloudWorldBase,
    EnrollCtx,
    FlowCtx,
    RuntimeCtx,
    SyncProbe,
)


@dataclass(slots=True)
class _SweepCtx(FlowCtx):
    """One re-enrollment from stored audio: the user a pump lane is on. It
    is the message of the pump's db-fetch, which fills ``profiles`` and
    ``audio``, of enroll-job and enroll-job-done, which adds the new profile
    to ``produced``, of db-put-profile, and of their replies. The fetched
    ``profiles`` tuple is never changed, so its newest is the version the
    user is re-enrolled from."""

    user_id: str
    lane: int
    kind: str = ""
    server_id: str | None = None
    token: str = ""
    profiles: tuple[UserProfile, ...] = ()
    audio: EnrollmentAudio | tuple[()] = ()
    produced: tuple[UserProfile, ...] = ()


class ServerWorldBase(CloudWorldBase):
    # the enroll-leg continuations, printed in traces as ``for=``
    leg_token, put_token = "enroll.done", "enroll.put"

    def __init__(self, scenario, sim, log):
        super().__init__(scenario, sim, log)
        self.db = DatabaseNode()
        self.db_rng = node_stream(scenario.seed, DB_STREAM)
        self._db_link = scenario.latency.frontend_db
        # users awaiting the re-enrollment pump: a min-heap of ids plus the
        # same ids as a set, so the pump visits them in ascending id order,
        # once each; and the number of lanes still running
        self._pump_heap: list[str] = []
        self._pump_queued: set[str] = set()
        self._pump_lanes = 0
        cls = type(self)
        self._conts.update({
            "enroll.stored": cls._start_enroll,
            self.put_token: cls._next_enroll_leg,
            "runtime.fetched": cls._runtime_fetched,
            "runtime.put": cls._runtime_put,
            f"{self.pump_token}.fetched": cls._pump_fetched,
            f"{self.pump_token}.done": cls._pump_enrolled,
            f"{self.pump_token}.put": cls._pump_put,
        })

    # -- database hops and handlers; a flow's reply goes on with the step
    # its ``token`` names. A store-audio stores the flow's ``audio``, a fetch
    # fills its ``profiles`` and ``audio``, and a put keeps the last profile
    # it ``produced``.

    def _to_db(self, kind: str, token: str, ctx) -> None:
        ctx.kind = kind
        ctx.token = token
        self.sim.send(self._db_link, self.frontend.rng, "db", ctx)

    def _db_reply(self, kind: str, ctx) -> None:
        ctx.kind = kind
        self.sim.send(self._db_link, self.db_rng, "frontend", ctx)

    def _on_db_store_audio(self, target, ctx: EnrollCtx):
        self.db.store_audio(ctx.user_id, ctx.audio)
        self._db_reply("db-store-ack", ctx)

    def _on_db_fetch(self, target, ctx):
        ctx.profiles = self.db.profiles_for(ctx.user_id)
        ctx.audio = self.db.audio.get(ctx.user_id, ())
        self._db_reply("db-fetch-reply", ctx)

    def _on_db_put_profile(self, target, ctx):
        self._put(self.db, ctx.produced[-1])
        self._db_reply("db-put-ack", ctx)

    _on_db_store_ack = _on_db_fetch_reply = _on_db_put_ack = CloudWorldBase._continue

    # -- the enrollment's hops to the database: the audio before the legs,
    # one put after each leg; their acks go on with ``_start_enroll`` and
    # ``_next_enroll_leg``

    def _store_audio(self, ctx: EnrollCtx) -> None:
        self._to_db("db-store-audio", "enroll.stored", ctx)

    def _store_leg(self, ctx: EnrollCtx) -> None:
        self._to_db("db-put-profile", self.put_token, ctx)

    # -- runtime flow

    def _on_runtime_request(self, target, ctx: RuntimeCtx):
        self._to_db("db-fetch", "runtime.fetched", ctx)

    def _runtime_fetched(self, ctx: RuntimeCtx):
        if not ctx.profiles:
            # not enrolled: reject without engine work
            self._respond_runtime(ctx, OK)
            return
        self._dispatch_runtime(ctx)

    def _on_recognize_job_done(self, target, ctx: RuntimeCtx):
        if ctx.produced:
            self._to_db("db-put-profile", "runtime.put", ctx)
            return
        self._respond_runtime(ctx, OK)

    def _runtime_put(self, ctx: RuntimeCtx) -> None:
        self._respond_runtime(ctx, OK)

    # -- the re-enrollment pump: each lane takes queued users one at a time
    # and does fetch, enroll-job on the newest served version, put. The
    # offline bulk pass and the DOUBLE sweep set ``pump_token`` (printed in
    # traces) and ``_pump_lanes``, and define ``_pump_server`` and
    # ``_pump_drained`` (when the last lane stops).

    pump_token = "pump"

    def _queue_reenroll(self, user: str) -> None:
        if user not in self._pump_queued:
            self._pump_queued.add(user)
            heappush(self._pump_heap, user)

    def _queue_stale_users(self) -> None:
        """Queue every stored user whose newest profile predates the active release."""
        target = self.active_release.version.seq
        for user, profiles in self.db.profiles.items():
            if profiles[-1].version.seq < target:
                self._queue_reenroll(user)

    def _pump(self, lane: int) -> None:
        """Fetch the next queued user whose newest stored profile predates
        the newest served version; with none left the lane stops."""
        newest = self.served_versions[-1]
        while self._pump_heap:
            user = heappop(self._pump_heap)
            self._pump_queued.discard(user)
            profiles = self.db.profiles_for(user)
            if profiles and profiles[-1].version.seq < newest.seq:
                self._to_db("db-fetch", f"{self.pump_token}.fetched", _SweepCtx(user, lane))
                return
        self._pump_lanes -= 1
        if not self._pump_lanes:
            self._pump_drained()

    def _pump_fetched(self, ctx: _SweepCtx):
        # the lane saw a stored profile, and the store never loses audio or profiles
        newest_served = self.served_versions[-1]
        if ctx.profiles[-1].version.seq >= newest_served.seq:
            self._pump_advance(ctx.lane)
            return
        # a version reported as served always has a live server behind it
        server_id = self._pump_server(ctx, self.servers_serving(newest_served))
        self._send_enroll_job(server_id, ctx, f"{self.pump_token}.done")

    def _pump_enrolled(self, ctx: _SweepCtx):
        self._to_db("db-put-profile", f"{self.pump_token}.put", ctx)

    def _pump_put(self, ctx: _SweepCtx):
        from_version, to_version = ctx.profiles[-1].version, ctx.produced[-1].version
        self.log.reenrolled(self.sim.now, ctx.user_id, from_version, to_version)
        self._pump_advance(ctx.lane)

    def _pump_advance(self, lane: int) -> None:
        """The lane is done with its user: go on to the next."""
        self._pump(lane)


class OnlineServerWorld(ServerWorldBase):
    """SINGLE_ONLINE: servers update in place while serving; profiles are
    repaired on the request path, on whichever server dispatch picks."""

    def _stale_profile(self, engine, ctx):
        # repair in place from the fetched audio; the new profile is written
        # back before the response goes out
        fresh = engine.enroll(ctx.user_id, ctx.audio)
        self.log.reenrolled(self.sim.now, ctx.user_id, ctx.profiles[-1].version, fresh.version)
        ctx.produced = (fresh,)
        ctx.reenrolls += 1
        return fresh, engine.enroll_duration_ms(len(ctx.audio))


class MultiProfileServerWorld(OnlineServerWorld):
    retain = None  # MULTI_PROFILE: the database keeps every profile


class _RefreshRound:
    __slots__ = ("remaining", "waiters")

    def __init__(self, remaining: int):
        self.remaining = remaining
        self.waiters: list[EnrollCtx | RuntimeCtx] = []


class SyncTableServerWorld(OnlineServerWorld):
    """SINGLE_ONLINE with the SYNC_TABLE mitigation. The frontend keeps a
    table of the version each server serves and dispatches only to servers
    it lists with the version a request needs. A probe round every
    ``sync_table_period_ms``, and one whenever no listed server fits,
    refreshes the table. A server mid-update refuses jobs, which tells the
    frontend that its entry is stale."""

    def __init__(self, scenario, sim, log):
        super().__init__(scenario, sim, log)
        # each server's one served version; None while it is mid-update
        self.version_table: dict[str, VersionId | None] = {
            sid: engine.model for sid, engine in self.engines.items()
        }
        self._rounds: dict[int, _RefreshRound] = {}
        self._round_seq = 0
        self.sim.schedule(self.cfg.sync_table_period_ms, "frontend", SYNC_TICK)

    # -- a server mid-update refuses work

    def _on_enroll_job(self, target, ctx):
        if not self._refused(ctx):
            super()._on_enroll_job(target, ctx)

    def _on_recognize_job(self, target, ctx):
        if not self._refused(ctx):
            super()._on_recognize_job(target, ctx)

    def _refused(self, ctx) -> bool:
        if ctx.server_id not in self.updating:
            return False
        ctx.kind = "job-rejected"
        self._cloud_to_frontend(ctx.server_id, ctx)
        return True

    # -- dispatch from the table: the enrollment's one leg and every runtime
    # request go where the table says

    def _select_and_dispatch(self, ctx, refreshed: bool = False) -> None:
        """Send the job to a server the table lists with the version it
        needs; ``refreshed`` when a probe round has just renewed the table
        for this request."""
        fe = self.frontend
        table = self.version_table
        # a runtime request needs the user's newest profile version
        required = ctx.profiles[-1].version if ctx.flow == "runtime" else None
        if required is None:
            eligible = [s for s in fe.server_ids if table[s] is not None]
        else:
            eligible = [s for s in fe.server_ids if table[s] == required]
        if not eligible and refreshed:
            # fresh table, required version served nowhere: the producer has
            # moved past it, so the newest table entry is a strict upgrade
            versions = [table[s] for s in fe.server_ids if table[s] is not None]
            if versions:
                newest_listed = max(versions, key=lambda v: v.seq)
                eligible = [s for s in fe.server_ids if table[s] == newest_listed]
        if eligible:
            server_id = fe.choose(ctx.user_id, eligible)
            if ctx.flow == "runtime":
                self._send_recognize_job(server_id, ctx)
            else:
                self._send_enroll_job(server_id, ctx, self.leg_token)
            return
        if not refreshed:
            self._start_refresh(waiter=ctx)
            return
        # every server is mid-update; try again after one sync period
        ctx.kind = "dispatch-retry"
        self.sim.schedule_in(self.cfg.sync_table_period_ms, "frontend", ctx)

    _start_enroll = _dispatch_runtime = _select_and_dispatch

    def _on_job_rejected(self, target, ctx):
        # the table entry was stale; blank it and force a refresh before any
        # fallback decision
        self.version_table[ctx.server_id] = None
        self._select_and_dispatch(ctx)

    def _on_dispatch_retry(self, target, ctx):
        self._select_and_dispatch(ctx)

    # -- refresh rounds: probe every server, then dispatch the waiters

    def _start_refresh(self, waiter: EnrollCtx | RuntimeCtx | None) -> None:
        self._round_seq += 1
        round_id = self._round_seq
        rnd = _RefreshRound(len(self.frontend.server_ids))
        if waiter is not None:
            rnd.waiters.append(waiter)
        self._rounds[round_id] = rnd
        for sid in self.frontend.server_ids:
            self._frontend_to_cloud(sid, SyncProbe(round_id, sid))

    def _on_sync_tick(self, target, msg):
        self._start_refresh(waiter=None)
        self.sim.schedule_in(self.cfg.sync_table_period_ms, "frontend", SYNC_TICK)

    def _on_sync_probe(self, target, probe: SyncProbe):
        sid = probe.server_id
        probe.kind = "sync-reply"
        probe.version = None if sid in self.updating else self.engines[sid].model
        self._cloud_to_frontend(probe.server_id, probe)

    def _on_sync_reply(self, target, probe: SyncProbe):
        self.version_table[probe.server_id] = probe.version
        rnd = self._rounds[probe.round_id]
        rnd.remaining -= 1
        if rnd.remaining == 0:
            del self._rounds[probe.round_id]
            for ctx in rnd.waiters:
                self._select_and_dispatch(ctx, refreshed=True)


class OfflineServerWorld(ServerWorldBase):
    """SINGLE_OFFLINE: a release opens a maintenance window. New requests are
    refused, and once every admitted request has answered, every server
    updates, then every user is re-enrolled (``reenroll_parallelism`` lanes)
    before the window lifts."""

    pump_token = "bulk"

    def __init__(self, scenario, sim, log):
        super().__init__(scenario, sim, log)
        # the release held back until every admitted request, counted by
        # ``_inflight``, has answered
        self._held: ModelRelease | None = None
        self._inflight = 0

    # -- the window is open while a release is active: it refuses new
    # requests; an admitted one is counted until its answer

    def _on_enroll_request(self, target, ctx):
        if self.active_release is not None:
            self._respond_enroll(ctx, MAINTENANCE)
            return
        self._inflight += 1
        super()._on_enroll_request(target, ctx)

    def _on_runtime_request(self, target, ctx):
        if self.active_release is not None:
            self._respond_runtime(ctx, MAINTENANCE)
            return
        self._inflight += 1
        super()._on_runtime_request(target, ctx)

    def _respond_enroll(self, ctx, outcome):
        super()._respond_enroll(ctx, outcome)
        self._answered(outcome)

    def _respond_runtime(self, ctx, outcome):
        super()._respond_runtime(ctx, outcome)
        self._answered(outcome)

    def _answered(self, outcome: Outcome) -> None:
        # only a refused request is answered MAINTENANCE
        if outcome is not MAINTENANCE:
            self._inflight -= 1
            self._roll_out_if_drained()

    def _begin_release(self, release: ModelRelease) -> None:
        self.log.window_open(self.sim.now)
        self._held = release
        self._roll_out_if_drained()

    def _roll_out_if_drained(self) -> None:
        # the rollout waits for the last admitted request: a request that
        # started before the window may still write an old-version profile
        if self._held is not None and not self._inflight:
            release, self._held = self._held, None
            super()._begin_release(release)

    def _after_server_updated(self) -> None:
        # after the drain only the bulk pass writes profiles, so one scan
        # finds every user it has to re-enroll
        if self.updating:
            return
        self._queue_stale_users()
        self._pump_lanes = min(self.sc.reenroll_parallelism, len(self._pump_heap))
        if not self._pump_lanes:
            self._pump_drained()
        for lane in range(self._pump_lanes):
            self._pump(lane)

    def _pump_server(self, ctx: _SweepCtx, serving: list[str]) -> str:
        return serving[ctx.lane % len(serving)]

    def _pump_drained(self) -> None:
        self.log.window_close(self.sim.now)
        self.finish_release()


class DoubleServerWorld(ServerWorldBase):
    """DOUBLE: the two server groups serve two consecutive versions.
    Enrollment produces a profile per served version; runtime picks the
    newest version common to the user's profiles and a live server and
    never re-enrolls inline. A release is done once its group is updated and
    the background sweep has given every stored user a profile for it."""

    retain = 2
    double = True
    leg_token, put_token = "enroll2.done", "enroll2.put"
    pump_token = "sweep"

    def _respond_enroll(self, ctx: EnrollCtx, outcome: Outcome) -> None:
        if len({p.version.seq for p in ctx.produced}) < 2:
            # one group was mid-update at planning, or a release took a leg's
            # version out of service; the sweep will produce the second profile
            self._queue_reenroll(ctx.user_id)
            self._kick_sweep()
        super()._respond_enroll(ctx, outcome)

    # runtime: version intersection, no inline repair

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        if not self._dispatch_to_common_version(ctx):
            raise NoCommonVersionError(
                f"candidates {(ctx.user_id,)} share no served version "
                f"(served: {[v.id for v in self.served_versions]})"
            )

    def _on_recognize_job_done(self, target, ctx: RuntimeCtx):
        if ctx.profiles[-1].version.seq < self.served_versions[-1].seq:
            self._queue_reenroll(ctx.user_id)
        self._kick_sweep()
        super()._on_recognize_job_done(target, ctx)

    # release rollout: the base rolls the older group; the release stays open
    # until the sweep is done

    def _after_server_updated(self) -> None:
        # first finished server makes the new version available: start the
        # profile sweep
        self._queue_stale_users()
        self._kick_sweep()
        self._maybe_finish_rollout()

    def _maybe_finish_rollout(self) -> None:
        if self.active_release is None:
            return
        if self.updating or self._pump_lanes or self._pump_heap:
            return
        self._queue_stale_users()
        if self._pump_heap:
            self._kick_sweep()
            return
        self.finish_release()

    # background sweep: the pump with one lane, each user from its own event

    def _kick_sweep(self) -> None:
        if self._pump_lanes or not self._pump_heap:
            return
        self.sim.schedule_in(0, "frontend", SWEEP_STEP)
        self._pump_lanes = 1

    def _on_sweep_step(self, target, msg):
        self._pump(0)

    def _pump_server(self, ctx: _SweepCtx, serving: list[str]) -> str:
        return self.frontend.choose(ctx.user_id, serving)

    def _pump_advance(self, lane: int) -> None:
        if self._pump_heap:
            self.sim.schedule_in(0, "frontend", SWEEP_STEP)
        else:
            self._pump(lane)

    def _pump_drained(self) -> None:
        self._maybe_finish_rollout()
