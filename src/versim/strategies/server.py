"""Server-side strategy controllers: audio and profiles live in the
database, engines on the cloud fleet of ``CloudWorldBase`` (``common.py``),
which also runs the rollout, the cloud jobs and the one enrollment flow.
``ServerWorldBase`` adds the database and names the flow's hops to it: the
enrollment audio is stored before the legs, and each leg's profile is put
after its job. It also adds the runtime fetch and the one re-enrollment pump
(fetch, enroll-job, put per stale user) behind the offline bulk pass and the
DOUBLE sweep. A runtime request fetches its user's profiles (and audio, so a
mismatch can be repaired without extra round trips), answers at once if
there are none, else dispatches and returns the score.

The worlds differ in what a model release does:

* ``OfflineServerWorld`` (SINGLE_OFFLINE) opens a maintenance window: it
  refuses new requests, waits for every admitted one, updates every server,
  bulk re-enrolls every user, then lifts the window. The window and its count
  of admitted requests are this world's alone.
* ``OnlineServerWorld`` (SINGLE_ONLINE) updates servers in place: each swaps
  after its own drawn duration and serves on the old engine meanwhile.
  Profiles are repaired on the request path; the HASH_LB and MULTI_PROFILE
  mitigations act through the dispatch policy and ``retain``.
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
from ..kernel import node_stream
from ..topology import DatabaseNode, ModelRelease
from .common import (
    DB_STREAM,
    SWEEP_STEP,
    SYNC_TICK,
    CloudWorldBase,
    DbAck,
    DbFetch,
    DbFetchReply,
    DbPutProfile,
    DbStoreAudio,
    DispatchRetry,
    EnrollCtx,
    EnrollJobDone,
    JobRejected,
    Mitigation,
    RecognizeJobDone,
    Request,
    RuntimeCtx,
    SyncProbe,
    SyncReply,
)


@dataclass(slots=True)
class _SweepCtx:
    """One re-enrollment from stored audio: the user a pump lane is on."""

    user_id: str
    lane: int
    from_version: VersionId | None = None
    profile: UserProfile | None = None


class ServerWorldBase(CloudWorldBase):
    # the enroll-leg continuations, printed in traces as ``for=``
    leg_token, put_token = "enroll.done", "enroll.put"

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.db = DatabaseNode()
        self.db_rng = node_stream(scenario.seed, DB_STREAM)
        # users awaiting the re-enrollment pump: a min-heap of ids plus the
        # same ids as a set, so the pump visits them in ascending id order,
        # once each; and the number of lanes still running
        self._pump_heap: list[str] = []
        self._pump_queued: set[str] = set()
        self._pump_lanes = 0

        self.on("db-store-audio", self._on_db_store_audio)
        self.on("db-store-ack", self._continue)
        self.on("db-fetch", self._on_db_fetch)
        self.on("db-fetch-reply", self._continue)
        self.on("db-put-profile", self._on_db_put_profile)
        self.on("db-put-ack", self._continue)
        self._conts.update({
            "enroll.stored": lambda msg: self._start_enroll(msg.ctx),
            self.put_token: lambda msg: self._next_enroll_leg(msg.ctx),
            "runtime.fetched": self._runtime_fetched,
            "runtime.put": lambda msg: self._respond_runtime(msg.ctx, Outcome.OK),
            f"{self.pump_token}.fetched": self._pump_fetched,
            f"{self.pump_token}.done": self._pump_enrolled,
            f"{self.pump_token}.put": self._pump_put,
        })

    # -- database hops and handlers

    def _frontend_to_db(self, payload) -> None:
        delay = self.sc.latency.frontend_db.sample(self.frontend.rng)
        self.sim.schedule(self.sim.now + delay, "db", payload)

    def _db_to_frontend(self, payload) -> None:
        delay = self.sc.latency.frontend_db.sample(self.db_rng)
        self.sim.schedule(self.sim.now + delay, "frontend", payload)

    def _on_db_store_audio(self, target, msg: DbStoreAudio):
        self.db.store_audio(msg.ctx.user_id, msg.ctx.samples)
        self._db_to_frontend(DbAck("db-store-ack", msg.token, msg.ctx))

    def _on_db_fetch(self, target, msg: DbFetch):
        row = self.db.fetch(msg.user_id)
        profiles, audio = (list(row.profiles), row.audio) if row is not None else ([], ())
        self._db_to_frontend(DbFetchReply(profiles, audio, msg.token, msg.ctx))

    def _on_db_put_profile(self, target, msg: DbPutProfile):
        self._put(self.db, msg.profile)
        self._db_to_frontend(DbAck("db-put-ack", msg.token, msg.ctx))

    # -- the enrollment's hops to the database: the audio before the legs,
    # one put after each leg

    def _store_audio(self, ctx: EnrollCtx) -> None:
        self._frontend_to_db(DbStoreAudio(token="enroll.stored", ctx=ctx))

    def _store_leg(self, ctx: EnrollCtx, profile: UserProfile) -> None:
        self._frontend_to_db(DbPutProfile(profile, self.put_token, ctx))

    # -- runtime flow

    def _on_runtime_request(self, target, msg: Request):
        self._frontend_to_db(DbFetch(msg.ctx.user_id, "runtime.fetched", msg.ctx))

    def _runtime_fetched(self, msg: DbFetchReply):
        ctx: RuntimeCtx = msg.ctx
        ctx.profiles = msg.profiles
        ctx.audio = msg.audio
        if not ctx.profiles:
            # not enrolled: reject without engine work
            self._respond_runtime(ctx, Outcome.OK)
            return
        self._dispatch_runtime(ctx)

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        ctx = msg.ctx
        if ctx.refreshed is not None:
            self._frontend_to_db(DbPutProfile(ctx.refreshed, "runtime.put", ctx))
            return
        self._respond_runtime(ctx, Outcome.OK)

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
        for user, row in self.db.rows.items():
            if row.profiles and row.profiles[-1].version.seq < target:
                self._queue_reenroll(user)

    def _pump(self, lane: int) -> None:
        """Fetch the next queued user whose newest stored profile predates
        the newest served version; with none left the lane stops."""
        newest = self.served_versions[-1]
        while self._pump_heap:
            user = heappop(self._pump_heap)
            self._pump_queued.discard(user)
            row = self.db.fetch(user)
            if row is not None and row.profiles and row.profiles[-1].version.seq < newest.seq:
                token = f"{self.pump_token}.fetched"
                self._frontend_to_db(DbFetch(user, token, _SweepCtx(user, lane)))
                return
        self._pump_lanes -= 1
        if not self._pump_lanes:
            self._pump_drained()

    def _pump_fetched(self, msg: DbFetchReply):
        ctx: _SweepCtx = msg.ctx
        # the lane saw a stored profile, and rows never lose audio or profiles
        ctx.from_version = msg.profiles[-1].version
        newest_served = self.served_versions[-1]
        if ctx.from_version.seq >= newest_served.seq:
            self._pump_advance(ctx.lane)
            return
        # a version reported as served always has a live server behind it
        server_id = self._pump_server(ctx, self.servers_serving(newest_served))
        self._send_enroll_job(server_id, ctx, msg.audio, f"{self.pump_token}.done")

    def _pump_enrolled(self, msg: EnrollJobDone):
        ctx: _SweepCtx = msg.ctx
        ctx.profile = msg.profile
        self._frontend_to_db(DbPutProfile(msg.profile, f"{self.pump_token}.put", ctx))

    def _pump_put(self, msg: DbAck):
        ctx: _SweepCtx = msg.ctx
        self.log.log_reenroll(self.sim.now, ctx.user_id, ctx.from_version, ctx.profile.version)
        self._pump_advance(ctx.lane)

    def _pump_advance(self, lane: int) -> None:
        """The lane is done with its user: go on to the next."""
        self._pump(lane)


class OnlineServerWorld(ServerWorldBase):
    """SINGLE_ONLINE: servers update in place while serving; profiles are
    repaired on the request path. Mitigation decides how dispatch avoids (or
    does not avoid) the version skew."""

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        if self.cfg.mitigation is Mitigation.MULTI_PROFILE:
            self.retain = None

    def _stale_profile(self, engine, ctx):
        # repair in place from the fetched audio; the new profile is written
        # back before the response goes out
        fresh = engine.enroll(ctx.user_id, ctx.audio)
        self.log.log_reenroll(self.sim.now, ctx.user_id, ctx.profiles[-1].version, fresh.version)
        ctx.refreshed = fresh
        ctx.reenrolls += 1
        return fresh, engine.enroll_duration_ms(len(ctx.audio))


class _RefreshRound:
    __slots__ = ("remaining", "waiters")

    def __init__(self, remaining: int):
        self.remaining = remaining
        self.waiters: list[tuple[object, str]] = []


class SyncTableServerWorld(OnlineServerWorld):
    """SINGLE_ONLINE with the SYNC_TABLE mitigation. The frontend keeps a
    table of the versions each server serves and dispatches only to servers
    it lists with the version a request needs. A probe round every
    ``sync_table_period_ms``, and one whenever no listed server fits,
    refreshes the table. A server mid-update refuses jobs, which tells the
    frontend that its entry is stale."""

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.version_table: dict[str, set[VersionId]] = {
            sid: {server.engine.model} for sid, server in self.clouds.items()
        }
        self._rounds: dict[int, _RefreshRound] = {}
        self._round_seq = 0
        self.on("job-rejected", self._on_job_rejected)
        self.on("sync-tick", self._on_sync_tick)
        self.on("sync-probe", self._on_sync_probe)
        self.on("sync-reply", self._on_sync_reply)
        self.on("dispatch-retry", self._on_dispatch_retry)
        self.sim.schedule(self.cfg.sync_table_period_ms, "frontend", SYNC_TICK)

    # -- a server mid-update refuses work

    def _on_enroll_job(self, target, msg):
        if not self._refused(msg, "enroll"):
            super()._on_enroll_job(target, msg)

    def _on_recognize_job(self, target, msg):
        if not self._refused(msg, "runtime"):
            super()._on_recognize_job(target, msg)

    def _refused(self, msg, flow: str) -> bool:
        if not self.clouds[msg.server_id].updating:
            return False
        self._cloud_to_frontend(
            msg.server_id, JobRejected(ctx=msg.ctx, server_id=msg.server_id, flow=flow)
        )
        return True

    # -- dispatch from the table: the enrollment's one leg and every runtime
    # request go where the table says

    def _start_enroll(self, ctx: EnrollCtx) -> None:
        self._select_and_dispatch(ctx, "enroll")

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        self._select_and_dispatch(ctx, "runtime")

    def _select_and_dispatch(self, ctx, flow: str, refreshed: bool = False) -> None:
        """Send the job to a server the table lists with the version it
        needs; ``refreshed`` when a probe round has just renewed the table
        for this request."""
        fe = self.frontend
        table = self.version_table
        # a runtime request needs the user's newest profile version
        required = ctx.profiles[-1].version if flow == "runtime" else None
        eligible = [
            s
            for s in fe.server_ids
            if table[s] and (required is None or required in table[s])
        ]
        if not eligible and refreshed:
            # fresh table, required version served nowhere: the producer has
            # moved past it, so the newest table entry is a strict upgrade
            versions = [v for s in fe.server_ids for v in table[s]]
            if versions:
                newest_listed = max(versions, key=lambda v: v.seq)
                eligible = [s for s in fe.server_ids if newest_listed in table[s]]
        if eligible:
            self._send_job(ctx, flow, fe.choose(ctx.user_id, eligible))
            return
        if not refreshed:
            self._start_refresh(waiter=(ctx, flow))
            return
        # every server is mid-update; try again after one sync period
        self.sim.schedule_in(
            self.cfg.sync_table_period_ms, "frontend", DispatchRetry(ctx=ctx, flow=flow)
        )

    def _send_job(self, ctx, flow: str, server_id: str) -> None:
        if flow == "enroll":
            self._send_enroll_job(server_id, ctx, ctx.samples, self.leg_token)
        else:
            self._send_recognize_job(server_id, ctx)

    def _on_job_rejected(self, target, msg: JobRejected):
        # the table entry was stale; blank it and force a refresh before any
        # fallback decision
        self.version_table[msg.server_id] = set()
        self._select_and_dispatch(msg.ctx, msg.flow)

    def _on_dispatch_retry(self, target, msg: DispatchRetry):
        self._select_and_dispatch(msg.ctx, msg.flow)

    # -- refresh rounds: probe every server, then dispatch the waiters

    def _start_refresh(self, waiter: tuple[object, str] | None) -> None:
        self._round_seq += 1
        round_id = self._round_seq
        rnd = _RefreshRound(remaining=len(self.frontend.server_ids))
        if waiter is not None:
            rnd.waiters.append(waiter)
        self._rounds[round_id] = rnd
        for sid in self.frontend.server_ids:
            self._frontend_to_cloud(sid, SyncProbe(round_id=round_id, server_id=sid))

    def _on_sync_tick(self, target, msg):
        self._start_refresh(waiter=None)
        self.sim.schedule_in(self.cfg.sync_table_period_ms, "frontend", SYNC_TICK)

    def _on_sync_probe(self, target, msg: SyncProbe):
        server = self.clouds[msg.server_id]
        versions = () if server.updating else (server.engine.model,)
        self._cloud_to_frontend(
            msg.server_id,
            SyncReply(round_id=msg.round_id, server_id=msg.server_id, versions=versions),
        )

    def _on_sync_reply(self, target, msg: SyncReply):
        self.version_table[msg.server_id] = set(msg.versions)
        rnd = self._rounds[msg.round_id]
        rnd.remaining -= 1
        if rnd.remaining == 0:
            del self._rounds[msg.round_id]
            for ctx, flow in rnd.waiters:
                self._select_and_dispatch(ctx, flow, refreshed=True)


class OfflineServerWorld(ServerWorldBase):
    """SINGLE_OFFLINE: a release opens a maintenance window. New requests are
    refused, and once every admitted request has answered, every server
    updates, then every user is re-enrolled (``reenroll_parallelism`` lanes)
    before the window lifts."""

    pump_token = "bulk"

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        # the release held back until every admitted request, counted by
        # ``_inflight``, has answered
        self._held: ModelRelease | None = None
        self._inflight = 0

    # -- the window is open while a release is active: it refuses new
    # requests; an admitted one is counted until its answer

    def _on_enroll_request(self, target, msg):
        if self.active_release is not None:
            self._respond_enroll(msg.ctx, Outcome.MAINTENANCE)
            return
        self._inflight += 1
        super()._on_enroll_request(target, msg)

    def _on_runtime_request(self, target, msg):
        if self.active_release is not None:
            self._respond_runtime(msg.ctx, Outcome.MAINTENANCE)
            return
        self._inflight += 1
        super()._on_runtime_request(target, msg)

    def _respond_enroll(self, ctx, outcome):
        super()._respond_enroll(ctx, outcome)
        self._answered(outcome)

    def _respond_runtime(self, ctx, outcome):
        super()._respond_runtime(ctx, outcome)
        self._answered(outcome)

    def _answered(self, outcome: Outcome) -> None:
        # only a refused request is answered MAINTENANCE
        if outcome is not Outcome.MAINTENANCE:
            self._inflight -= 1
            self._roll_out_if_drained()

    def _begin_release(self, release: ModelRelease) -> None:
        self.log.maintenance_begin(self.sim.now)
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
        if self._update_remaining:
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
        self.log.maintenance_end(self.sim.now)
        self.finish_release()


class DoubleServerWorld(ServerWorldBase):
    """DOUBLE: the two server groups serve two consecutive versions.
    Enrollment produces a profile per served version; runtime picks the
    newest version common to the user's profiles and a live server and
    never re-enrolls inline. A release is done once its group is updated and
    the background sweep has given every stored user a profile for it."""

    retain = 2
    leg_token, put_token = "enroll2.done", "enroll2.put"
    pump_token = "sweep"

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.on("sweep-step", self._on_sweep_step)

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

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        ctx = msg.ctx
        if ctx.profiles[-1].version.seq < self.served_versions[-1].seq:
            self._queue_reenroll(ctx.user_id)
        self._kick_sweep()
        super()._on_recognize_done(target, msg)

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
        if self._update_remaining or self._pump_lanes or self._pump_heap:
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
