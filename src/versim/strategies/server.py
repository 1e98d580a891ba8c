"""Server-side strategy controllers: audio and profiles live in the
database, engines on the cloud fleet. The fleet itself, its rollout (one
server group for the single-version policies, two for DOUBLE), the cloud
job handlers and the runtime response path are ``CloudWorldBase``
(``common.py``); this module adds the database and the request flows.

The three controllers share the plumbing of ``ServerWorldBase``. Enrollment
stores audio in the database, produces the profile on a cloud server and
writes it back; runtime requests fetch profiles (and audio, so a mismatch
can be repaired on the engine without extra round trips), dispatch to a
server, and return scored results. The controllers differ in what a model
release does:

* SINGLE_OFFLINE freezes the frontend, updates every server, bulk re-enrolls
  every user, then lifts maintenance.
* SINGLE_ONLINE updates servers in place: every server begins its update when
  the release starts and swaps after its own drawn duration, serving on the
  old engine meanwhile (refusing jobs under SYNC_TABLE). Profiles are
  repaired lazily on the request path; mitigations shape the dispatch
  decision.
* DOUBLE keeps two versions live in the two server groups, rolls the older
  group, and upgrades profiles in the background, never on the request path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..domain import NoCommonVersionError, Outcome, UserProfile
from ..kernel import node_stream
from ..metrics import RequestKind
from ..topology import DatabaseNode, ModelRelease
from .common import (
    DB_STREAM,
    REJECTED,
    CloudWorldBase,
    DbFetch,
    DbFetchReply,
    DbPutAck,
    DbPutProfile,
    DbStoreAudio,
    DbStoreAudioAck,
    DispatchRetry,
    EnrollArrival,
    EnrollCtx,
    EnrollJob,
    EnrollJobDone,
    EnrollRequestMsg,
    EnrollResponseMsg,
    JobRejected,
    Mitigation,
    RuntimeArrival,
    RuntimeCtx,
    RuntimeRequestMsg,
    RuntimeResponseMsg,
    RecognizeJob,
    RecognizeJobDone,
    SweepStep,
    SyncProbe,
    SyncReply,
    SyncTick,
)


class _RefreshRound:
    __slots__ = ("remaining", "waiters")

    def __init__(self, remaining: int):
        self.remaining = remaining
        self.waiters: list[tuple[object, str]] = []


class ServerWorldBase(CloudWorldBase):
    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.db = DatabaseNode()
        self.db_rng = node_stream(scenario.seed, DB_STREAM)
        if self.cfg.mitigation is Mitigation.SYNC_TABLE:
            self.frontend.version_table = {
                sid: {server.engine.model} for sid, server in self.clouds.items()
            }
        self.retain: int | None = 1
        self._inflight = 0
        self._rounds: dict[int, _RefreshRound] = {}
        self._round_seq = 0

        self.on("enroll-arrival", self._on_enroll_arrival)
        self.on("runtime-arrival", self._on_runtime_arrival)
        self.on("enroll-request", self._on_enroll_request)
        self.on("runtime-request", self._on_runtime_request)
        self.on("enroll-response", self._on_enroll_response)
        self.on("db-store-audio", self._on_db_store_audio)
        self.on("db-store-ack", self._on_db_ack)
        self.on("db-fetch", self._on_db_fetch)
        self.on("db-fetch-reply", self._on_db_ack)
        self.on("db-put-profile", self._on_db_put_profile)
        self.on("db-put-ack", self._on_db_ack)
        self.on("enroll-job-done", self._on_db_ack)
        self.on("job-rejected", self._on_job_rejected)
        self.on("sync-tick", self._on_sync_tick)
        self.on("sync-probe", self._on_sync_probe)
        self.on("sync-reply", self._on_sync_reply)
        self.on("dispatch-retry", self._on_dispatch_retry)
        self._conts = {
            "enroll.stored": self._enroll_audio_stored,
            "enroll.done": self._enroll_profile_done,
            "enroll.put": self._enroll_profile_put,
            "runtime.fetched": self._runtime_fetched,
            "runtime.put": self._runtime_profiles_put,
        }

    # -- database hops and handlers

    def _frontend_to_db(self, payload) -> None:
        delay = self.sc.latency.frontend_db.sample(self.frontend.rng)
        self.sim.schedule(self.sim.now + delay, "db", payload)

    def _db_to_frontend(self, payload) -> None:
        delay = self.sc.latency.frontend_db.sample(self.db_rng)
        self.sim.schedule(self.sim.now + delay, "frontend", payload)

    def _on_db_store_audio(self, target, msg: DbStoreAudio):
        self.db.store_audio(msg.user_id, msg.samples)
        self._db_to_frontend(DbStoreAudioAck(token=msg.token, ctx=msg.ctx))

    def _on_db_fetch(self, target, msg: DbFetch):
        profiles: dict[str, list[UserProfile]] = {}
        audio = {}
        for user in msg.user_ids:
            row = self.db.fetch(user)
            if row is not None:
                profiles[user] = list(row.profiles)
                audio[user] = row.audio
        self._db_to_frontend(
            DbFetchReply(profiles=profiles, audio=audio, token=msg.token, ctx=msg.ctx)
        )

    def _on_db_put_profile(self, target, msg: DbPutProfile):
        for profile in msg.profiles:
            self.db.put_profile(profile, msg.retain)
            self.log.log_put(self.sim.now, profile.user_id, profile.version)
        self._db_to_frontend(DbPutAck(token=msg.token, ctx=msg.ctx))

    def _on_db_ack(self, target, msg):
        self._conts[msg.token](msg)

    # -- enrollment flow

    def _on_enroll_arrival(self, target, msg: EnrollArrival):
        device_id = target.split(":", 1)[1]
        ctx = EnrollCtx(
            user_id=msg.user_id,
            device_id=device_id,
            submitted=self.sim.now,
            samples=msg.samples,
        )
        self._device_to_frontend(device_id, EnrollRequestMsg(ctx=ctx))

    def _on_enroll_request(self, target, msg: EnrollRequestMsg):
        ctx = msg.ctx
        if self.frontend.maintenance:
            self._respond_enroll(ctx, Outcome.MAINTENANCE, counted=False)
            return
        self._inflight += 1
        self._frontend_to_db(
            DbStoreAudio(user_id=ctx.user_id, samples=ctx.samples, token="enroll.stored", ctx=ctx)
        )

    def _enroll_audio_stored(self, msg):
        self._dispatch_enroll(msg.ctx)

    def _dispatch_enroll(self, ctx: EnrollCtx) -> None:
        self._select_and_dispatch(ctx, "enroll")

    def _enroll_profile_done(self, msg: EnrollJobDone):
        ctx: EnrollCtx = msg.ctx
        ctx.produced.append(msg.profile)
        self._frontend_to_db(
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="enroll.put", ctx=ctx)
        )

    def _enroll_profile_put(self, msg):
        self._respond_enroll(msg.ctx, Outcome.OK)

    def _respond_enroll(self, ctx: EnrollCtx, outcome: Outcome, counted: bool = True):
        if counted:
            self._inflight -= 1
        self._frontend_to_device(ctx.device_id, EnrollResponseMsg(ctx=ctx, outcome=outcome))
        self._maintenance_check()

    def _on_enroll_response(self, target, msg: EnrollResponseMsg):
        ctx = msg.ctx
        if ctx.record:
            self.log.record(
                RequestKind.ENROLL, ctx.user_id, ctx.submitted, self.sim.now, msg.outcome
            )

    # -- runtime flow

    def _on_runtime_arrival(self, target, msg: RuntimeArrival):
        device_id = target.split(":", 1)[1]
        ctx = RuntimeCtx(
            user_id=msg.user_id,
            device_id=device_id,
            submitted=self.sim.now,
            sample=msg.sample,
            candidate_ids=(msg.user_id,),
        )
        self._device_to_frontend(device_id, RuntimeRequestMsg(ctx=ctx))

    def _on_runtime_request(self, target, msg: RuntimeRequestMsg):
        ctx = msg.ctx
        if self.frontend.maintenance:
            self._respond_runtime(ctx, Outcome.MAINTENANCE, counted=False)
            return
        self._inflight += 1
        self._frontend_to_db(DbFetch(user_ids=ctx.candidate_ids, token="runtime.fetched", ctx=ctx))

    def _runtime_fetched(self, msg: DbFetchReply):
        ctx: RuntimeCtx = msg.ctx
        ctx.profiles = msg.profiles
        ctx.audio = msg.audio
        if not any(ctx.profiles.get(u) for u in ctx.candidate_ids):
            # nobody enrolled: reject without engine work
            ctx.results = {u: REJECTED for u in ctx.candidate_ids}
            self._respond_runtime(ctx, Outcome.OK)
            return
        self._dispatch_runtime(ctx)

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        self._select_and_dispatch(ctx, "runtime")

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        ctx = msg.ctx
        if ctx.refreshed:
            self._frontend_to_db(
                DbPutProfile(
                    profiles=tuple(ctx.refreshed),
                    retain=self.retain,
                    token="runtime.put",
                    ctx=ctx,
                )
            )
            return
        self._respond_runtime(ctx, Outcome.OK)

    def _runtime_profiles_put(self, msg):
        self._respond_runtime(msg.ctx, Outcome.OK)

    def _respond_runtime(self, ctx: RuntimeCtx, outcome: Outcome, counted: bool = True):
        if counted:
            self._inflight -= 1
        self._frontend_to_device(ctx.device_id, RuntimeResponseMsg(ctx=ctx, outcome=outcome))
        self._maintenance_check()

    # -- dispatch, with the sync-table machinery when enabled

    def _select_and_dispatch(self, ctx, flow: str) -> None:
        fe = self.frontend
        if self.cfg.mitigation is not Mitigation.SYNC_TABLE:
            server_id = fe.choose(ctx.user_id, fe.server_ids)
            self._send_job(ctx, flow, server_id)
            return
        table = fe.version_table
        required = None
        if flow == "runtime":
            newest = [
                plist[-1].version
                for plist in (ctx.profiles.get(u) or [] for u in ctx.candidate_ids)
                if plist
            ]
            required = max(newest, key=lambda v: v.seq) if newest else None
        eligible = [
            s
            for s in fe.server_ids
            if table[s] and (required is None or required in table[s])
        ]
        if not eligible and ctx.refreshed_once:
            # fresh table, required version served nowhere: the producer has
            # moved past it, so the newest table entry is a strict upgrade
            versions = [v for s in fe.server_ids for v in table[s]]
            if versions:
                newest_listed = max(versions, key=lambda v: v.seq)
                eligible = [s for s in fe.server_ids if newest_listed in table[s]]
        if eligible:
            self._send_job(ctx, flow, fe.choose(ctx.user_id, eligible))
            return
        if not ctx.refreshed_once:
            self._start_refresh(waiter=(ctx, flow))
            return
        # every server is mid-update; try again after one sync period
        ctx.refreshed_once = False
        self.sim.schedule_in(
            self.cfg.sync_table_period_ms, "frontend", DispatchRetry(ctx=ctx, flow=flow)
        )

    def _send_job(self, ctx, flow: str, server_id: str) -> None:
        if flow == "enroll":
            payload = EnrollJob(
                ctx=ctx,
                server_id=server_id,
                user_id=ctx.user_id,
                samples=ctx.samples,
                token="enroll.done",
            )
        else:
            payload = RecognizeJob(ctx=ctx, server_id=server_id)
        self._frontend_to_cloud(server_id, payload)

    def _on_job_rejected(self, target, msg: JobRejected):
        # the table entry was stale; blank it and force a refresh before any
        # fallback decision
        self.frontend.version_table[msg.server_id] = set()
        msg.ctx.refreshed_once = False
        self._select_and_dispatch(msg.ctx, msg.flow)

    def _start_refresh(self, waiter: tuple[object, str] | None) -> None:
        self._round_seq += 1
        round_id = self._round_seq
        rnd = _RefreshRound(remaining=len(self.frontend.server_ids))
        if waiter is not None:
            rnd.waiters.append(waiter)
        self._rounds[round_id] = rnd
        for sid in self.frontend.server_ids:
            self._frontend_to_cloud(sid, SyncProbe(round_id=round_id, server_id=sid))

    def _on_sync_tick(self, target, msg: SyncTick):
        self._start_refresh(waiter=None)
        self.sim.schedule_in(self.cfg.sync_table_period_ms, "frontend", SyncTick())

    def _on_sync_probe(self, target, msg: SyncProbe):
        server = self.clouds[msg.server_id]
        versions = () if server.updating else (server.engine.model,)
        self._cloud_to_frontend(
            msg.server_id,
            SyncReply(round_id=msg.round_id, server_id=msg.server_id, versions=versions),
        )

    def _on_sync_reply(self, target, msg: SyncReply):
        self.frontend.version_table[msg.server_id] = set(msg.versions)
        rnd = self._rounds[msg.round_id]
        rnd.remaining -= 1
        if rnd.remaining == 0:
            del self._rounds[msg.round_id]
            for ctx, flow in rnd.waiters:
                ctx.refreshed_once = True
                self._select_and_dispatch(ctx, flow)

    def _on_dispatch_retry(self, target, msg: DispatchRetry):
        self._select_and_dispatch(msg.ctx, msg.flow)

    def _maintenance_check(self) -> None:
        pass


class OnlineServerWorld(ServerWorldBase):
    """SINGLE_ONLINE: servers update in place while serving; profiles are
    repaired on the request path. Mitigation decides how dispatch avoids (or
    does not avoid) the version skew."""

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.retain = None if self.cfg.mitigation is Mitigation.MULTI_PROFILE else 1
        if self.cfg.mitigation is Mitigation.SYNC_TABLE:
            self.sim.schedule(self.cfg.sync_table_period_ms, "frontend", SyncTick())

    def _stale_profile(self, engine, ctx, user, newest):
        # repair in place from the fetched audio; the new profile is written
        # back before the response goes out
        audio = ctx.audio[user]
        fresh = engine.enroll(user, audio)
        self.log.log_reenroll(self.sim.now, user, newest.version, fresh.version)
        ctx.refreshed.append(fresh)
        ctx.reenrolls += 1
        return fresh, engine.enroll_duration_ms(len(audio))


class _SweepCtx:
    """One background re-enrollment: a DOUBLE sweep step or an offline bulk
    lane's current user."""

    __slots__ = ("user_id", "lane", "from_version", "profile")

    def __init__(self, user_id: str, lane: int = 0):
        self.user_id = user_id
        self.lane = lane
        self.from_version = None
        self.profile = None


class OfflineServerWorld(ServerWorldBase):
    """SINGLE_OFFLINE: a release opens a maintenance window. New requests are
    refused, in-flight ones drain, every server updates, then every user is
    re-enrolled (``reenroll_parallelism`` lanes) before the window lifts."""

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self._outstanding = {sid: 0 for sid in self.clouds}
        self._pending_update: dict[str, ModelRelease] = {}
        self._bulk_queue: deque[str] = deque()
        self._bulk_active_lanes = 0
        self._bulk_phase = False
        self._conts["bulk.fetched"] = self._bulk_fetched
        self._conts["bulk.done"] = self._bulk_enrolled
        self._conts["bulk.put"] = self._bulk_put

    # outstanding-job accounting so a server only updates once drained

    def _send_job(self, ctx, flow: str, server_id: str) -> None:
        self._outstanding[server_id] += 1
        super()._send_job(ctx, flow, server_id)

    def _enroll_profile_done(self, msg: EnrollJobDone):
        self._job_drained(msg.server_id)
        super()._enroll_profile_done(msg)

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        self._job_drained(msg.server_id)
        super()._on_recognize_done(target, msg)

    def _job_drained(self, server_id: str) -> None:
        self._outstanding[server_id] -= 1
        if self._outstanding[server_id] == 0 and server_id in self._pending_update:
            self._start_server_update(server_id, self._pending_update.pop(server_id))

    def _begin_release(self, release: ModelRelease) -> None:
        self.log.maintenance_begin(self.sim.now)
        self.frontend.maintenance = True
        super()._begin_release(release)

    def _start_server_update(self, server_id: str, release: ModelRelease) -> None:
        if self._outstanding[server_id]:
            self._pending_update[server_id] = release  # starts once drained
        else:
            super()._start_server_update(server_id, release)

    def _after_server_updated(self) -> None:
        if not self._update_remaining:
            self._begin_bulk_reenroll()

    # bulk re-enrollment

    def _begin_bulk_reenroll(self) -> None:
        self._bulk_queue = deque(self._stale_users())
        if not self._bulk_queue:
            self._bulk_phase = False
            self._maintenance_check()
            return
        self._bulk_phase = True
        lanes = min(self.sc.reenroll_parallelism, len(self._bulk_queue))
        self._bulk_active_lanes = lanes
        for lane in range(lanes):
            self._bulk_next(lane)

    def _stale_users(self) -> list[str]:
        target = self.active_release.version
        return [
            user
            for user, row in sorted(self.db.rows.items())
            if row.profiles and row.profiles[-1].version != target
        ]

    def _bulk_next(self, lane: int) -> None:
        if not self._bulk_queue:
            self._bulk_active_lanes -= 1
            if self._bulk_active_lanes == 0:
                leftovers = self._stale_users()
                if leftovers:
                    self._bulk_queue = deque(leftovers)
                    self._bulk_active_lanes = 1
                    self._bulk_next(0)
                    return
                self._bulk_phase = False
                self._maintenance_check()
            return
        user = self._bulk_queue.popleft()
        self._frontend_to_db(
            DbFetch(user_ids=(user,), token="bulk.fetched", ctx=_SweepCtx(user, lane))
        )

    def _bulk_fetched(self, msg: DbFetchReply):
        bg: _SweepCtx = msg.ctx
        # a queued user holds a profile, and rows never lose audio or profiles
        bg.from_version = msg.profiles[bg.user_id][-1].version
        server_id = self.frontend.server_ids[bg.lane % len(self.frontend.server_ids)]
        self._outstanding[server_id] += 1
        self._frontend_to_cloud(
            server_id,
            EnrollJob(
                ctx=bg,
                server_id=server_id,
                user_id=bg.user_id,
                samples=msg.audio[bg.user_id],
                token="bulk.done",
            ),
        )

    def _bulk_enrolled(self, msg: EnrollJobDone):
        self._job_drained(msg.server_id)
        bg: _SweepCtx = msg.ctx
        bg.profile = msg.profile
        self._frontend_to_db(
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="bulk.put", ctx=bg)
        )

    def _bulk_put(self, msg):
        bg: _SweepCtx = msg.ctx
        self.log.log_reenroll(self.sim.now, bg.user_id, bg.from_version, bg.profile.version)
        self._bulk_next(bg.lane)

    def _maintenance_check(self) -> None:
        """The window lifts only when servers are updated, the bulk pass found
        nothing left to do, and no drained request chain is still in flight
        (a drained enrollment can land an old-version profile late)."""
        if not self.frontend.maintenance:
            return
        if self._update_remaining or self._bulk_phase or self._inflight:
            return
        if self._stale_users():
            self._begin_bulk_reenroll()
            return
        self.frontend.maintenance = False
        self.log.maintenance_end(self.sim.now)
        self.finish_release()


class DoubleServerWorld(ServerWorldBase):
    """DOUBLE: the two server groups serve two consecutive versions.
    Enrollment produces a profile per served version; runtime picks the
    newest version common to the candidate and a fully updated server and
    never re-enrolls inline. A release is done once its group is updated and
    the background sweep has given every stored user a profile for it."""

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.retain = 2
        # users awaiting the sweep: a min-heap of ids plus the same ids as a
        # set, so the sweep visits them in ascending id order, once each
        self._sweep_heap: list[str] = []
        self._sweep_queued: set[str] = set()
        self.sweep_active = False
        self._conts["enroll2.done"] = self._enroll_leg_done
        self._conts["enroll2.put"] = self._enroll_leg_put
        self._conts["sweep.fetched"] = self._sweep_fetched
        self._conts["sweep.done"] = self._sweep_enrolled
        self._conts["sweep.put"] = self._sweep_put
        self.on("sweep-step", self._on_sweep_step)

    # enrollment: one leg per served version, oldest first

    def _dispatch_enroll(self, ctx: EnrollCtx) -> None:
        ctx.plan = self.served_versions[-2:]
        self._next_enroll_leg(ctx)

    def _next_enroll_leg(self, ctx: EnrollCtx) -> None:
        if not ctx.plan:
            if len({p.version.seq for p in ctx.produced}) < 2:
                # rolled-out version was not available yet; the sweep will
                # produce the second profile
                self._queue_sweep(ctx.user_id)
                self._kick_sweep()
            self._respond_enroll(ctx, Outcome.OK)
            return
        version = ctx.plan.pop(0)
        eligible = self.servers_serving(version)
        if not eligible:
            # a release started between planning and this leg; the sweep
            # will supply the missing second profile
            self._next_enroll_leg(ctx)
            return
        server_id = self.frontend.choose(ctx.user_id, eligible)
        self._frontend_to_cloud(
            server_id,
            EnrollJob(
                ctx=ctx,
                server_id=server_id,
                user_id=ctx.user_id,
                samples=ctx.samples,
                token="enroll2.done",
            ),
        )

    def _enroll_leg_done(self, msg: EnrollJobDone):
        ctx: EnrollCtx = msg.ctx
        ctx.produced.append(msg.profile)
        self._frontend_to_db(
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="enroll2.put", ctx=ctx)
        )

    def _enroll_leg_put(self, msg):
        self._next_enroll_leg(msg.ctx)

    # runtime: version intersection, no inline repair

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        if not self._dispatch_to_common_version(ctx):
            raise NoCommonVersionError(
                f"candidates {ctx.candidate_ids} share no served version "
                f"(served: {[v.id for v in self.served_versions]})"
            )

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        newest_served = self.served_versions[-1]
        for user in msg.ctx.candidate_ids:
            plist = msg.ctx.profiles.get(user) or []
            if plist and plist[-1].version.seq < newest_served.seq:
                self._queue_sweep(user)
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
        if self._update_remaining or self.sweep_active or self._sweep_heap:
            return
        if self._queue_stale_users():
            self._kick_sweep()
            return
        self.finish_release()

    # background sweep, one user at a time

    def _queue_sweep(self, user: str) -> None:
        if user not in self._sweep_queued:
            self._sweep_queued.add(user)
            heappush(self._sweep_heap, user)

    def _queue_stale_users(self) -> bool:
        """Queue every stored user whose newest profile predates the active
        release; True when there was any."""
        target = self.active_release.version.seq
        stale = False
        for user, row in self.db.rows.items():
            if row.profiles and row.profiles[-1].version.seq < target:
                self._queue_sweep(user)
                stale = True
        return stale

    def _kick_sweep(self) -> None:
        if self.sweep_active or not self._sweep_heap:
            return
        self.sim.schedule_in(0, "frontend", SweepStep())
        self.sweep_active = True

    def _on_sweep_step(self, target, msg: SweepStep):
        newest = self.served_versions[-1]
        while self._sweep_heap:
            user = heappop(self._sweep_heap)
            self._sweep_queued.discard(user)
            row = self.db.fetch(user)
            if row is None or not row.profiles:
                continue
            if row.profiles[-1].version.seq >= newest.seq:
                continue
            self._frontend_to_db(
                DbFetch(user_ids=(user,), token="sweep.fetched", ctx=_SweepCtx(user))
            )
            return
        self.sweep_active = False
        self._maybe_finish_rollout()

    def _sweep_fetched(self, msg: DbFetchReply):
        ctx: _SweepCtx = msg.ctx
        # the step saw a stored profile, and rows never lose audio or profiles
        profiles = msg.profiles[ctx.user_id]
        newest_served = self.served_versions[-1]
        if profiles[-1].version.seq >= newest_served.seq:
            self._sweep_advance()
            return
        ctx.from_version = profiles[-1].version
        # a version reported as served always has a live server behind it
        server_id = self.frontend.choose(ctx.user_id, self.servers_serving(newest_served))
        self._frontend_to_cloud(
            server_id,
            EnrollJob(
                ctx=ctx,
                server_id=server_id,
                user_id=ctx.user_id,
                samples=msg.audio[ctx.user_id],
                token="sweep.done",
            ),
        )

    def _sweep_enrolled(self, msg: EnrollJobDone):
        ctx: _SweepCtx = msg.ctx
        ctx.profile = msg.profile
        self._frontend_to_db(
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="sweep.put", ctx=ctx)
        )

    def _sweep_put(self, msg):
        ctx: _SweepCtx = msg.ctx
        self.log.log_reenroll(self.sim.now, ctx.user_id, ctx.from_version, ctx.profile.version)
        self._sweep_advance()

    def _sweep_advance(self) -> None:
        self.sweep_active = False
        if self._sweep_heap:
            self._kick_sweep()
        else:
            self._maybe_finish_rollout()
