"""Server-side strategy controllers.

Three controllers share one request plumbing. Enrollment stores audio in the
database, produces the profile on a cloud server and writes it back; runtime
requests fetch profiles (and audio, so a mismatch can be repaired on the
engine without extra round trips), dispatch to a server, and return scored
results. The controllers differ in what a model release does:

* SINGLE_OFFLINE freezes the frontend, updates every server, bulk re-enrolls
  every user, then lifts maintenance.
* SINGLE_ONLINE updates servers in place (staggered) and repairs profiles
  lazily on the request path; mitigations shape the dispatch decision.
* DOUBLE keeps two versions live in two fixed server groups, rolls the older
  group, and upgrades profiles in the background, never on the request path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..domain import (
    NoCommonVersionError,
    Outcome,
    UserProfile,
    VersionId,
    result_from_score,
)
from ..kernel import node_stream
from ..metrics import RequestKind
from ..topology import CloudServerNode, DatabaseNode, ModelRelease, ModelStorageNode
from .common import (
    DB_STREAM,
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

REJECTED = result_from_score(0.0)


def partition_groups(server_ids: list[str]) -> tuple[list[str], list[str]]:
    """Fixed half split for double-version deployments; the first group gets
    the extra server when the count is odd."""
    half = (len(server_ids) + 1) // 2
    return server_ids[:half], server_ids[half:]


def double_initial_version(storage: ModelStorageNode, index: int, servers: int) -> VersionId:
    """Initial version of server ``index`` in a double-version deployment:
    the first group of ``partition_groups`` starts on the older one."""
    return storage.releases[0 if index < (servers + 1) // 2 else 1].version


class _RefreshRound:
    __slots__ = ("remaining", "waiters")

    def __init__(self, remaining: int):
        self.remaining = remaining
        self.waiters: list[tuple[object, str]] = []


class ServerWorldBase(CloudWorldBase):
    _service_reenrolls = False

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
        self.on("runtime-response", self._on_runtime_response)
        self.on("db-store-audio", self._on_db_store_audio)
        self.on("db-store-ack", self._on_db_ack)
        self.on("db-fetch", self._on_db_fetch)
        self.on("db-fetch-reply", self._on_db_ack)
        self.on("db-put-profile", self._on_db_put_profile)
        self.on("db-put-ack", self._on_db_ack)
        self.on("enroll-job", self._on_enroll_job)
        self.on("enroll-job-done", self._on_db_ack)
        self.on("recognize-job", self._on_recognize_job)
        self.on("recognize-job-done", self._on_recognize_done)
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

    # -- generic node handlers

    def _on_db_store_audio(self, target, msg: DbStoreAudio):
        self.db.store_audio(msg.user_id, msg.samples)
        self.send(
            self.sc.latency.frontend_db,
            self.db_rng,
            "frontend",
            DbStoreAudioAck(token=msg.token, ctx=msg.ctx),
        )

    def _on_db_fetch(self, target, msg: DbFetch):
        profiles: dict[str, list[UserProfile]] = {}
        audio = {}
        for user in msg.user_ids:
            row = self.db.fetch(user)
            if row is not None:
                profiles[user] = list(row.profiles)
                audio[user] = row.audio
        self.send(
            self.sc.latency.frontend_db,
            self.db_rng,
            "frontend",
            DbFetchReply(profiles=profiles, audio=audio, token=msg.token, ctx=msg.ctx),
        )

    def _on_db_put_profile(self, target, msg: DbPutProfile):
        for profile in msg.profiles:
            self.db.put_profile(profile, msg.retain)
            self.log.log_put(self.sim.now, profile.user_id, profile.version)
        self.send(
            self.sc.latency.frontend_db,
            self.db_rng,
            "frontend",
            DbPutAck(token=msg.token, ctx=msg.ctx),
        )

    def _on_db_ack(self, target, msg):
        self._conts[msg.token](msg)

    def _on_enroll_job(self, target, msg: EnrollJob):
        server = self.clouds[msg.server_id]
        if self.cfg.mitigation is Mitigation.SYNC_TABLE and server.updating:
            self.send(
                self.sc.latency.frontend_cloud,
                self.cloud_rng[msg.server_id],
                "frontend",
                JobRejected(ctx=msg.ctx, server_id=msg.server_id, flow="enroll"),
            )
            return
        engine = server.engine
        profile = engine.enroll(msg.user_id, msg.samples)
        self.send(
            self.sc.latency.frontend_cloud,
            self.cloud_rng[msg.server_id],
            "frontend",
            EnrollJobDone(ctx=msg.ctx, server_id=msg.server_id, profile=profile, token=msg.token),
            extra_delay=engine.enroll_duration_ms(len(msg.samples)),
        )

    # -- enrollment flow

    def _on_enroll_arrival(self, target, msg: EnrollArrival):
        device_id = target.split(":", 1)[1]
        ctx = EnrollCtx(
            user_id=msg.user_id,
            device_id=device_id,
            submitted=self.sim.now,
            samples=msg.samples,
        )
        self.send(
            self.sc.latency.device_frontend,
            self.device_rng[device_id],
            "frontend",
            EnrollRequestMsg(ctx=ctx),
        )

    def _on_enroll_request(self, target, msg: EnrollRequestMsg):
        ctx = msg.ctx
        if self.frontend.maintenance:
            self._respond_enroll(ctx, Outcome.MAINTENANCE, counted=False)
            return
        self._inflight += 1
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbStoreAudio(user_id=ctx.user_id, samples=ctx.samples, token="enroll.stored", ctx=ctx),
        )

    def _enroll_audio_stored(self, msg):
        self._dispatch_enroll(msg.ctx)

    def _dispatch_enroll(self, ctx: EnrollCtx) -> None:
        self._select_and_dispatch(ctx, "enroll")

    def _enroll_profile_done(self, msg: EnrollJobDone):
        ctx: EnrollCtx = msg.ctx
        ctx.produced.append(msg.profile)
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="enroll.put", ctx=ctx),
        )

    def _enroll_profile_put(self, msg):
        self._respond_enroll(msg.ctx, Outcome.OK)

    def _respond_enroll(self, ctx: EnrollCtx, outcome: Outcome, counted: bool = True):
        if counted:
            self._inflight -= 1
        self.send(
            self.sc.latency.device_frontend,
            self.frontend.rng,
            self.device_target(ctx.device_id),
            EnrollResponseMsg(ctx=ctx, outcome=outcome),
        )
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
        self.send(
            self.sc.latency.device_frontend,
            self.device_rng[device_id],
            "frontend",
            RuntimeRequestMsg(ctx=ctx),
        )

    def _on_runtime_request(self, target, msg: RuntimeRequestMsg):
        ctx = msg.ctx
        if self.frontend.maintenance:
            self._respond_runtime(ctx, Outcome.MAINTENANCE, counted=False)
            return
        self._inflight += 1
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbFetch(user_ids=ctx.candidate_ids, token="runtime.fetched", ctx=ctx),
        )

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

    def _on_recognize_job(self, target, msg: RecognizeJob):
        server = self.clouds[msg.server_id]
        ctx = msg.ctx
        if self.cfg.mitigation is Mitigation.SYNC_TABLE and server.updating:
            self.send(
                self.sc.latency.frontend_cloud,
                self.cloud_rng[msg.server_id],
                "frontend",
                JobRejected(ctx=ctx, server_id=msg.server_id, flow="runtime"),
            )
            return
        work = self._service_runtime(server, ctx)
        self.send(
            self.sc.latency.frontend_cloud,
            self.cloud_rng[msg.server_id],
            "frontend",
            RecognizeJobDone(ctx=ctx, server_id=msg.server_id),
            extra_delay=work,
        )

    def _service_runtime(self, server: CloudServerNode, ctx: RuntimeCtx) -> int:
        """Run the engine for one runtime request; returns the compute time.
        Single-version flavors repair mismatched profiles in place when the
        world allows it; the engine's own version check is the tripwire."""
        engine = server.engine
        model = engine.model
        multi = self.cfg.mitigation is Mitigation.MULTI_PROFILE
        work = 0
        used: dict[str, UserProfile] = {}
        for user in ctx.candidate_ids:
            plist = ctx.profiles.get(user) or []
            if not plist:
                ctx.results[user] = REJECTED
                continue
            if multi:
                match = next((p for p in plist if p.version == model), None)
            else:
                match = plist[-1] if plist[-1].version == model else None
            if match is not None:
                used[user] = match
                continue
            if not self._service_reenrolls:
                # offline worlds never repair on the request path; feed the
                # stored profile through and let the tripwire judge it
                used[user] = plist[-1]
                continue
            newest = plist[-1]
            work += engine.enroll_duration_ms(len(ctx.audio[user]))
            fresh = engine.enroll(user, ctx.audio[user])
            self.log.log_reenroll(self.sim.now, user, newest.version, fresh.version)
            ctx.refreshed.append(fresh)
            ctx.reenrolls += 1
            used[user] = fresh
        if used:
            work += engine.runtime_cost_ms
            ctx.results.update(engine.recognize(ctx.sample, used))
        return work

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        ctx = msg.ctx
        self._after_runtime_service(ctx)
        if ctx.refreshed:
            self.send(
                self.sc.latency.frontend_db,
                self.frontend.rng,
                "db",
                DbPutProfile(
                    profiles=tuple(ctx.refreshed),
                    retain=self.retain,
                    token="runtime.put",
                    ctx=ctx,
                ),
            )
            return
        self._respond_runtime(ctx, Outcome.OK)

    def _after_runtime_service(self, ctx: RuntimeCtx) -> None:
        pass

    def _runtime_profiles_put(self, msg):
        self._respond_runtime(msg.ctx, Outcome.OK)

    def _respond_runtime(self, ctx: RuntimeCtx, outcome: Outcome, counted: bool = True):
        if counted:
            self._inflight -= 1
        self.send(
            self.sc.latency.device_frontend,
            self.frontend.rng,
            self.device_target(ctx.device_id),
            RuntimeResponseMsg(ctx=ctx, outcome=outcome),
        )
        self._maintenance_check()

    def _on_runtime_response(self, target, msg: RuntimeResponseMsg):
        ctx = msg.ctx
        self.log.record(
            RequestKind.RUNTIME,
            ctx.user_id,
            ctx.submitted,
            self.sim.now,
            msg.outcome,
            reenrollments_in_path=ctx.reenrolls,
        )

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
            ctx.pinned_server = server_id
            payload = RecognizeJob(ctx=ctx, server_id=server_id)
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            payload,
        )

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
            self.send(
                self.sc.latency.frontend_cloud,
                self.frontend.rng,
                f"cloud:{sid}",
                SyncProbe(round_id=round_id, server_id=sid),
            )

    def _on_sync_tick(self, target, msg: SyncTick):
        self._start_refresh(waiter=None)
        self.sim.schedule_in(self.cfg.sync_table_period_ms, "frontend", SyncTick())

    def _on_sync_probe(self, target, msg: SyncProbe):
        server = self.clouds[msg.server_id]
        versions = () if server.updating else (server.engine.model,)
        self.send(
            self.sc.latency.frontend_cloud,
            self.cloud_rng[msg.server_id],
            "frontend",
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

    _service_reenrolls = True

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.retain = None if self.cfg.mitigation is Mitigation.MULTI_PROFILE else 1
        if self.cfg.mitigation is Mitigation.SYNC_TABLE:
            self.sim.schedule(self.cfg.sync_table_period_ms, "frontend", SyncTick())


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
            release = self._pending_update.pop(server_id)
            self._start_server_update(server_id, release)

    def _begin_release(self, release: ModelRelease) -> None:
        self.log.maintenance_begin(self.sim.now)
        self.frontend.maintenance = True
        self._update_remaining = set(self.clouds)
        for sid in self.frontend.server_ids:
            if self._outstanding[sid] == 0:
                self._start_server_update(sid, release)
            else:
                self._pending_update[sid] = release

    def _after_server_updated(self, server: CloudServerNode) -> None:
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
        bg = _BulkCtx(user, lane)
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbFetch(user_ids=(user,), token="bulk.fetched", ctx=bg),
        )

    def _bulk_fetched(self, msg: DbFetchReply):
        bg: _BulkCtx = msg.ctx
        audio = msg.audio.get(bg.user_id, ())
        if not audio:
            # cannot rebuild this profile; drop it rather than serve a stale one
            self.log.no_audio_events += 1
            self.db.fetch(bg.user_id).profiles = []
            self._bulk_next(bg.lane)
            return
        plist = msg.profiles.get(bg.user_id, [])
        bg.from_version = plist[-1].version if plist else None
        server_id = self.frontend.server_ids[bg.lane % len(self.frontend.server_ids)]
        self._outstanding[server_id] += 1
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            EnrollJob(ctx=bg, server_id=server_id, user_id=bg.user_id, samples=audio, token="bulk.done"),
        )

    def _bulk_enrolled(self, msg: EnrollJobDone):
        self._job_drained(msg.server_id)
        bg: _BulkCtx = msg.ctx
        bg.profile = msg.profile
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="bulk.put", ctx=bg),
        )

    def _bulk_put(self, msg):
        bg: _BulkCtx = msg.ctx
        if bg.from_version is not None:
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


class _BulkCtx:
    __slots__ = ("user_id", "lane", "from_version", "profile")

    def __init__(self, user_id: str, lane: int):
        self.user_id = user_id
        self.lane = lane
        self.from_version = None
        self.profile = None


class _SweepCtx:
    __slots__ = ("user_id", "from_version", "profile")

    def __init__(self, user_id: str):
        self.user_id = user_id
        self.from_version = None
        self.profile = None


class DoubleServerWorld(ServerWorldBase):
    """DOUBLE: two fixed server groups serve two consecutive versions. A
    release rolls the group with the older version; enrollment produces a
    profile per served version; runtime picks the newest version common to
    the candidate and a fully updated server and never re-enrolls inline."""

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.retain = 2
        self.group_members = partition_groups(self.frontend.server_ids)
        self.group_version: dict[int, VersionId] = {
            0: self.storage.releases[0].version,
            1: self.storage.releases[1].version,
        }
        self._rolling_group: int | None = None
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

    def _initial_version_for(self, index: int) -> VersionId:
        return double_initial_version(self.storage, index, self.sc.cloud_servers)

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
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            EnrollJob(ctx=ctx, server_id=server_id, user_id=ctx.user_id, samples=ctx.samples, token="enroll2.done"),
        )

    def _enroll_leg_done(self, msg: EnrollJobDone):
        ctx: EnrollCtx = msg.ctx
        ctx.produced.append(msg.profile)
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="enroll2.put", ctx=ctx),
        )

    def _enroll_leg_put(self, msg):
        self._next_enroll_leg(msg.ctx)

    # runtime: version intersection, no inline repair

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        served = self.served_versions
        served_seqs = {v.seq for v in served}
        common: set[int] | None = None
        for user in ctx.candidate_ids:
            plist = ctx.profiles.get(user) or []
            if not plist:
                continue  # answered as rejected; does not constrain the pick
            seqs = {p.version.seq for p in plist}
            common = seqs if common is None else common & seqs
        assert common is not None
        usable = common & served_seqs
        if not usable:
            raise NoCommonVersionError(
                f"candidates {ctx.candidate_ids} share no served version "
                f"(served: {[v.id for v in served]})"
            )
        target = max(usable)
        version = next(v for v in served if v.seq == target)
        server_id = self.frontend.choose(ctx.user_id, self.servers_serving(version))
        ctx.pinned_server = server_id
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            RecognizeJob(ctx=ctx, server_id=server_id),
        )

    def _service_runtime(self, server: CloudServerNode, ctx: RuntimeCtx) -> int:
        engine = server.engine
        used = {}
        for user in ctx.candidate_ids:
            plist = ctx.profiles.get(user) or []
            if not plist:
                ctx.results[user] = REJECTED
                continue
            used[user] = next(p for p in plist if p.version == engine.model)
        ctx.results.update(engine.recognize(ctx.sample, used))
        return engine.runtime_cost_ms

    def _after_runtime_service(self, ctx: RuntimeCtx) -> None:
        newest_served = self.served_versions[-1]
        for user in ctx.candidate_ids:
            plist = ctx.profiles.get(user) or []
            if plist and plist[-1].version.seq < newest_served.seq:
                self._queue_sweep(user)
        self._kick_sweep()

    # release rollout

    def _begin_release(self, release: ModelRelease) -> None:
        target_group = min(self.group_version, key=lambda g: self.group_version[g].seq)
        self._rolling_group = target_group
        members = self.group_members[target_group]
        self._update_remaining = set(members)
        for sid in members:
            self._start_server_update(sid, release)

    def _after_server_updated(self, server: CloudServerNode) -> None:
        # first finished server makes the new version available: start the
        # profile sweep
        self._queue_stale_users()
        self._kick_sweep()
        self._maybe_finish_rollout()

    def _maybe_finish_rollout(self) -> None:
        if self.active_release is None or self._rolling_group is None:
            return
        if self._update_remaining or self.sweep_active or self._sweep_heap:
            return
        if self._queue_stale_users():
            self._kick_sweep()
            return
        self.group_version[self._rolling_group] = self.active_release.version
        self._rolling_group = None
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
            ctx = _SweepCtx(user)
            self.send(
                self.sc.latency.frontend_db,
                self.frontend.rng,
                "db",
                DbFetch(user_ids=(user,), token="sweep.fetched", ctx=ctx),
            )
            return
        self.sweep_active = False
        self._maybe_finish_rollout()

    def _sweep_fetched(self, msg: DbFetchReply):
        ctx: _SweepCtx = msg.ctx
        audio = msg.audio.get(ctx.user_id, ())
        profiles = msg.profiles.get(ctx.user_id, [])
        newest_served = self.served_versions[-1]
        if not audio or not profiles or profiles[-1].version.seq >= newest_served.seq:
            if not audio and profiles:
                self.log.no_audio_events += 1
            self._sweep_advance()
            return
        ctx.from_version = profiles[-1].version
        # a version reported as served always has a live server behind it
        server_id = self.frontend.choose(ctx.user_id, self.servers_serving(newest_served))
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            EnrollJob(ctx=ctx, server_id=server_id, user_id=ctx.user_id, samples=audio, token="sweep.done"),
        )

    def _sweep_enrolled(self, msg: EnrollJobDone):
        ctx: _SweepCtx = msg.ctx
        ctx.profile = msg.profile
        self.send(
            self.sc.latency.frontend_db,
            self.frontend.rng,
            "db",
            DbPutProfile(profiles=(msg.profile,), retain=self.retain, token="sweep.put", ctx=ctx),
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
