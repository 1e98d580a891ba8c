"""Hybrid strategy controllers: profiles live on the device, engines on the
cloud servers. Every runtime request carries the profile with it, so the
server must check that the carried version matches its engine before scoring.

Two flavors:

* HYBRID single version: on mismatch the server signals the device, which
  re-enrolls against that same server and retries the request there. The
  optional handshake narrows the window in which that happens.
* HYBRID double version: two server groups serve two versions; a request
  whose carried profiles overlap no served version is answered
  STALE_PROFILES and the device re-enrolls in the background.
"""

from __future__ import annotations

from ..domain import Outcome, VersionId, result_from_score
from ..metrics import RequestKind
from ..topology import CloudServerNode, ModelRelease
from .common import (
    CloudWorldBase,
    EnrollArrival,
    EnrollCtx,
    EnrollJob,
    EnrollJobDone,
    EnrollRequestMsg,
    EnrollResponseMsg,
    HandshakeCtx,
    HandshakeReply,
    HandshakeRequest,
    HandshakeTick,
    RetryNeeded,
    RetrySignal,
    RuntimeArrival,
    RuntimeCtx,
    RuntimeRequestMsg,
    RuntimeResponseMsg,
    RecognizeJob,
    RecognizeJobDone,
)
from .server import double_initial_version, partition_groups

REJECTED = result_from_score(0.0)


class HybridWorldBase(CloudWorldBase):
    profile_cap = 1

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.on("enroll-arrival", self._on_enroll_arrival)
        self.on("runtime-arrival", self._on_runtime_arrival)
        self.on("enroll-request", self._on_enroll_request)
        self.on("enroll-response", self._on_enroll_response)
        self.on("runtime-request", self._on_runtime_request)
        self.on("runtime-response", self._on_runtime_response)
        self.on("enroll-job", self._on_enroll_job)
        self.on("enroll-job-done", self._on_enroll_job_done)
        self.on("recognize-job", self._on_recognize_job)
        self.on("recognize-job-done", self._on_recognize_done)
        self.on("retry-signal", self._on_retry_signal)
        self.on("retry-needed", self._on_retry_needed)
        self.on("handshake-tick", self._on_handshake_tick)
        self.on("handshake-request", self._on_handshake_request)
        self.on("handshake-reply", self._on_handshake_reply)

        if self.cfg.handshake_period_ms is not None:
            for device_id in sorted(self.devices):
                self.sim.schedule(
                    self.cfg.handshake_period_ms,
                    self.device_target(device_id),
                    HandshakeTick(device_id=device_id),
                )

    # -- enrollment: device keeps the audio, profiles come back in the response

    def _on_enroll_arrival(self, target, msg: EnrollArrival):
        device_id = target.split(":", 1)[1]
        device = self.devices[device_id]
        device.stored_audio[msg.user_id] = msg.samples
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

    def _start_background_enroll(self, device_id: str, user_id: str, plan: list) -> None:
        device = self.devices[device_id]
        if user_id in device.bg_enroll_inflight:
            return
        device.bg_enroll_inflight.add(user_id)
        ctx = EnrollCtx(
            user_id=user_id,
            device_id=device_id,
            submitted=self.sim.now,
            samples=device.stored_audio[user_id],
            background=True,
        )
        ctx.plan = plan
        self.send(
            self.sc.latency.device_frontend,
            self.device_rng[device_id],
            "frontend",
            EnrollRequestMsg(ctx=ctx),
        )

    def _default_enroll_plan(self) -> list:
        return [None]

    def _on_enroll_request(self, target, msg: EnrollRequestMsg):
        ctx = msg.ctx
        if not ctx.plan:
            ctx.plan = self._default_enroll_plan()
        self._next_enroll_leg(ctx)

    def _next_enroll_leg(self, ctx: EnrollCtx) -> None:
        if not ctx.plan:
            self.send(
                self.sc.latency.device_frontend,
                self.frontend.rng,
                self.device_target(ctx.device_id),
                EnrollResponseMsg(ctx=ctx, outcome=Outcome.OK, profiles=tuple(ctx.produced)),
            )
            return
        version = ctx.plan.pop(0)
        if ctx.pinned_server is not None:
            server_id = ctx.pinned_server
        else:
            eligible = (
                self.frontend.server_ids if version is None else self.servers_serving(version)
            )
            if not eligible:
                self._next_enroll_leg(ctx)
                return
            server_id = self.frontend.choose(ctx.user_id, eligible)
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            EnrollJob(ctx=ctx, server_id=server_id, user_id=ctx.user_id, samples=ctx.samples, token="leg"),
        )

    def _on_enroll_job(self, target, msg: EnrollJob):
        engine = self.clouds[msg.server_id].engine
        profile = engine.enroll(msg.user_id, msg.samples)
        self.send(
            self.sc.latency.frontend_cloud,
            self.cloud_rng[msg.server_id],
            "frontend",
            EnrollJobDone(ctx=msg.ctx, server_id=msg.server_id, profile=profile, token=msg.token),
            extra_delay=engine.enroll_duration_ms(len(msg.samples)),
        )

    def _on_enroll_job_done(self, target, msg: EnrollJobDone):
        ctx: EnrollCtx = msg.ctx
        ctx.produced.append(msg.profile)
        self._next_enroll_leg(ctx)

    def _on_enroll_response(self, target, msg: EnrollResponseMsg):
        ctx = msg.ctx
        device = self.devices[ctx.device_id]
        before = device.newest_profile(ctx.user_id)
        for profile in sorted(msg.profiles, key=lambda p: p.version.seq):
            device.store_profile(profile, self.profile_cap)
            self.log.log_put(self.sim.now, ctx.user_id, profile.version)
        if ctx.background:
            device.bg_enroll_inflight.discard(ctx.user_id)
        if (ctx.background or ctx.parent is not None) and before is not None and msg.profiles:
            newest = max(msg.profiles, key=lambda p: p.version.seq)
            self.log.log_reenroll(self.sim.now, ctx.user_id, before.version, newest.version)
        if ctx.record:
            self.log.record(
                RequestKind.ENROLL, ctx.user_id, ctx.submitted, self.sim.now, msg.outcome
            )
        if ctx.parent is not None:
            parent: RuntimeCtx = ctx.parent
            parent.reenrolls += 1
            parent.profiles = {ctx.user_id: list(device.profiles_for(ctx.user_id))}
            self.send(
                self.sc.latency.device_frontend,
                self.device_rng[ctx.device_id],
                "frontend",
                RuntimeRequestMsg(ctx=parent),
            )

    # -- runtime

    def _on_runtime_arrival(self, target, msg: RuntimeArrival):
        device_id = target.split(":", 1)[1]
        device = self.devices[device_id]
        profiles = device.profiles_for(msg.user_id)
        if not profiles:
            # not enrolled: the device can answer by itself
            self.log.record(
                RequestKind.RUNTIME, msg.user_id, self.sim.now, self.sim.now, Outcome.OK
            )
            return
        ctx = RuntimeCtx(
            user_id=msg.user_id,
            device_id=device_id,
            submitted=self.sim.now,
            sample=msg.sample,
            candidate_ids=(msg.user_id,),
            profiles={msg.user_id: list(profiles)},
        )
        self.send(
            self.sc.latency.device_frontend,
            self.device_rng[device_id],
            "frontend",
            RuntimeRequestMsg(ctx=ctx),
        )

    def _on_runtime_request(self, target, msg: RuntimeRequestMsg):
        raise NotImplementedError

    def _respond_runtime(self, ctx: RuntimeCtx, outcome: Outcome) -> None:
        self.send(
            self.sc.latency.device_frontend,
            self.frontend.rng,
            self.device_target(ctx.device_id),
            RuntimeResponseMsg(ctx=ctx, outcome=outcome),
        )

    def _on_recognize_done(self, target, msg: RecognizeJobDone):
        self._respond_runtime(msg.ctx, Outcome.OK)

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
        self._after_runtime_response(ctx, msg.outcome)

    def _after_runtime_response(self, ctx: RuntimeCtx, outcome: Outcome) -> None:
        pass

    def _on_recognize_job(self, target, msg: RecognizeJob):
        raise NotImplementedError

    def _on_retry_signal(self, target, msg: RetrySignal):
        self.send(
            self.sc.latency.device_frontend,
            self.frontend.rng,
            self.device_target(msg.ctx.device_id),
            RetryNeeded(ctx=msg.ctx, server_id=msg.server_id),
        )

    def _on_retry_needed(self, target, msg: RetryNeeded):
        ctx = msg.ctx
        ctx.pinned_server = msg.server_id
        device = self.devices[ctx.device_id]
        enroll_ctx = EnrollCtx(
            user_id=ctx.user_id,
            device_id=ctx.device_id,
            submitted=self.sim.now,
            samples=device.stored_audio[ctx.user_id],
            pinned_server=msg.server_id,
            record=False,
            parent=ctx,
        )
        enroll_ctx.plan = [None]
        self.send(
            self.sc.latency.device_frontend,
            self.device_rng[ctx.device_id],
            "frontend",
            EnrollRequestMsg(ctx=enroll_ctx),
        )

    # -- handshake

    def _on_handshake_tick(self, target, msg: HandshakeTick):
        self.sim.schedule_in(
            self.cfg.handshake_period_ms,
            self.device_target(msg.device_id),
            HandshakeTick(device_id=msg.device_id),
        )
        ctx = HandshakeCtx(user_id=msg.device_id, device_id=msg.device_id, submitted=self.sim.now)
        self.send(
            self.sc.latency.device_frontend,
            self.device_rng[msg.device_id],
            "frontend",
            HandshakeRequest(ctx=ctx),
        )

    def _on_handshake_request(self, target, msg: HandshakeRequest):
        self.send(
            self.sc.latency.device_frontend,
            self.frontend.rng,
            self.device_target(msg.ctx.device_id),
            HandshakeReply(ctx=msg.ctx, versions=tuple(self.served_versions)),
        )

    def _on_handshake_reply(self, target, msg: HandshakeReply):
        ctx = msg.ctx
        self.log.record(
            RequestKind.HANDSHAKE, ctx.user_id, ctx.submitted, self.sim.now, Outcome.OK
        )
        if not msg.versions:
            return
        newest = msg.versions[-1]
        device = self.devices[ctx.device_id]
        for user in device.owner_users:
            current = device.newest_profile(user)
            if current is not None and current.version.seq < newest.seq:
                self._start_background_enroll(
                    ctx.device_id, user, self._catchup_plan(msg.versions)
                )

    def _catchup_plan(self, served: tuple) -> list:
        return [served[-1]]


class HybridSingleWorld(HybridWorldBase):
    """One live version. A stale carried profile costs extra round trips:
    mismatch signal, on-device re-enrollment pinned to the reporting server,
    then the retried request."""

    profile_cap = 1

    def _on_runtime_request(self, target, msg: RuntimeRequestMsg):
        ctx = msg.ctx
        if ctx.pinned_server is not None:
            server_id = ctx.pinned_server
        else:
            server_id = self.frontend.choose(ctx.user_id, self.frontend.server_ids)
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            RecognizeJob(ctx=ctx, server_id=server_id),
        )

    def _on_recognize_job(self, target, msg: RecognizeJob):
        server = self.clouds[msg.server_id]
        ctx = msg.ctx
        profile = ctx.profiles[ctx.user_id][-1]
        if profile.version != server.engine.model:
            self.send(
                self.sc.latency.frontend_cloud,
                self.cloud_rng[msg.server_id],
                "frontend",
                RetrySignal(ctx=ctx, server_id=msg.server_id),
            )
            return
        ctx.results.update(server.engine.recognize(ctx.sample, {ctx.user_id: profile}))
        self.send(
            self.sc.latency.frontend_cloud,
            self.cloud_rng[msg.server_id],
            "frontend",
            RecognizeJobDone(ctx=ctx, server_id=msg.server_id),
            extra_delay=server.engine.runtime_cost_ms,
        )


class HybridDoubleWorld(HybridWorldBase):
    """Two live versions in two fixed server groups. A request whose carried
    profiles match no served version is answered STALE_PROFILES without
    engine work, and the device re-enrolls in the background."""

    profile_cap = 2

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.group_members = partition_groups(self.frontend.server_ids)
        self.group_version = {
            0: self.storage.releases[0].version,
            1: self.storage.releases[1].version,
        }
        self._rolling_group: int | None = None

    def _initial_version_for(self, index: int) -> VersionId:
        return double_initial_version(self.storage, index, self.sc.cloud_servers)

    def _default_enroll_plan(self) -> list:
        return self.served_versions[-2:]

    def _catchup_plan(self, served: tuple) -> list:
        return list(served[-2:])

    def _on_runtime_request(self, target, msg: RuntimeRequestMsg):
        ctx = msg.ctx
        carried = {p.version.seq for p in ctx.profiles[ctx.user_id]}
        served = self.served_versions
        usable = carried & {v.seq for v in served}
        if not usable:
            self._respond_runtime(ctx, Outcome.STALE_PROFILES)
            return
        version = next(v for v in served if v.seq == max(usable))
        server_id = self.frontend.choose(ctx.user_id, self.servers_serving(version))
        self.send(
            self.sc.latency.frontend_cloud,
            self.frontend.rng,
            f"cloud:{server_id}",
            RecognizeJob(ctx=ctx, server_id=server_id),
        )

    def _on_recognize_job(self, target, msg: RecognizeJob):
        server = self.clouds[msg.server_id]
        ctx = msg.ctx
        profile = next(
            p for p in ctx.profiles[ctx.user_id] if p.version == server.engine.model
        )
        ctx.results.update(server.engine.recognize(ctx.sample, {ctx.user_id: profile}))
        self.send(
            self.sc.latency.frontend_cloud,
            self.cloud_rng[msg.server_id],
            "frontend",
            RecognizeJobDone(ctx=ctx, server_id=msg.server_id),
            extra_delay=server.engine.runtime_cost_ms,
        )

    def _after_runtime_response(self, ctx: RuntimeCtx, outcome: Outcome) -> None:
        if outcome is Outcome.STALE_PROFILES:
            served = tuple(self.served_versions)
            if served:
                self._start_background_enroll(
                    ctx.device_id, ctx.user_id, self._catchup_plan(served)
                )

    def _begin_release(self, release: ModelRelease) -> None:
        target_group = min(self.group_version, key=lambda g: self.group_version[g].seq)
        self._rolling_group = target_group
        members = self.group_members[target_group]
        self._update_remaining = set(members)
        for sid in members:
            self._start_server_update(sid, release)

    def _after_server_updated(self, server: CloudServerNode) -> None:
        if not self._update_remaining and self._rolling_group is not None:
            self.group_version[self._rolling_group] = self.active_release.version
            self._rolling_group = None
            self.finish_release()
