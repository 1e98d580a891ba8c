"""Hybrid strategy controllers: profiles live on the device, engines on the
cloud fleet of ``CloudWorldBase`` (``common.py``), which also owns the
rollout (one server group for single version, two for DOUBLE), the cloud
job handlers and the runtime response path. Every runtime request carries
the profile with it, so the server must check that the carried version
matches its engine before scoring.

Two flavors:

* HYBRID single version: on mismatch the server signals the device, which
  re-enrolls against that same server and retries the request there. The
  optional handshake narrows the window in which that happens.
* HYBRID double version: the two server groups serve two versions; a
  request whose carried profiles overlap no served version is answered
  STALE_PROFILES and the device re-enrolls in the background.
"""

from __future__ import annotations

from ..domain import Outcome
from ..metrics import RequestKind
from .common import (
    CloudWorldBase,
    EnrollArrival,
    EnrollCtx,
    EnrollJobDone,
    HandshakeCtx,
    HandshakeReply,
    HandshakeTick,
    Request,
    Response,
    RuntimeArrival,
    RuntimeCtx,
    ServerHop,
)


class HybridWorldBase(CloudWorldBase):
    profile_cap = 1

    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.on("runtime-arrival", self._on_runtime_arrival)
        self.on("enroll-request", self._on_enroll_request)
        self.on("enroll-response", self._on_enroll_response)
        self.on("runtime-request", self._on_runtime_request)
        self.on("enroll-job-done", self._on_enroll_job_done)
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
        self.devices[target.split(":", 1)[1]].stored_audio[msg.user_id] = msg.samples
        super()._on_enroll_arrival(target, msg)

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
            plan=plan,
        )
        self._device_to_frontend(device_id, Request("enroll-request", ctx))

    def _on_enroll_request(self, target, msg: Request):
        ctx = msg.ctx
        if not ctx.plan:
            ctx.plan = self._enroll_plan()
        self._next_enroll_leg(ctx)

    def _next_enroll_leg(self, ctx: EnrollCtx) -> None:
        if not self._send_enroll_leg(ctx, "leg"):
            self._frontend_to_device(ctx.device_id, Response("enroll-response", ctx, Outcome.OK))

    def _on_enroll_job_done(self, target, msg: EnrollJobDone):
        ctx: EnrollCtx = msg.ctx
        ctx.produced.append(msg.profile)
        self._next_enroll_leg(ctx)

    def _on_enroll_response(self, target, msg: Response):
        ctx = msg.ctx
        device = self.devices[ctx.device_id]
        before = device.newest_profile(ctx.user_id)
        produced = sorted(ctx.produced, key=lambda p: p.version.seq)
        for profile in produced:
            device.store_profile(profile, self.profile_cap)
            self.log.log_put(self.sim.now, ctx.user_id, profile.version)
        if ctx.background:
            device.bg_enroll_inflight.discard(ctx.user_id)
        if (ctx.background or ctx.parent is not None) and before is not None and produced:
            self.log.log_reenroll(self.sim.now, ctx.user_id, before.version, produced[-1].version)
        if ctx.parent is None:
            self.log.record(
                RequestKind.ENROLL, ctx.user_id, ctx.submitted, self.sim.now, msg.outcome
            )
        else:
            parent: RuntimeCtx = ctx.parent
            parent.reenrolls += 1
            parent.profiles = list(device.profiles_for(ctx.user_id))
            self._device_to_frontend(ctx.device_id, Request("runtime-request", parent))

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
            profiles=list(profiles),
        )
        self._device_to_frontend(device_id, Request("runtime-request", ctx))

    def _on_runtime_request(self, target, msg: Request):
        self._dispatch_runtime(msg.ctx)

    def _on_retry_signal(self, target, msg: ServerHop):
        self._frontend_to_device(
            msg.ctx.device_id, ServerHop("retry-needed", msg.ctx, msg.server_id)
        )

    def _on_retry_needed(self, target, msg: ServerHop):
        ctx = msg.ctx
        ctx.pinned_server = msg.server_id
        device = self.devices[ctx.device_id]
        enroll_ctx = EnrollCtx(
            user_id=ctx.user_id,
            device_id=ctx.device_id,
            submitted=self.sim.now,
            samples=device.stored_audio[ctx.user_id],
            pinned_server=msg.server_id,
            parent=ctx,
            plan=[None],
        )
        self._device_to_frontend(ctx.device_id, Request("enroll-request", enroll_ctx))

    # -- handshake

    def _on_handshake_tick(self, target, msg: HandshakeTick):
        self.sim.schedule_in(
            self.cfg.handshake_period_ms,
            self.device_target(msg.device_id),
            HandshakeTick(device_id=msg.device_id),
        )
        ctx = HandshakeCtx(user_id=msg.device_id, device_id=msg.device_id, submitted=self.sim.now)
        self._device_to_frontend(msg.device_id, Request("handshake-request", ctx))

    def _on_handshake_request(self, target, msg: Request):
        self._frontend_to_device(
            msg.ctx.device_id, HandshakeReply(ctx=msg.ctx, versions=tuple(self.served_versions))
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

    def _stale_profile(self, engine, ctx):
        return None  # retry-signal: the device re-enrolls on this server and retries


class HybridDoubleWorld(HybridWorldBase):
    """Two live versions in the two server groups. A request whose carried
    profiles match no served version is answered STALE_PROFILES without
    engine work, and the device re-enrolls in the background."""

    profile_cap = 2

    def _catchup_plan(self, served: tuple) -> list:
        return list(served[-2:])

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        if not self._dispatch_to_common_version(ctx):
            self._respond_runtime(ctx, Outcome.STALE_PROFILES)

    def _on_runtime_response(self, target, msg: Response):
        super()._on_runtime_response(target, msg)
        if msg.outcome is Outcome.STALE_PROFILES:
            served = tuple(self.served_versions)
            if served:
                self._start_background_enroll(
                    msg.ctx.device_id, msg.ctx.user_id, self._catchup_plan(served)
                )
