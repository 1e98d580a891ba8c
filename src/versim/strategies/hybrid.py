"""Hybrid strategy controllers: profiles live on the device, engines on the
cloud fleet of ``CloudWorldBase`` (``common.py``), which also runs the
rollout, the cloud jobs and the one enrollment flow. Enrollment takes no hop
to a store: the device keeps the audio when the user enrolls and the
produced profiles when the enroll-response reaches it. Every runtime
request carries the device's profiles, so the server must check that the
carried version matches its engine before scoring.

Two flavors:

* HYBRID single version: on mismatch the server signals the device, which
  re-enrolls against that same server and retries the request there. The
  optional handshake narrows the window in which that happens.
* HYBRID double version: the two server groups serve two versions; a
  request whose carried profiles overlap no served version is answered
  STALE_PROFILES and the device re-enrolls in the background.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..domain import Outcome, VersionId
from ..metrics import RequestKind
from .common import (
    CloudWorldBase,
    EnrollArrival,
    EnrollCtx,
    HandshakeCtx,
    HandshakeReply,
    Request,
    Response,
    RuntimeArrival,
    RuntimeCtx,
    ServerHop,
    Tick,
)


class HybridWorldBase(CloudWorldBase):
    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        self.on("retry-signal", self._on_retry_signal)
        self.on("retry-needed", self._on_retry_needed)
        self.on("handshake-tick", self._on_handshake_tick)
        self.on("handshake-request", self._on_handshake_request)
        self.on("handshake-reply", self._on_handshake_reply)

        if self.cfg.handshake_period_ms is not None:
            for device_id in sorted(self.devices):
                tick = Tick("handshake-tick", f"device={device_id}")
                self.sim.schedule(self.cfg.handshake_period_ms, self.device_target(device_id), tick)

    # -- enrollment: the device keeps the audio, and the profiles that come
    # back in the enroll-response

    def _on_enroll_arrival(self, target, msg: EnrollArrival):
        self.devices[target.split(":", 1)[1]].stored_audio[msg.user_id] = msg.samples
        super()._on_enroll_arrival(target, msg)

    def _start_background_enroll(
        self, device_id: str, user_id: str, served: Sequence[VersionId]
    ) -> None:
        """Enroll the newest served versions the device keeps profiles for,
        unless the user's background enrollment is in flight."""
        device = self.devices[device_id]
        if user_id in device.bg_enroll_inflight:
            return
        device.bg_enroll_inflight.add(user_id)
        samples, plan = device.stored_audio[user_id], list(served[-self.retain :])
        self._request_enroll(device_id, user_id, samples, background=True, plan=plan)

    def _store_produced(self, ctx: EnrollCtx) -> None:
        # the device keeps the profiles; a background or in-path enrollment
        # over a profile it held is a re-enrollment
        device = self.devices[ctx.device_id]
        before = device.profiles_for(ctx.user_id)[-1:]
        produced = sorted(ctx.produced, key=lambda p: p.version.seq)
        for profile in produced:
            self._put(device, profile)
        if ctx.background:
            device.bg_enroll_inflight.discard(ctx.user_id)
        if (ctx.background or ctx.parent is not None) and before and produced:
            newest = produced[-1].version
            self.log.log_reenroll(self.sim.now, ctx.user_id, before[0].version, newest)

    # -- runtime: the request carries the device's profiles

    def _on_runtime_arrival(self, target, msg: RuntimeArrival):
        if not self.devices[target.split(":", 1)[1]].profiles_for(msg.user_id):
            # not enrolled: the device can answer by itself
            now = self.sim.now
            self.log.record(RequestKind.RUNTIME, msg.user_id, now, now, Outcome.OK)
            return
        super()._on_runtime_arrival(target, msg)

    def _on_retry_signal(self, target, msg: ServerHop):
        self._frontend_to_device(
            msg.ctx.device_id, ServerHop("retry-needed", msg.ctx, msg.server_id)
        )

    def _on_retry_needed(self, target, msg: ServerHop):
        # re-enroll on the server that reported the mismatch, then retry there
        ctx = msg.ctx
        pin = ctx.pinned_server = msg.server_id
        samples = self.devices[ctx.device_id].stored_audio[ctx.user_id]
        self._request_enroll(
            ctx.device_id, ctx.user_id, samples, parent=ctx, pinned_server=pin, plan=[None]
        )

    # -- handshake

    def _on_handshake_tick(self, target, msg: Tick):
        self.sim.schedule_in(self.cfg.handshake_period_ms, target, msg)
        # the node's id string, so that the handshake records share it
        device_id = self.devices[target.split(":", 1)[1]].device_id
        ctx = HandshakeCtx(user_id=device_id, device_id=device_id, submitted=self.sim.now)
        self._device_to_frontend(device_id, Request("handshake-request", ctx))

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
            held = device.profiles_for(user)
            if held and held[-1].version.seq < newest.seq:
                self._start_background_enroll(ctx.device_id, user, msg.versions)


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

    retain = 2

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        if not self._dispatch_to_common_version(ctx):
            self._respond_runtime(ctx, Outcome.STALE_PROFILES)

    def _on_runtime_response(self, target, msg: Response):
        super()._on_runtime_response(target, msg)
        if msg.outcome is Outcome.STALE_PROFILES and self.served_versions:
            self._start_background_enroll(msg.ctx.device_id, msg.ctx.user_id, self.served_versions)
