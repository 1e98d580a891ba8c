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

from ..domain import VersionId
from .common import (
    OK,
    STALE_PROFILES,
    CloudWorldBase,
    EnrollCtx,
    HandshakeCtx,
    RuntimeCtx,
    Tick,
)


class HybridWorldBase(CloudWorldBase):
    def __init__(self, scenario, sim, log):
        super().__init__(scenario, sim, log)
        self._build_devices()
        self._bg_enrolling: set[str] = set()  # users whose background enrollment is in flight
        period = self.cfg.handshake_period_ms
        if period is not None:
            for device_id, target in sorted(self.device_targets.items()):
                self.sim.schedule(period, target, Tick("handshake-tick", f"device={device_id}"))

    # -- enrollment: the device keeps the audio, and the profiles that come
    # back in the enroll-response

    def _on_enroll_arrival(self, target, ctx: EnrollCtx):
        self.devices[ctx.device_id].store_audio(ctx.user_id, ctx.audio)
        self._request_enroll(ctx)

    def _start_background_enroll(
        self, device_id: str, user_id: str, served: tuple[VersionId, ...]
    ) -> None:
        """Enroll the newest served versions the device keeps profiles for,
        unless the user's background enrollment is in flight."""
        if user_id in self._bg_enrolling:
            return
        self._bg_enrolling.add(user_id)
        audio, plan = self.devices[device_id].audio[user_id], served[-self.retain :]
        self._request_enroll(EnrollCtx(user_id, device_id, self.sim.now, audio, plan, True))

    def _on_enroll_response(self, target, ctx: EnrollCtx):
        self._store_produced(ctx)
        parent = ctx.parent
        if parent is None:
            super()._on_enroll_response(target, ctx)
            return
        # an in-path re-enrollment: retry the runtime request it served with
        # the profiles the device holds now
        parent.reenrolls += 1
        parent.profiles = self.devices[ctx.device_id].profiles_for(ctx.user_id)
        parent.kind = "runtime-request"
        self._device_to_frontend(ctx.device_id, parent)

    def _store_produced(self, ctx: EnrollCtx) -> None:
        """Keep the produced profiles when the response reaches the device; a
        background or in-path enrollment over a profile it held is a
        re-enrollment."""
        device = self.devices[ctx.device_id]
        before = device.profiles_for(ctx.user_id)[-1:]
        produced = sorted(ctx.produced, key=lambda p: p.version.seq)
        for profile in produced:
            self._put(device, profile)
        if ctx.background:
            self._bg_enrolling.discard(ctx.user_id)
        if (ctx.background or ctx.parent is not None) and before and produced:
            newest = produced[-1].version
            self.log.reenrolled(self.sim.now, ctx.user_id, before[0].version, newest)

    # -- runtime: the request carries the device's profiles

    def _on_runtime_arrival(self, target, ctx: RuntimeCtx):
        ctx.profiles = self.devices[ctx.device_id].profiles_for(ctx.user_id)
        if not ctx.profiles:
            # not enrolled: the device can answer by itself
            self.log.request_done("RUNTIME", ctx.user_id, ctx.submitted, self.sim.now, OK)
            return
        super()._on_runtime_arrival(target, ctx)

    def _on_retry_signal(self, target, ctx: RuntimeCtx):
        ctx.kind = "retry-needed"
        self._frontend_to_device(ctx.device_id, ctx)

    def _on_retry_needed(self, target, ctx: RuntimeCtx):
        # re-enroll on the server that reported the mismatch, then retry
        # there: one leg, not in the background, on ``ctx.server_id``
        audio = self.devices[ctx.device_id].audio[ctx.user_id]
        self._request_enroll(
            EnrollCtx(ctx.user_id, ctx.device_id, self.sim.now, audio, (None,), False, ctx)
        )

    # -- handshake

    def _on_handshake_tick(self, target, msg: Tick):
        self.sim.schedule_in(self.cfg.handshake_period_ms, target, msg)
        device_id = self._device_ids[target]
        ctx = HandshakeCtx(device_id, device_id, self.sim.now)
        self._device_to_frontend(device_id, ctx)

    def _on_handshake_request(self, target, ctx: HandshakeCtx):
        ctx.kind = "handshake-reply"
        ctx.versions = self.served_versions
        self._frontend_to_device(ctx.device_id, ctx)

    def _on_handshake_reply(self, target, ctx: HandshakeCtx):
        self.log.request_done("HANDSHAKE", ctx.user_id, ctx.submitted, self.sim.now, OK)
        if not ctx.versions:
            return
        newest = ctx.versions[-1]
        device = self.devices[ctx.device_id]
        for user in self.owners_of(ctx.device_id):
            held = device.profiles_for(user)
            if held and held[-1].version.seq < newest.seq:
                self._start_background_enroll(ctx.device_id, user, ctx.versions)


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
    double = True

    def _dispatch_runtime(self, ctx: RuntimeCtx) -> None:
        if not self._dispatch_to_common_version(ctx):
            self._respond_runtime(ctx, STALE_PROFILES)

    def _on_runtime_response(self, target, ctx: RuntimeCtx):
        super()._on_runtime_response(target, ctx)
        if ctx.outcome is STALE_PROFILES and self.served_versions:
            self._start_background_enroll(ctx.device_id, ctx.user_id, self.served_versions)
