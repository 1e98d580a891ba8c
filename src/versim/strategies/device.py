"""On-device strategy: engine, audio and profiles all live on the device, so
requests need no network at all. A model release is pushed from storage, the
device downloads it, switches, and re-enrolls every owner from stored audio.

While the switch-and-re-enroll window is open the device queues incoming
runtime requests and answers them when the window closes; that wait is the
strategy's downtime, and it is what keeps profiles and engine version in
lockstep at every instant a request is served. Only runtime requests wait
out the window: every enrollment arrives at t=0, ahead of any release.

A request runs as one engine task on its device: its context, the message
of its arrival, is queued again as its device-task-done once the task's
compute time has passed, and the request is recorded then.
"""

from __future__ import annotations

from ..engine import EngineInstance
from ..kernel import node_stream
from ..topology import ModelRelease
from .common import OK, STORAGE_STREAM, EnrollCtx, RuntimeCtx, Tick, VersionNotice, WorldBase


class DeviceWorld(WorldBase):
    def __init__(self, scenario, sim, log):
        super().__init__(scenario, sim, log)
        self._build_devices()
        self.storage_rng = node_stream(scenario.seed, STORAGE_STREAM)
        # the newest release handled, which every device moves to
        self._latest: ModelRelease | None = None
        # per device id: its model, which only its download-done switches
        self.models = dict.fromkeys(self.device_ids, self.initial[0])
        # the devices whose update window is open, each with the owners still
        # to re-enroll (none until its download is done); the runtime requests
        # an open window defers; and the devices notified of a release
        # mid-window, which check again when it closes
        self._window: dict[str, list[str]] = {}
        self._deferred: dict[str, list[RuntimeCtx]] = {}
        self._recheck: set[str] = set()

    # -- local requests

    def _on_enroll_arrival(self, target: str, ctx: EnrollCtx) -> None:
        # every enrollment arrives at t=0, before any release, so never
        # mid-update. The task's one leg is the version it starts on: it
        # enrolls there even if the device switched models since
        self.devices[ctx.device_id].audio[ctx.user_id] = ctx.audio
        ctx.plan = (self.models[ctx.device_id],)
        ctx.kind = "device-task-done"
        self.sim.schedule_in(self.enroll_ms, target, ctx)

    def _on_runtime_arrival(self, target: str, ctx: RuntimeCtx) -> None:
        if ctx.device_id in self._window:
            self._deferred.setdefault(ctx.device_id, []).append(ctx)
            return
        profiles = self.devices[ctx.device_id].profiles.get(ctx.user_id, ())
        if not profiles:
            # nothing enrolled: reject on the spot, no engine work
            self.log.request_done("RUNTIME", ctx.user_id, ctx.submitted, self.sim.now, OK)
            return
        # the task checks the profile on the engine it starts with, even if
        # the device switches models before it is done
        EngineInstance(self.models[ctx.device_id]).recognize(profiles[-1])
        ctx.kind = "device-task-done"
        self.sim.schedule_in(self.runtime_ms, target, ctx)

    def _on_device_task_done(self, target: str, ctx: EnrollCtx | RuntimeCtx) -> None:
        if ctx.flow == "enroll":
            profile = EngineInstance(ctx.plan[0]).enroll(ctx.user_id, ctx.audio)
            self._put(self.devices[ctx.device_id], profile)
        self.log.request_done(ctx.record, ctx.user_id, ctx.submitted, self.sim.now, OK)

    # -- releases

    def _on_release(self, target: str, release: ModelRelease) -> None:
        self._latest = release
        # push one notification per device; storage draws the link latency
        link = self.sc.latency.device_storage
        for device_id in sorted(self.devices):
            notice = VersionNotice("notify-release", release.version)
            self.sim.send(link, self.storage_rng, self.device_targets[device_id], notice)

    def _on_notify_release(self, target: str, msg: VersionNotice) -> None:
        device_id = self._device_ids[target]
        if device_id in self._window:
            self._recheck.add(device_id)
            return
        self._maybe_download(target, device_id)

    def _maybe_download(self, target: str, device_id: str) -> None:
        # a notify-release came first, so a release has been handled
        latest = self._latest
        if latest.version == self.models[device_id]:
            return
        self._window[device_id] = []
        notice = VersionNotice("download-done", latest.version)
        self.sim.schedule_in(latest.download_ms, target, notice)

    def _on_download_done(self, target: str, msg: VersionNotice) -> None:
        device_id = self._device_ids[target]
        self.models[device_id] = msg.version
        # audio is stored before any profile is made from it, and never removed
        audio = self.devices[device_id].audio
        self._window[device_id] = [u for u in self.owners_of(device_id) if u in audio]
        self._next_reenroll(target, device_id)

    def _next_reenroll(self, target: str, device_id: str) -> None:
        queue = self._window[device_id]
        if not queue:
            self._close_update_window(target, device_id)
            return
        tick = Tick("device-reenroll-done", f"user={queue[0]}")
        self.sim.schedule_in(self.enroll_ms, target, tick)

    def _on_device_reenroll_done(self, target: str, msg: Tick) -> None:
        device_id = self._device_ids[target]
        dev = self.devices[device_id]
        user = self._window[device_id].pop(0)
        old = dev.profiles.get(user, ())[-1:]
        profile = EngineInstance(self.models[device_id]).enroll(user, dev.audio[user])
        self._put(dev, profile)
        if old:
            self.log.reenrolled(self.sim.now, user, old[0].version, profile.version)
        self._next_reenroll(target, device_id)

    def _close_update_window(self, target: str, device_id: str) -> None:
        del self._window[device_id]
        for ctx in self._deferred.pop(device_id, ()):
            self._on_runtime_arrival(target, ctx)
        if device_id in self._recheck:
            self._recheck.remove(device_id)
            self._maybe_download(target, device_id)
