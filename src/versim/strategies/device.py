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

from ..topology import DeviceNode, ModelRelease
from .common import OK, EnrollCtx, RuntimeCtx, Tick, VersionNotice, WorldBase


class DeviceWorld(WorldBase):
    def __init__(self, scenario, sim, log):
        super().__init__(scenario, sim, log)
        self._build_devices()
        # the newest release handled, which every device moves to
        self._latest: ModelRelease | None = None
        # per device id, the re-enroll cursor and the deferred runtime
        # requests, while an update window is open
        self._reenroll_queue: dict[str, list[str]] = {}
        self._deferred: dict[str, list[RuntimeCtx]] = {}

    def _device(self, target: str) -> DeviceNode:
        return self.devices[self._device_ids[target]]

    # -- local requests

    def _on_enroll_arrival(self, target: str, ctx: EnrollCtx) -> None:
        # every enrollment arrives at t=0, before any release, so never
        # mid-update. The task's one leg is the version it starts on: it
        # enrolls there even if the device switched models since
        dev = self.devices[ctx.device_id]
        dev.stored_audio[ctx.user_id] = ctx.audio
        ctx.plan = (dev.local_model,)
        ctx.kind = "device-task-done"
        duration = self.engine_for(dev.local_model).enroll_duration_ms(len(ctx.audio))
        self.sim.schedule_in(duration, target, ctx)

    def _on_runtime_arrival(self, target: str, ctx: RuntimeCtx) -> None:
        dev = self.devices[ctx.device_id]
        if dev.updating:
            self._deferred.setdefault(ctx.device_id, []).append(ctx)
            return
        profiles = dev.profiles_for(ctx.user_id)
        if not profiles:
            # nothing enrolled: reject on the spot, no engine work
            self.log.request_done("RUNTIME", ctx.user_id, ctx.submitted, self.sim.now, OK)
            return
        # the task checks the profile on the engine it starts with, even if
        # the device switches models before it is done
        engine = self.engine_for(dev.local_model)
        engine.recognize(profiles[-1])
        ctx.kind = "device-task-done"
        self.sim.schedule_in(engine.runtime_cost_ms, target, ctx)

    def _on_device_task_done(self, target: str, ctx: EnrollCtx | RuntimeCtx) -> None:
        if ctx.flow == "enroll":
            profile = self.engine_for(ctx.plan[0]).enroll(ctx.user_id, ctx.audio)
            self._put(self._device(target), profile)
            kind = "ENROLL"
        else:
            kind = "RUNTIME"
        self.log.request_done(kind, ctx.user_id, ctx.submitted, self.sim.now, OK)

    # -- releases

    def _on_release(self, target: str, release: ModelRelease) -> None:
        self._latest = release
        # push one notification per device; storage draws the link latency
        link = self.sc.latency.device_storage
        for device_id in sorted(self.devices):
            notice = VersionNotice("notify-release", release.version)
            self.sim.send(link, self.storage_rng, self.device_targets[device_id], notice)

    def _on_notify_release(self, target: str, msg: VersionNotice) -> None:
        dev = self._device(target)
        if dev.updating:
            dev.recheck_after_update = True
            return
        self._maybe_download(target, dev)

    def _maybe_download(self, target: str, dev: DeviceNode) -> None:
        # a notify-release came first, so a release has been handled
        latest = self._latest
        if latest.version == dev.local_model:
            return
        dev.updating = True
        notice = VersionNotice("download-done", latest.version)
        self.sim.schedule_in(latest.download_ms, target, notice)

    def _on_download_done(self, target: str, msg: VersionNotice) -> None:
        dev = self._device(target)
        dev.local_model = msg.version
        # audio is stored before any profile is made from it, and never removed
        owners = self.owners_of(dev.device_id)
        self._reenroll_queue[dev.device_id] = [u for u in owners if u in dev.stored_audio]
        self._next_reenroll(target, dev)

    def _next_reenroll(self, target: str, dev: DeviceNode) -> None:
        queue = self._reenroll_queue[dev.device_id]
        if not queue:
            self._close_update_window(target, dev)
            return
        engine = self.engine_for(dev.local_model)
        self.sim.schedule_in(
            engine.enroll_duration_ms(len(dev.stored_audio[queue[0]])),
            target,
            Tick("device-reenroll-done", f"user={queue[0]}"),
        )

    def _on_device_reenroll_done(self, target: str, msg: Tick) -> None:
        dev = self._device(target)
        user = self._reenroll_queue[dev.device_id].pop(0)
        old = dev.profiles_for(user)[-1:]
        profile = self.engine_for(dev.local_model).enroll(user, dev.stored_audio[user])
        self._put(dev, profile)
        if old:
            self.log.reenrolled(self.sim.now, user, old[0].version, profile.version)
        self._next_reenroll(target, dev)

    def _close_update_window(self, target: str, dev: DeviceNode) -> None:
        dev.updating = False
        for ctx in self._deferred.pop(dev.device_id, ()):
            self._on_runtime_arrival(target, ctx)
        if dev.recheck_after_update:
            dev.recheck_after_update = False
            self._maybe_download(target, dev)

