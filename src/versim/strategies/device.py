"""On-device strategy: engine, audio and profiles all live on the device, so
requests need no network at all. A model release is pushed from storage, the
device downloads it, switches, and re-enrolls every owner from stored audio.

While the switch-and-re-enroll window is open the device queues incoming
requests and answers them when the window closes; that wait is the strategy's
downtime, and it is what keeps profiles and engine version in lockstep at
every instant a request is served.
"""

from __future__ import annotations

from ..domain import Outcome
from ..metrics import RequestKind
from ..topology import DeviceNode
from .common import (
    DeviceTaskDone,
    EnrollArrival,
    ReleasePayload,
    RuntimeArrival,
    Tick,
    VersionNotice,
    WorldBase,
)


class DeviceWorld(WorldBase):
    def __init__(self, scenario, sim, storage, log):
        super().__init__(scenario, sim, storage, log)
        # per-device re-enroll cursor while an update window is open
        self._reenroll_queue: dict[str, list[str]] = {}
        self.on("enroll-arrival", self._on_enroll_arrival)
        self.on("runtime-arrival", self._on_runtime_arrival)
        self.on("release", self._on_release)
        self.on("notify-release", self._on_notify)
        self.on("download-done", self._on_download_done)
        self.on("device-task-done", self._on_task_done)
        self.on("device-reenroll-done", self._on_reenroll_done)

    def _device(self, target: str) -> DeviceNode:
        return self.devices[target.split(":", 1)[1]]

    # -- local requests

    def _on_enroll_arrival(self, target: str, msg: EnrollArrival, submitted: int | None = None) -> None:
        dev = self._device(target)
        submitted = self.sim.now if submitted is None else submitted
        if dev.updating:
            dev.deferred.append((target, msg, submitted))
            return
        dev.stored_audio[msg.user_id] = msg.samples
        engine = self.engine_for(dev.local_model)
        self.sim.schedule_in(
            engine.enroll_duration_ms(len(msg.samples)),
            target,
            DeviceTaskDone("enroll", msg.user_id, submitted, msg),
        )

    def _on_runtime_arrival(self, target: str, msg: RuntimeArrival, submitted: int | None = None) -> None:
        dev = self._device(target)
        submitted = self.sim.now if submitted is None else submitted
        if dev.updating:
            dev.deferred.append((target, msg, submitted))
            return
        if not dev.profiles_for(msg.user_id):
            # nothing enrolled: reject on the spot, no engine work
            self.log.record(
                RequestKind.RUNTIME, msg.user_id, submitted, self.sim.now, Outcome.OK
            )
            return
        # the task scores with the engine and profile it starts with, even if
        # the device switches models before it completes
        engine = self.engine_for(dev.local_model)
        profile = dev.profiles_for(msg.user_id)[-1]
        task = DeviceTaskDone("runtime", msg.user_id, submitted, msg, engine, profile)
        self.sim.schedule_in(engine.runtime_cost_ms, target, task)

    def _on_task_done(self, target: str, task: DeviceTaskDone) -> None:
        dev = self._device(target)
        if task.task == "enroll":
            profile = self.engine_for(dev.local_model).enroll(task.user_id, task.payload.samples)
            self._put(dev, profile)
            self.log.record(
                RequestKind.ENROLL, task.user_id, task.submitted, self.sim.now, Outcome.OK
            )
        else:
            task.engine.recognize(task.payload.sample, {task.user_id: task.profile})
            self.log.record(
                RequestKind.RUNTIME, task.user_id, task.submitted, self.sim.now, Outcome.OK
            )

    # -- releases

    def _on_release(self, target: str, msg: ReleasePayload) -> None:
        release = self.storage.register(
            msg.version_id, self.sim.now, msg.download_ms, msg.server_update_ms
        )
        # push one notification per device; storage draws the link latency
        for device_id in sorted(self.devices):
            delay = self.sc.latency.device_storage.sample(self.storage_rng)
            self.sim.schedule(
                self.sim.now + delay,
                self.device_target(device_id),
                VersionNotice("notify-release", release.version),
            )

    def _on_notify(self, target: str, msg: VersionNotice) -> None:
        dev = self._device(target)
        if dev.updating:
            dev.recheck_after_update = True
            return
        self._maybe_download(target, dev)

    def _maybe_download(self, target: str, dev: DeviceNode) -> None:
        latest = self.storage.latest
        if latest == dev.local_model:
            return
        dev.updating = True
        release = self.storage.releases[latest.seq - 1]
        self.sim.schedule_in(release.download_ms, target, VersionNotice("download-done", latest))

    def _on_download_done(self, target: str, msg: VersionNotice) -> None:
        dev = self._device(target)
        dev.local_model = msg.version
        # audio is stored before any profile is made from it, and never removed
        self._reenroll_queue[dev.device_id] = [u for u in dev.owner_users if u in dev.stored_audio]
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

    def _on_reenroll_done(self, target: str, msg: Tick) -> None:
        dev = self._device(target)
        user = self._reenroll_queue[dev.device_id].pop(0)
        old = dev.profiles_for(user)[-1:]
        profile = self.engine_for(dev.local_model).enroll(user, dev.stored_audio[user])
        self._put(dev, profile)
        if old:
            self.log.log_reenroll(self.sim.now, user, old[0].version, profile.version)
        self._next_reenroll(target, dev)

    def _close_update_window(self, target: str, dev: DeviceNode) -> None:
        dev.updating = False
        deferred, dev.deferred = dev.deferred, []
        for tgt, msg, submitted in deferred:
            if msg.kind == "enroll-arrival":
                self._on_enroll_arrival(tgt, msg, submitted)
            else:
                self._on_runtime_arrival(tgt, msg, submitted)
        if dev.recheck_after_update:
            dev.recheck_after_update = False
            self._maybe_download(target, dev)

