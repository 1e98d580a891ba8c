"""Builds the world that the scenario's row of ``scenario.STRATEGIES``
names, feeds it the precomputed workload, runs the clock, and takes the
report from the run's log (``metrics.RunLog``).

Every request arrival is drawn before the run from per-user rng streams, so
the workload a user produces is independent of anything the strategies do
during the run. Each user stream is consumed in a fixed order: enrollment
sample seeds first, then, for Poisson arrivals, one gap and one discarded
draw per runtime arrival; explicit arrivals draw nothing after the seeds.
The seeds are the user's ``EnrollmentAudio``, which derives them when
iterated. The gaps are mixed (``kernel.mix64``) straight from the stream's
state, ``seed + step * kernel.GAMMA``, two steps apart. A runtime request
carries no audio: recognition is the engine's version check. Each request
arrives as its flow context, at the device that the world's ownership rule
(``WorldBase.user_devices``) puts its user on. Each user's ``EnrollCtx`` is
scheduled as its enroll-arrival. A runtime arrival is kept as one packed int
(time, user). The simulator is fed the sorted ints as a stream, and the
stream builds each arrival's ``RuntimeCtx`` only when the clock reaches it.

The log folds the report while the run goes, so a run keeps no per-request
state for it. The request records, re-enrollments and profile writes are
kept only with ``logs=True``; otherwise those ``RunResult`` fields are None.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .domain import SimulationError, VersionId
from .engine import EnrollmentAudio
from .kernel import GAMMA, STALL_FACTOR, Simulator, TraceSink, mix64, node_seed
from .metrics import ReenrollEvent, Report, RequestRecord, RunLog
from .scenario import Scenario, strategy_row, validate
from .strategies.common import TRACE_LINES, USER_STREAM_BASE, EnrollCtx, RuntimeCtx, WorldBase
from .topology import ModelRelease

# a packed runtime arrival is time << _TIME_SHIFT | rank (see _generate_workload)
_TIME_SHIFT = 32
_MASK32 = (1 << 32) - 1


class RunFailedError(Exception):
    """A correctness tripwire (or other simulation error) ended the run."""

    def __init__(self, cause: SimulationError, at: int, seq: int):
        super().__init__(f"{cause} (event at t={at}ms, seq={seq})")
        self.cause = cause
        self.at = at
        self.seq = seq


@dataclass(slots=True)
class RunResult:
    report: Report
    records: list[RequestRecord] | None
    reenrolls: list[ReenrollEvent] | None
    profile_puts: list[tuple[int, str, int]] | None
    world: WorldBase


def _generate_workload(
    scenario: Scenario, user_ids: list[str]
) -> tuple[list[int], list[EnrollmentAudio | None], list[int]]:
    """The runtime arrivals as packed ints sorted by (time, user id), the
    users' enrollment audio in ``user_ids`` order, and the user indices by
    rank: in user-id string order (``u1000`` before ``u999``). User i draws
    from the stream of ``node_seed(seed, USER_STREAM_BASE + i)``.

    One arrival is one int, high bits to low: its time and the user's rank.
    Sorting the ints sorts by (time, user id); two arrivals of one user in
    one millisecond are equal ints, and build equal contexts. 32 bits hold
    the rank of every user count that a scenario admits (``users`` < 2**32)."""
    # each user draws from a stream of its own, so the users can go in rank order
    order = sorted(range(len(user_ids)), key=user_ids.__getitem__)
    audios: list[EnrollmentAudio | None] = [None] * len(user_ids)
    arrivals: list[int] = []
    spec = scenario.runtime_arrivals
    if spec.explicit is not None:
        rank_of = {user_ids[i]: rank for rank, i in enumerate(order)}
        arrivals = [a.time_ms << _TIME_SHIFT | rank_of[a.user_id] for a in spec.explicit]
    horizon, rate = scenario.duration_ms, spec.poisson_rate_per_user_per_s
    # a user's first gap is the step after its enrollment seeds; each gap's
    # draw is followed by one that nothing reads, so the next is two steps on
    first, stride = (scenario.samples_per_user + 1) * GAMMA, 2 * GAMMA
    for rank, i in enumerate(order):
        seed = node_seed(scenario.seed, USER_STREAM_BASE + i)
        audios[i] = EnrollmentAudio(user_ids[i], seed, scenario.samples_per_user)
        if spec.explicit is None:
            state, t = seed + first, 0
            while True:
                # uniform in (0, 1]: 1 - the top 53 bits of one draw over 2**53
                u = 1.0 - (mix64(state) >> 11) * (2.0 ** -53)
                t += int(-math.log(u) / rate * 1000.0)
                if t > horizon:
                    break
                arrivals.append(t << _TIME_SHIFT | rank)
                state += stride
    arrivals.sort()
    return arrivals, audios, order


def _runtime_arrivals(
    arrivals: list[int], users: list[str], devices: list[str], targets: dict[str, str]
) -> Iterator[tuple[int, str, RuntimeCtx]]:
    """The packed arrivals in order as (time, target, context), with the
    users and their devices listed by rank and each device's event target.
    Each context is built only when the simulator reaches it, and each int
    is let go of then."""
    arrivals.reverse()
    pop = arrivals.pop
    for _ in range(len(arrivals)):
        packed = pop()
        at = packed >> _TIME_SHIFT
        r = packed & _MASK32
        device = devices[r]
        yield at, targets[device], RuntimeCtx(users[r], device, at)


def build(
    scenario: Scenario, trace: TraceSink | None = None, logs: bool = False
) -> tuple[Simulator, WorldBase, RunLog]:
    """World, simulator and log with the whole workload queued: the
    enrollment arrivals and releases scheduled, and the runtime arrivals fed
    as a stream. ``trace`` and ``logs`` are as for ``run``. A scenario that
    breaks a rule of ``scenario.validate`` raises ``ScenarioValidationError``."""
    validate(scenario)
    log = RunLog(keep=logs)
    # the progress tripwire: 64 events a millisecond per user, server and
    # device, so a release or sweep that reaches every node stays under it
    nodes = scenario.users + scenario.cloud_servers + scenario.devices
    sim = Simulator(None, trace=trace, stall_bound=STALL_FACTOR * nodes, formats=TRACE_LINES)
    world = strategy_row(scenario.strategy).world(scenario, sim, log)
    sim.handler = world

    users = world.user_ids
    arrivals, audios, order = _generate_workload(scenario, users)
    targets = world.device_targets
    devices = world.user_devices()
    for user, device, audio in zip(users, devices, audios):
        sim.schedule(0, targets[device], EnrollCtx(user, device, 0, audio))
    by_rank = [users[i] for i in order], [devices[i] for i in order]
    sim.feed(_runtime_arrivals(arrivals, *by_rank, targets), len(arrivals))
    # each release numbered after the initial versions, in schedule order:
    # the releases are sorted by time, and those at one millisecond run in
    # the order they are scheduled
    for i, r in enumerate(scenario.releases, len(world.initial) + 1):
        release = ModelRelease(VersionId(r.version_id, i), r.download_ms, r.server_update_ms)
        sim.schedule(r.time_ms, "storage", release)
    return sim, world, log


def run(scenario: Scenario, trace: TraceSink | None = None, logs: bool = False) -> RunResult:
    """Simulate ``scenario`` to its horizon and return the report.

    ``trace`` is where the event trace goes, a ``kernel.TraceSink``: a list,
    or any object whose ``extend`` takes one line per executed event, in
    order, at most ``kernel.TRACE_BLOCK`` at a time, as the run goes. None
    (the default) traces nothing. If the run fails, the sink has every line
    through the failed event's before ``run`` raises.

    ``logs=True`` keeps every request record, re-enrollment and profile write
    in ``RunResult.records``, ``.reenrolls`` and ``.profile_puts``. By default
    they are None: the report is folded as requests complete and needs none
    of them. A run whose clock stops moving trips the progress bound and
    raises ``RunFailedError``, like any other tripwire.

    The cyclic garbage collector is off for the build and the event loop.
    The loop makes no reference cycles, so the collector would only re-scan
    the growing live heap of events and profiles; on the 8,000-user bench
    scenarios that was 6-10% of the run. It is turned back on at exit,
    success or failure, only if it was on at entry, so callers see no global
    change. The simulator lets go of the world after the loop, so a world
    holds no reference cycle and is freed as soon as its result is dropped.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        sim, world, log = build(scenario, trace=trace, logs=logs)
        try:
            sim.run_until(scenario.duration_ms)
        except SimulationError as exc:
            at, seq = sim.current if sim.current is not None else (sim.now, -1)
            raise RunFailedError(exc, at, seq) from exc
        finally:
            sim.handler = None
    finally:
        if collecting:
            gc.enable()
    return RunResult(
        report=log.report(scenario.duration_ms),
        records=log.records,
        reenrolls=log.reenrolls,
        profile_puts=log.profile_puts,
        world=world,
    )
