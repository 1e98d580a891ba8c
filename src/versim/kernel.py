"""Discrete-event core: virtual clock, event queue, seeded randomness and the
link latency model.

Determinism contract: a run is a pure function of (scenario, seed). Time is
integer milliseconds. Events execute in (time, insertion sequence) order, so
ties resolve by who scheduled first. Every random draw comes from a named
SplitMix64 stream, and the trace is a pure function of the executed events.

The queue has two parts. When ``Simulator.run_until`` starts with nothing
left of an earlier run, every event already queued (the workload, releases,
world-init ticks) is sorted once into a run that is consumed from its end;
events scheduled after that go on a heap, which holds only what is in
flight. Each step executes the smaller (time, seq) head of the two. Every
event in the run was scheduled before every event on the heap, so a tie in
time goes to the run, and the order is the one a single heap would give.

A draw taken modulo 1 (``SimRng.randrange(1)``: a latency sample without
jitter, an update duration with ``lo == hi``, a random pick among one
server) has only one possible value, so it advances the stream by one
SplitMix64 step and skips the output mix. The stream position afterwards is
the same as after ``next_u64``.

Trace lines go to a sink as each event executes. ``runner.run(trace=True)``
passes a list and returns it as ``RunResult.trace``; given any other sink
(the command line passes one that writes each line to the ``--trace`` file)
it returns ``RunResult.trace = None``, so no line is kept in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Protocol

from .domain import SimulationError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ScheduleInPastError(SimulationError):
    pass


class SimRng:
    """SplitMix64 stream. Small, fast, and easy to reproduce in any language,
    which is what keeps golden traces portable."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform in [0, n), one stream step. For n == 1 the value is fixed,
        so the state steps without the mix."""
        if n == 1:
            self._state = (self._state + _GOLDEN) & _MASK64
            return 0
        return self.next_u64() % n

    def uniform(self) -> float:
        """Uniform in [0, 1), 53 usable bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


def node_stream(root_seed: int, node_index: int) -> SimRng:
    """Per-node stream: SplitMix64 seeded with root_seed XOR node_index."""
    return SimRng((root_seed ^ node_index) & _MASK64)


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """One network link class. A sample always consumes exactly one draw, so
    stream positions do not depend on whether jitter happens to be zero."""

    base_ms: int
    jitter_ms: int

    def sample(self, rng: SimRng) -> int:
        return self.base_ms + rng.randrange(self.jitter_ms + 1)


class Payload(Protocol):
    kind: str

    def summary(self) -> str: ...


class TraceSink(Protocol):
    """Where trace lines go: a ``list[str]``, or any object whose
    ``append`` takes one line (without its newline), such as a writer that
    puts each line in a file as it arrives."""

    def append(self, line: str) -> None: ...


class Simulator:
    """Event queue over a virtual clock: a sorted run of the events queued
    before ``run_until`` started, and a heap of those scheduled since (see
    the module docstring). A leftover run is kept across ``run_until`` calls
    and only refilled once it is empty, so stepping the clock does not
    re-sort.

    ``handler`` is either a callable taking (target, payload) or an object
    with a ``handle(target, payload)`` method; it is resolved once at each
    ``run_until`` entry, so a method patched after construction is honoured.
    When a trace sink is supplied, one tab-separated line is appended per
    executed event before its handler runs. If a handler raises, ``current``
    holds the (time, seq) of that event.
    """

    __slots__ = ("handler", "_queue", "_run", "_seq", "now", "trace", "current")

    def __init__(self, handler, trace: TraceSink | None = None):
        self.handler = handler
        # heap of scheduled events; every event in _run (sorted, descending)
        # has a lower seq than every event here
        self._queue: list[tuple[int, int, str, Payload]] = []
        self._run: list[tuple[int, int, str, Payload]] = []
        self._seq = 0
        self.now = 0
        self.trace = trace
        self.current: tuple[int, int] | None = None

    def schedule(self, at: int, target: str, payload: Payload) -> None:
        if at < self.now:
            raise ScheduleInPastError(
                f"event {payload.kind!r} scheduled at {at} but the clock is at {self.now}"
            )
        heappush(self._queue, (at, self._seq, target, payload))
        self._seq += 1

    def schedule_in(self, delay: int, target: str, payload: Payload) -> None:
        self.schedule(self.now + delay, target, payload)

    def run_until(self, t_end: int) -> None:
        """Execute every event with time <= t_end, then set the clock to
        t_end. Later events stay queued. A ``t_end`` before the clock raises
        ValueError and changes nothing."""
        if t_end < self.now:
            raise ValueError(f"run_until({t_end}) is before the clock ({self.now})")
        heap = self._queue
        run = self._run
        if heap and not run:
            heap.sort(reverse=True)
            run = self._run = heap
            heap = self._queue = []
        trace = self.trace
        handle = getattr(self.handler, "handle", self.handler)
        # heap events before ``cut`` run first: the run's head time, or
        # t_end + 1 once the run is empty or past t_end; ties go to the run
        stop = t_end + 1
        cut = run[-1][0] if run and run[-1][0] < stop else stop
        seq = -1
        try:
            while True:
                if heap and heap[0][0] < cut:
                    at, seq, target, payload = heappop(heap)
                elif cut < stop:
                    at, seq, target, payload = run.pop()
                    cut = run[-1][0] if run and run[-1][0] < stop else stop
                else:
                    break
                self.now = at
                if trace is not None:
                    trace.append(
                        f"{at}\t{seq}\t{target}\t{payload.kind}\t{payload.summary()}"
                    )
                handle(target, payload)
        except BaseException:
            if seq >= 0:
                self.current = (self.now, seq)
            raise
        self.now = t_end
