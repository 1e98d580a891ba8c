"""Discrete-event core: virtual clock, event queue, seeded randomness and the
link latency model.

Determinism contract: a run is a pure function of (scenario, seed). Time is
integer milliseconds. Events execute in (time, insertion sequence) order, so
ties resolve by who scheduled first. Every random draw comes from a named
SplitMix64 stream, and the trace is a pure function of the executed events.

Every queued event waits in a bucket for its millisecond: a dict from time to
a list of events in seq order, plus a heap of the distinct bucket times.
Appending keeps a bucket in seq order, and a burst of events at one time
costs one heap push and pop, not one per event. The one other source is a fed
stream (``Simulator.feed``, the runtime arrivals): a time-ordered iterator of
events that reserves a block of seqs when it is fed. The run draws and
numbers each event only when it reaches it, so none is held in memory before
it is due. Each step executes the earlier of the first bucket and the
stream's next event. At a tie the fed event runs first, unless its bucket
holds an event scheduled before the stream was fed; then it joins that bucket
in seq order. So the order is the one a single heap of (time, seq) would
give. A bucket entry is dropped as soon as its event runs.

An event is queued at a time (``Simulator.schedule``) or one message hop from
now (``Simulator.send``, a hop's one call): at ``now + extra + latency``, the
link's latency drawn from the sender's stream, ``base + next_u64() %
(jitter + 1)`` on a jittered link. A draw with only one possible value (a link
without jitter, an update duration with ``lo == hi``, a random pick among one
server) is a step that ``SimRng`` only counts, to the position ``next_u64``
would leave it at, so stream positions never depend on whether a link has
jitter. The state after n steps is ``seed + n * GAMMA``, and ``mix64`` of it
is the n-th draw: the runner draws the workload so, with no stream object.

Each executed event's trace line is made before its handler runs, in one
call: ``formats[kind](stamp, seq, target, message)`` builds the whole line,
its stamp (the time and a tab) made once per bucket; the worlds' table is
``strategies.common.TRACE_LINES``. A sink gets the lines in order, at most
``TRACE_BLOCK`` to an ``extend`` call, all before ``run_until`` returns or
raises. A full block goes out once the event that fills it has run, so a
sink that raises stops the run between two events and loses none. A block
handed over is the sink's to keep: the kernel never touches it again.
``runner.run(trace=lines)`` with a list collects every line; the command
line's sink writes each block to the ``--trace`` file at once, so at most a
block is held in memory.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator, Protocol

from .domain import SimulationError

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment per step
# events a millisecond may run per event queued for it (and per node, in runner)
STALL_FACTOR = 64
TRACE_BLOCK = 256  # the most trace lines one sink extend call gets


class ScheduleInPastError(SimulationError):
    pass


class StalledClockError(SimulationError):
    """One millisecond ran more events than its progress bound: a flow that
    keeps scheduling itself at the same time never lets the clock move."""


class SimRng:
    """SplitMix64 stream. Small, fast, and easy to reproduce in any language,
    which is what keeps golden traces portable. The state after n steps is
    ``seed + n * gamma`` mod 2**64, so a stream keeps its ``seed`` and counts
    its ``steps``, and ``next_u64`` folds the count in when it mixes."""

    __slots__ = ("seed", "steps")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.steps = 0

    def next_u64(self) -> int:
        # ``mix64`` inline: a call would add a frame to every draw of the run
        self.steps = n = self.steps + 1
        z = (self.seed + n * GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform in [0, n), one stream step; for n == 1, a step without the mix."""
        if n == 1:
            self.steps += 1
            return 0
        return self.next_u64() % n


def mix64(state: int) -> int:
    """SplitMix64's output function: the draw at the step whose state is ``state`` mod 2**64."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def node_seed(root_seed: int, node_index: int) -> int:
    """A node's stream seed, for ``SimRng``: root_seed XOR node_index, as 64 bits."""
    return (root_seed ^ node_index) & _MASK64


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """One network link class: a fixed base latency plus uniform jitter in
    [0, jitter], drawn by ``Simulator.send``. Neither may be negative, so a
    hop never lands before the clock."""

    base_ms: int = 0
    jitter_ms: int = 0

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ValueError(f"negative latency: base {self.base_ms}, jitter {self.jitter_ms} ms")


class Payload(Protocol):
    kind: str


class TraceSink(Protocol):
    """Where the trace lines that ``Simulator.formats`` builds go: a
    ``list[str]``, or any object whose ``extend`` takes them (without
    newlines) in order, at most ``TRACE_BLOCK`` at a time, all before
    ``run_until`` returns or raises. It may keep a list it gets."""

    def extend(self, lines: list[str]) -> None: ...


class Simulator:
    """Event queue over a virtual clock: per-millisecond buckets and at most
    one fed stream (see the module docstring). Events enter through
    ``schedule`` at a time, ``send`` one link hop from now, or ``feed`` as
    one stream.

    ``handler`` is either a callable taking (target, payload) or an object
    with a ``handle(target, payload)`` method; it is resolved once at each
    ``run_until`` entry, so a method patched after construction is honoured.
    A trace sink gets one tab-separated line per executed event, which the
    ``formats`` table builds by message kind, in the blocks that the module
    docstring describes. If a handler, the fed stream or the sink's
    ``extend`` raises, ``current`` holds the (time, seq) of the last event
    that ran, and the next ``run_until`` goes on from there.

    ``stall_bound`` is the progress tripwire: a millisecond's bucket may run
    that many events plus ``STALL_FACTOR`` per event queued there when the
    clock reaches it, and one more raises ``StalledClockError``. The events
    queued before the first ``run_until`` (scheduled, sent or fed) are not
    counted: a bucket runs its share of them first and takes its limit
    then. By default there is no bound.
    """

    __slots__ = (
        "handler", "_fed", "_next", "_fed_seq", "_fed_first", "_fed_end", "_counted", "_buckets",
        "_times", "_seq", "now", "trace", "formats", "current", "stall_bound",
    )  # fmt: skip

    def __init__(
        self, handler, trace: TraceSink | None = None, stall_bound: int = sys.maxsize, formats=None
    ):
        self.handler = handler
        self.stall_bound = stall_bound
        # the fed stream, its next event (None: none left) and that one's seq, its seqs [first, end)
        self._fed: Iterator[tuple[int, str, Payload]] | None = None
        self._next: tuple[int, str, Payload] | None = None
        self._fed_seq = self._fed_first = self._fed_end = 0
        # the first seq the progress bound counts: the seq count at the first
        # run_until, None before it
        self._counted: int | None = None
        # time -> (seq, target, payload) entries in seq order, and a heap of
        # those times
        self._buckets: dict[int, list[tuple[int, str, Payload] | None]] = {}
        self._times: list[int] = []
        self._seq = 0
        self.now = 0
        self.trace = trace
        self.formats = formats
        self.current: tuple[int, int] | None = None

    def schedule(self, at: int, target: str, payload: Payload) -> None:
        if at < self.now:
            raise ScheduleInPastError(
                f"event {payload.kind!r} scheduled at {at} but the clock is at {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [(seq, target, payload)]
            heappush(self._times, at)
        else:
            bucket.append((seq, target, payload))

    def schedule_in(self, delay: int, target: str, payload: Payload) -> None:
        self.schedule(self.now + delay, target, payload)

    def send(
        self, link: LatencyModel, rng: SimRng, target: str, payload: Payload, extra: int = 0
    ) -> None:
        """Queue ``payload`` for ``target`` at ``now + extra + latency``, the
        latency drawn on ``link`` from the sender's ``rng`` in one step. A hop
        is this one call from its handler: the queueing is ``schedule``'s,
        inline. ``extra`` and latencies are never negative: no past-time check."""
        if link.jitter_ms:
            at = self.now + extra + link.base_ms + rng.next_u64() % (link.jitter_ms + 1)
        else:
            rng.steps += 1
            at = self.now + extra + link.base_ms
        seq = self._seq
        self._seq = seq + 1
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [(seq, target, payload)]
            heappush(self._times, at)
        else:
            bucket.append((seq, target, payload))

    def feed(self, events: Iterable[tuple[int, str, Payload]], count: int) -> None:
        """Queue ``count`` events that ``events`` yields as (at, target,
        payload) in time order. They take the next ``count`` seqs, as if each
        were scheduled here in turn, but ``run_until`` draws and numbers each
        only when the run reaches it. One stream per simulator, fed before the
        first ``run_until``; a stream out of time order, or of another length,
        raises ValueError when the run finds it out, and ends there."""
        if self._counted is not None:
            raise ValueError("feed() after the first run_until")
        if self._fed is not None:
            raise ValueError("the simulator already has a fed stream")
        self._fed = iter(events)
        self._fed_seq = self._fed_first = self._seq
        self._fed_end = self._seq = self._seq + count

    def _check_drawn(self, drawn: tuple[int, str, Payload] | None, seq: int) -> None:
        """End the fed stream at ``drawn``, drawn as ``seq``: raise ValueError for an
        event (found out of time order), or at the end (None) of a stream short or long."""
        first, end = self._fed_first, self._fed_end
        self._fed, self._fed_end = iter(()), seq
        if drawn is not None:
            raise ValueError(f"fed event {seq - first} at t={drawn[0]}ms is out of time order")
        if seq != end:
            raise ValueError(f"the fed stream yielded {seq - first} events, not {end - first}")

    def run_until(self, t_end: int) -> None:
        """Execute every event with time <= t_end, then set the clock to
        t_end. Later events stay queued. A ``t_end`` before the clock raises
        ValueError and changes nothing."""
        if t_end < self.now:
            raise ValueError(f"run_until({t_end}) is before the clock ({self.now})")
        if self._counted is None:
            if self._fed is not None:
                head = next(self._fed, None)
                if head is None or head[0] < 0:
                    self._check_drawn(head, self._fed_seq)
                self._next = head
            self._counted = self._seq
        head = self._next
        fed_seq = self._fed_seq
        counted = self._counted
        buckets = self._buckets
        times = self._times
        trace = self.trace
        formats = self.formats
        lines: list[str] = []  # not yet handed to the sink
        emit = lines.append
        handle = getattr(self.handler, "handle", self.handler)
        bound = self.stall_bound
        # a bucket before ``cut`` runs first: the next fed event's time, or
        # t_end + 1 once the stream is empty or past t_end
        stop = t_end + 1
        cut = head[0] if head is not None and head[0] < stop else stop
        seq = -1
        bucket = None
        done = 0
        try:
            while True:
                if times and times[0] < cut:
                    at = self.now = times[0]
                    bucket = buckets[at]
                    if trace is not None:
                        stamp = f"{at}\t"  # formatted once for the whole bucket
                    # the events queued before the first run_until lead the
                    # bucket and are not counted: the limit is taken once
                    # they have run
                    if bucket[0][0] < counted:
                        end = limit = bisect_left(bucket, (counted,))
                    else:
                        end = len(bucket)
                        limit = bound + STALL_FACTOR * end
                    # run to ``end`` (length or limit, the lower) until handlers stop appending
                    while True:
                        while done < end:
                            seq, target, payload = bucket[done]
                            bucket[done] = None
                            done += 1
                            if trace is not None:
                                emit(formats[payload.kind](stamp, seq, target, payload))
                                handle(target, payload)
                                if len(lines) == TRACE_BLOCK:
                                    # out of ``lines`` first: if the sink
                                    # raises, ``finally`` must not repeat it
                                    block = lines[:]
                                    lines.clear()
                                    trace.extend(block)
                            else:
                                handle(target, payload)
                        end = len(bucket)
                        if done == end:
                            break
                        if done == limit:
                            if seq >= counted:
                                raise StalledClockError(
                                    f"the clock stalled at t={at}ms: {done} events ran there and "
                                    f"more are queued; the last was {payload.kind!r}"
                                )
                            # the last uncounted event has run
                            del bucket[:done]
                            done = 0
                            end = len(bucket)
                            limit = bound + STALL_FACTOR * end
                        elif end > limit:
                            end = limit
                    del buckets[at]
                    heappop(times)
                    bucket = None
                    done = 0
                elif cut < stop:
                    # draw the next event first: a draw that raises leaves
                    # ``current`` on the last event that ran, and this one queued
                    drawn = next(self._fed, None)
                    if drawn is None or drawn[0] < head[0]:
                        self._check_drawn(drawn, fed_seq + 1)
                    at, target, payload = head
                    head = drawn
                    cut = head[0] if head is not None and head[0] < stop else stop
                    number, fed_seq = fed_seq, fed_seq + 1
                    if times and times[0] == at and buckets[at][0][0] < number:
                        # an event scheduled before the stream was fed waits
                        # at this time: join it in seq order
                        insort(buckets[at], (number, target, payload))
                        continue
                    seq = number
                    self.now = at
                    if trace is not None:
                        emit(formats[payload.kind](f"{at}\t", seq, target, payload))
                        handle(target, payload)
                        if len(lines) == TRACE_BLOCK:
                            block = lines[:]
                            lines.clear()
                            trace.extend(block)
                    else:
                        handle(target, payload)
                else:
                    break
            if lines:
                # out of ``lines`` first: if the sink raises, ``except`` sets
                # ``current`` and ``finally`` hands nothing over twice
                block, lines = lines, []
                trace.extend(block)
        except BaseException:
            if bucket is not None:
                # keep what the bucket has left for the next call, and drop
                # it if nothing is left
                del bucket[:done]
                if not bucket:
                    del buckets[at]
                    heappop(times)
            if seq >= 0:
                self.current = (self.now, seq)
            raise
        finally:
            self._next = head
            self._fed_seq = fed_seq
            if lines:
                trace.extend(lines)
        self.now = t_end
