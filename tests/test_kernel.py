"""Event queue and randomness: the determinism substrate."""

import weakref
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import ClassVar
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versim import kernel
from versim.domain import VersionId
from versim.kernel import (
    LatencyModel,
    ScheduleInPastError,
    SimRng,
    Simulator,
    StalledClockError,
    node_stream,
)
from versim.topology import DispatchPolicy, FrontendNode, ModelRelease


@dataclass(slots=True)
class Ping:
    kind: ClassVar[str] = "ping"
    label: str

    def summary(self) -> str:
        return self.label


def test_splitmix64_reference_stream():
    # published test vector for seed 1234567
    rng = SimRng(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_seed_zero():
    rng = SimRng(0)
    assert rng.next_u64() == 16294208416658607535
    assert rng.next_u64() == 7960286522194355700


def test_node_stream_is_seed_xor_index():
    a = node_stream(5, 3)
    b = SimRng(5 ^ 3)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


def _release(lo: int, hi: int) -> ModelRelease:
    return ModelRelease(VersionId("V2", 2), 0, (lo, hi))


def _frontend(rng: SimRng) -> FrontendNode:
    return FrontendNode(["s00", "s01", "s02"], DispatchPolicy.RANDOM, rng)


# (draw, the same value computed from one next_u64 of an equal stream)
_ONE_DRAW = [
    (lambda rng: rng.randrange(7), lambda rng: rng.next_u64() % 7),
    # a RANDOM pick between two servers: only a pick among one skips the mix
    (lambda rng: rng.randrange(2), lambda rng: rng.next_u64() % 2),
    (lambda rng: rng.randrange(1), lambda rng: rng.next_u64() % 1),
    (
        lambda rng: _release(200, 3000).draw_update_duration(rng),
        lambda rng: 200 + rng.next_u64() % 2801,
    ),
    (
        lambda rng: _release(400, 400).draw_update_duration(rng),
        lambda rng: 400 + rng.next_u64() % 1,
    ),
    (
        lambda rng: _frontend(rng).choose("u000", ["s00", "s01", "s02"]),
        lambda rng: ["s00", "s01", "s02"][rng.next_u64() % 3],
    ),
    (
        lambda rng: _frontend(rng).choose("u000", ["s01"]),
        lambda rng: ["s01"][rng.next_u64() % 1],
    ),
]


def test_randrange_and_update_draws_consume_one_draw_each():
    for draw, reference in _ONE_DRAW:
        for seed in (0, 42, 2**64 - 1):
            a = SimRng(seed)
            b = SimRng(seed)
            for _ in range(64):
                assert draw(a) == reference(b)
            assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("n", [0, 1, 3, 10_000])
def test_skip_leaves_the_stream_where_n_draws_would(n):
    for seed in (0, 42, 2**64 - 1):
        skipped = SimRng(seed)
        drawn = SimRng(seed)
        skipped.skip(n)
        for _ in range(n):
            drawn.next_u64()
        assert skipped.steps == drawn.steps == n
        assert [skipped.next_u64() for _ in range(3)] == [drawn.next_u64() for _ in range(3)]


def _arrivals() -> tuple[Simulator, dict[str, int]]:
    """A simulator that records the time each Ping arrives, by label."""
    arrived: dict[str, int] = {}
    sim = Simulator(lambda target, p: arrived.__setitem__(p.label, sim.now))
    return sim, arrived


def test_send_on_a_jittered_link_queues_at_now_extra_and_one_draw():
    # each hop lands at now + extra + base + next_u64() % (jitter + 1) of a
    # twin stream, and leaves the stream where that one draw does
    for jitter_ms in (1, 3, 1000):
        link = LatencyModel(5, jitter_ms)
        for seed in (0, 42, 2**64 - 1):
            rng, twin = SimRng(seed), SimRng(seed)
            sim, arrived = _arrivals()
            sim.run_until(10)
            expected = {}
            for i, extra in enumerate((0, 0, 7, 30, 0)):
                sim.send(link, rng, "n", Ping(str(i)), extra)
                expected[str(i)] = 10 + extra + 5 + twin.next_u64() % (jitter_ms + 1)
            assert rng.steps == twin.steps
            sim.run_until(10_000)
            assert arrived == expected


def test_send_on_a_fixed_link_steps_the_stream_as_one_draw():
    # sent before the first run_until, so the hops wait in their buckets
    # before the clock first moves
    link = LatencyModel(4, 0)
    for seed in (0, 42, 2**64 - 1):
        rng, twin = SimRng(seed), SimRng(seed)
        sim, arrived = _arrivals()
        for i in range(3):
            sim.send(link, rng, "n", Ping(str(i)), i)
            twin.next_u64()
            assert rng.steps == twin.steps
        sim.run_until(100)
        assert arrived == {"0": 4, "1": 5, "2": 6}
        assert rng.next_u64() == twin.next_u64()


class _AdditiveSplitMix64:
    """Reference stream: SplitMix64 as published, adding the gamma to the
    state on every step, mixed or not."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def step(self, n: int = 1) -> None:
        self.state = (self.state + n * 0x9E3779B97F4A7C15) % 2**64

    def next_u64(self) -> int:
        self.step()
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)


def _state(rng: SimRng) -> int:
    """The additive state of ``rng``: its seed plus one gamma per counted step."""
    return (rng.seed + rng.steps * 0x9E3779B97F4A7C15) % 2**64


_rng_ops = st.one_of(
    st.tuples(st.just("next_u64")),
    # 0, a few steps, and counts past the state's 2**64 period
    st.tuples(st.just("skip"), st.integers(0, 3) | st.integers(0, 2**66)),
    st.tuples(st.just("randrange"), st.integers(1, 3) | st.integers(1, 2**64)),
    # a hop on a link without jitter (0) or with it
    st.tuples(st.just("send"), st.integers(0, 3) | st.integers(0, 2**40)),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1) | st.integers(0, 2**66), ops=st.lists(_rng_ops, max_size=40))
def test_simrng_matches_an_additive_splitmix64(seed, ops):
    # the stream counts the steps it does not mix and folds them in at the
    # next mix; every output and every position must be the reference's,
    # which mixes every step (a draw among one value reads 0 either way)
    rng, reference = SimRng(seed), _AdditiveSplitMix64(seed)
    sim, arrived = _arrivals()
    expected = {}
    assert _state(rng) == reference.state
    for i, (op, *arg) in enumerate(ops):
        if op == "next_u64":
            assert rng.next_u64() == reference.next_u64()
        elif op == "skip":
            rng.skip(arg[0])
            reference.step(arg[0])
        elif op == "randrange":
            assert rng.randrange(arg[0]) == reference.next_u64() % arg[0]
        else:
            sim.send(LatencyModel(2, arg[0]), rng, "n", Ping(str(i)))
            expected[str(i)] = 2 + reference.next_u64() % (arg[0] + 1)
        assert _state(rng) == reference.state
    sim.run_until(2**41)
    assert arrived == expected


@pytest.mark.parametrize("base_ms, jitter_ms", [(-1, 0), (0, -1)])
def test_a_negative_latency_is_refused(base_ms, jitter_ms):
    with pytest.raises(ValueError, match="negative latency"):
        LatencyModel(base_ms, jitter_ms)


def test_events_run_in_time_order():
    order = []
    sim = Simulator(lambda target, p: order.append(p.label))
    sim.schedule(30, "n", Ping("c"))
    sim.schedule(10, "n", Ping("a"))
    sim.schedule(20, "n", Ping("b"))
    sim.run_until(100)
    assert order == ["a", "b", "c"]


def test_ties_resolve_by_insertion_order():
    order = []
    sim = Simulator(lambda target, p: order.append(p.label))
    sim.schedule(10, "n", Ping("first"))
    sim.schedule(10, "n", Ping("second"))
    sim.schedule(10, "n", Ping("third"))
    sim.run_until(10)
    assert order == ["first", "second", "third"]


def test_handlers_can_schedule_followups():
    hits = []

    def handler(target, payload):
        hits.append((sim.now, payload.label))
        if payload.label == "seed":
            sim.schedule_in(5, "n", Ping("child"))

    sim = Simulator(handler)
    sim.schedule(10, "n", Ping("seed"))
    sim.run_until(100)
    assert hits == [(10, "seed"), (15, "child")]


def test_run_until_boundary_inclusive_and_clock_advances():
    seen = []
    sim = Simulator(lambda target, p: seen.append(p.label))
    sim.schedule(10, "n", Ping("at-end"))
    sim.schedule(11, "n", Ping("beyond"))
    sim.run_until(10)
    assert seen == ["at-end"]
    assert sim.now == 10
    sim.run_until(9001)
    assert seen == ["at-end", "beyond"]
    assert sim.now == 9001


def test_run_until_before_the_clock_raises_and_keeps_the_clock():
    seen = []
    sim = Simulator(lambda target, p: seen.append(p.label))
    sim.schedule(10, "n", Ping("first"))
    sim.schedule(20, "n", Ping("second"))
    sim.run_until(10)
    with pytest.raises(ValueError):
        sim.run_until(5)
    assert sim.now == 10
    with pytest.raises(ScheduleInPastError):
        sim.schedule(7, "n", Ping("late"))
    sim.run_until(20)
    assert seen == ["first", "second"]
    assert sim.now == 20


def test_scheduling_in_the_past_fails():
    sim = Simulator(lambda target, p: None)
    sim.schedule(10, "n", Ping("x"))
    sim.run_until(10)
    with pytest.raises(ScheduleInPastError):
        sim.schedule(9, "n", Ping("late"))


def test_trace_line_format():
    trace = []
    sim = Simulator(lambda target, p: None, trace=trace)
    sim.schedule(42, "cloud:s00", Ping("hello"))
    sim.run_until(42)
    assert trace == ["42\t0\tcloud:s00\tping\thello"]


def test_a_burst_reaches_the_sink_in_full_blocks_and_a_remainder():
    # 600 events in one millisecond: the block bound holds inside a bucket
    sink = _BlockSink()
    sim = Simulator(lambda target, p: None, trace=sink)
    for i in range(600):
        sim.schedule(3, "n", Ping(str(i)))
    sim.run_until(3)
    blocks = [lines for _, lines in sink.blocks]
    assert [len(block) for block in blocks] == [256, 256, 88]
    assert [line.split("\t")[1] for block in blocks for line in block] == [
        str(i) for i in range(600)
    ]


def test_trace_written_before_handler_runs():
    trace = []

    def exploding(target, payload):
        raise RuntimeError("boom")

    sim = Simulator(exploding, trace=trace)
    sim.schedule(1, "n", Ping("doomed"))
    with pytest.raises(RuntimeError):
        sim.run_until(5)
    assert len(trace) == 1
    assert sim.current == (1, 0)


class Note:
    """A payload that a weak reference can watch."""

    kind = "note"

    def __init__(self, label: str):
        self.label = label

    def summary(self) -> str:
        return self.label


def test_a_raise_mid_burst_leaves_the_rest_of_the_burst_queued():
    trace = []
    seen = []
    burst = []  # weak references to the t=10 burst, in schedule order

    def handler(target, payload):
        label = payload.label
        seen.append(label)
        if label == "start":
            for i in range(5):
                note = Note(f"b{i}")
                burst.append(weakref.ref(note))
                sim.schedule(10, "n", note)
        elif label == "b1":
            # b0 ran; only the queue held it, and it has let it go
            seen.append(burst[0]() is None)
        elif label == "b2":
            raise RuntimeError("boom")

    sim = Simulator(handler, trace=trace)
    sim.schedule(5, "n", Note("start"))
    sim.schedule(10, "n", Note("pre"))
    with pytest.raises(RuntimeError):
        sim.run_until(20)
    assert seen == ["start", "pre", "b0", "b1", True, "b2"]
    assert sim.current == (10, 4)
    sim.schedule_in(0, "n", Note("late"))
    sim.run_until(20)
    assert seen[6:] == ["b3", "b4", "late"]
    assert [line.split("\t")[1] for line in trace] == ["0", "1", "2", "3", "4", "5", "6", "7"]
    assert sim.now == 20


def test_a_clock_that_stops_moving_trips_after_the_bound():
    seen = []

    def handler(target, payload):
        seen.append(sim.now)
        sim.schedule_in(0, "n", Ping("again"))

    sim = Simulator(handler, stall_bound=10)
    sim.schedule(5, "n", Ping("start"))
    with pytest.raises(StalledClockError, match=r"t=5ms: 74 events .* 'ping'"):
        sim.run_until(100)
    # the event queued before the first run_until is not counted; it queued
    # one event at t=5, so the bucket may run 10 + 64 x 1 and it queued a 75th
    assert seen == [5] * 75
    assert sim.current == (5, 74)


@pytest.mark.parametrize(
    "queued, burst, trips", [(1, 73, False), (1, 74, True), (3, 199, False), (3, 200, True)]
)
def test_a_bucket_may_run_the_bound_plus_64_per_queued_event(queued, burst, trips):
    # ``queued`` events wait at t=5 when the clock gets there; the first adds
    # ``burst`` more at the same time, so the bucket runs queued + burst
    order = []

    def handler(target, payload):
        order.append(payload.label)
        if payload.label == "start":
            for i in range(queued):
                sim.schedule_in(1, "n", Ping(f"q{i}"))
            sim.schedule_in(2, "n", Ping("next"))
        elif payload.label == "q0":
            for i in range(burst):
                sim.schedule_in(0, "n", Ping(f"b{i}"))

    sim = Simulator(handler, stall_bound=10)
    sim.schedule(4, "n", Ping("start"))
    ran = ["start"] + [f"q{i}" for i in range(queued)] + [f"b{i}" for i in range(burst)]
    if trips:
        with pytest.raises(StalledClockError, match=f"{10 + 64 * queued} events"):
            sim.run_until(100)
        assert order == ran[:-1]
    else:
        sim.run_until(100)
        assert order == ran + ["next"]


def test_a_raise_that_empties_its_bucket_lets_the_next_call_go_on():
    seen = []

    def handler(target, payload):
        seen.append((sim.now, payload.label))
        if payload.label == "boom":
            raise RuntimeError("boom")

    sim = Simulator(handler)
    sim.schedule(5, "n", Ping("boom"))
    sim.schedule(7, "n", Ping("after"))
    with pytest.raises(RuntimeError):
        sim.run_until(10)
    assert sim.current == (5, 0)
    sim.run_until(10)
    assert seen == [(5, "boom"), (7, "after")]
    assert sim.now == 10


def _fed(times, drawn=None):
    """A fed stream of Pings labelled f<i>, noting each one as it is drawn."""
    for i, at in enumerate(times):
        if drawn is not None:
            drawn.append(f"f{i}")
        yield at, "n", Ping(f"f{i}")


def test_fed_and_scheduled_events_at_one_millisecond_run_in_seq_order():
    trace = []

    def handler(target, payload):
        if payload.label == "early":
            sim.schedule_in(1, "n", Ping("in-run"))

    sim = Simulator(handler, trace=trace)
    sim.schedule(5, "n", Ping("before"))
    sim.feed(_fed([5, 5]), 2)
    sim.schedule(5, "n", Ping("after"))
    sim.schedule(4, "n", Ping("early"))
    sim.run_until(10)
    assert trace == [
        "4\t4\tn\tping\tearly",
        "5\t0\tn\tping\tbefore",
        "5\t1\tn\tping\tf0",
        "5\t2\tn\tping\tf1",
        "5\t3\tn\tping\tafter",
        "5\t5\tn\tping\tin-run",
    ]


@pytest.mark.parametrize("extra, counted", [(0, 74), (2, 202)])
def test_a_stalled_bucket_does_not_count_the_events_queued_before_the_first_call(extra, counted):
    # at t=5 wait an event scheduled before the feed, a fed event and one
    # scheduled after the feed; the last starts a chain of zero-delay events,
    # and the first queues ``extra`` more at t=5
    calls = []

    def handler(target, payload):
        calls.append(payload.label)
        if payload.label == "before":
            for i in range(extra):
                sim.schedule_in(0, "n", Ping(f"x{i}"))
        elif payload.label in ("after", "again"):
            sim.schedule_in(0, "n", Ping("again"))

    sim = Simulator(handler, stall_bound=10)
    sim.schedule(5, "n", Ping("before"))
    sim.feed(_fed([5, 9]), 2)
    sim.schedule(5, "n", Ping("after"))
    with pytest.raises(StalledClockError, match=f"t=5ms: {counted} events"):
        sim.run_until(100)
    # the three run uncounted; then the bucket may run 10 + 64 per event
    # they queued at t=5, and the chain queued one more
    assert calls[:3] == ["before", "f0", "after"]
    assert len(calls) == 3 + counted
    assert sim.current == (5, 3 + counted)


def test_a_fed_stream_is_drawn_as_the_clock_reaches_it_across_calls():
    seen = []
    drawn = []
    sim = Simulator(lambda target, p: seen.append((sim.now, p.label)))
    sim.feed(_fed([1, 3, 5, 7], drawn), 4)
    sim.run_until(3)
    assert seen == [(1, "f0"), (3, "f1")]
    assert sim.now == 3
    # at most the next event is drawn ahead of the clock
    assert drawn in (["f0", "f1"], ["f0", "f1", "f2"])
    sim.run_until(6)
    assert seen[2:] == [(5, "f2")]
    sim.run_until(100)
    assert seen[3:] == [(7, "f3")]
    assert drawn == ["f0", "f1", "f2", "f3"]


def test_a_raising_fed_event_sets_current_and_the_next_call_goes_on():
    seen = []

    def handler(target, payload):
        seen.append(payload.label)
        if payload.label == "f1":
            raise RuntimeError("boom")

    sim = Simulator(handler)
    sim.schedule(0, "n", Ping("pre"))
    sim.feed(_fed([2, 4, 6]), 3)
    with pytest.raises(RuntimeError):
        sim.run_until(10)
    assert sim.current == (4, 2)
    sim.run_until(10)
    assert seen == ["pre", "f0", "f1", "f2"]
    assert sim.now == 10


def test_feeding_twice_or_after_the_first_run_until_raises():
    sim = Simulator(lambda target, p: None)
    sim.feed(_fed([1]), 1)
    with pytest.raises(ValueError, match="already"):
        sim.feed(_fed([2]), 1)
    late = Simulator(lambda target, p: None)
    late.run_until(0)
    with pytest.raises(ValueError, match="after the first run_until"):
        late.feed(_fed([1]), 1)


@pytest.mark.parametrize(
    "times, count, message",
    [([3, 2], 2, "out of time order"), ([1, 2], 1, "yielded 2 events, not 1"), ([1], 2, "not 2")],
)
def test_a_fed_stream_out_of_order_or_of_another_length_raises(times, count, message):
    sim = Simulator(lambda target, p: None)
    sim.feed(_fed(times), count)
    with pytest.raises(ValueError, match=message):
        sim.run_until(10)


@pytest.mark.parametrize(
    "scheduled, current", [(0, None), (3, (1, 2))], ids=["stream-only", "after-three-at-t1"]
)
def test_a_fed_stream_out_of_order_leaves_current_on_the_last_event_that_ran(scheduled, current):
    # the stream raises as its second event is drawn, before its first runs;
    # ``scheduled`` events at t=1 take seqs 0.. and the stream the next two
    trace = []
    sim = Simulator(lambda target, p: None, trace=trace)
    for i in range(scheduled):
        sim.schedule(1, "n", Ping(f"s{i}"))
    sim.feed(_fed([3, 2]), 2)
    with pytest.raises(ValueError, match="^fed event 1 at t=2ms is out of time order$"):
        sim.run_until(10)
    assert sim.current == current
    assert sim.now == (0 if current is None else current[0])
    assert trace == [f"1\t{i}\tn\tping\ts{i}" for i in range(scheduled)]


def _breaking(times, broken):
    """A fed stream that raises RuntimeError as its item ``broken`` is drawn."""
    for i, at in enumerate(times):
        if i == broken:
            raise RuntimeError("the stream broke")
        yield at, "n", Ping(f"f{i}")


@pytest.mark.parametrize(
    "pre_at, current", [(0, (2, 1)), (2, None)], ids=["pre-before", "pre-at-the-tie"]
)
def test_a_fed_stream_that_raises_its_own_error_is_drawn_again_by_the_next_call(pre_at, current):
    # "pre" takes seq 0 and the stream seqs 1-4; at the tie, f0 joins pre's
    # bucket without running before the third draw raises
    seen = []
    sim = Simulator(lambda target, p: seen.append((sim.now, p.label)))
    sim.schedule(pre_at, "n", Ping("pre"))
    sim.feed(_breaking([2, 2, 6, 8], broken=2), 4)
    sim.schedule(5, "n", Ping("post"))
    with pytest.raises(RuntimeError, match="the stream broke"):
        sim.run_until(10)
    assert sim.current == current
    assert seen == ([(0, "pre"), (2, "f0")] if pre_at == 0 else [])
    # the dead stream ends short at the next draw; f1, drawn before it broke,
    # stays queued and runs on the call after
    ran = len(seen)
    with pytest.raises(ValueError, match="^the fed stream yielded 2 events, not 4$"):
        sim.run_until(10)
    assert sim.current == current
    assert len(seen) == ran
    sim.run_until(10)
    assert seen == [(pre_at, "pre"), (2, "f0"), (2, "f1"), (5, "post")]
    assert sim.now == 10


def test_identical_seeds_produce_identical_streams():
    for seed in (0, 1, 2**63, 2**64 - 1):
        a = SimRng(seed)
        b = SimRng(seed)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


class _HeapSim:
    """Reference queue: one heap of (time, seq) for every event."""

    def __init__(self, handler, trace):
        self.handler = handler
        self.trace = trace
        self.queue = []
        self.seq = 0
        self.now = 0
        self.current = None

    def schedule(self, at, target, payload):
        if at < self.now:
            raise ScheduleInPastError(f"{at} < {self.now}")
        heappush(self.queue, (at, self.seq, target, payload))
        self.seq += 1

    def schedule_in(self, delay, target, payload):
        self.schedule(self.now + delay, target, payload)

    def feed(self, events, count):
        for at, target, payload in events:
            self.schedule(at, target, payload)

    def run_until(self, t_end):
        while self.queue and self.queue[0][0] <= t_end:
            at, seq, target, payload = heappop(self.queue)
            self.now = at
            self.trace.append(f"{at}\t{seq}\t{target}\t{payload.kind}\t{payload.summary()}")
            try:
                self.handler(target, payload)
            except BaseException:
                self.current = (at, seq)
                raise
        self.now = t_end


def _drive(make_sim, pre, fed, followups, steps, boom):
    """Run one schedule on a queue built by ``make_sim`` and return what was
    observed: every trace line, handler call, clock and ``current`` value.
    The ``fed`` times are fed as a stream between the two halves of ``pre``."""
    trace = []
    seen = []
    made = [0]

    def handler(target, payload):
        seen.append((sim.now, payload.label))
        label = int(payload.label)
        for delay in followups[label] if label < len(followups) else ():
            sim.schedule_in(delay, "n", Ping(str(made[0])))
            made[0] += 1
        if label == boom:
            raise RuntimeError("boom")

    sim = make_sim(handler, trace)
    half = len(pre) // 2
    for at in pre[:half]:
        sim.schedule(at, "n", Ping(str(made[0])))
        made[0] += 1
    first = made[0]
    sim.feed(((at, "n", Ping(str(first + i))) for i, at in enumerate(fed)), len(fed))
    made[0] += len(fed)
    for at in pre[half:]:
        sim.schedule(at, "n", Ping(str(made[0])))
        made[0] += 1
    for horizon, between in steps:
        try:
            sim.run_until(horizon)
        except RuntimeError:
            seen.append(("raised", sim.current))
        seen.append(("clock", sim.now))
        for delay in between:
            sim.schedule_in(delay, "n", Ping(str(made[0])))
            made[0] += 1
    return trace, seen


_delays = st.integers(min_value=0, max_value=15)


@settings(max_examples=300, deadline=None)
@given(
    pre=st.lists(st.integers(min_value=0, max_value=60), max_size=30),
    fed=st.lists(st.integers(min_value=0, max_value=60), max_size=20).map(sorted),
    followups=st.lists(st.lists(_delays, max_size=3), max_size=60),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.lists(_delays, max_size=3)),
        min_size=1,
        max_size=6,
    ),
    boom=st.none() | st.integers(min_value=0, max_value=60),
)
def test_buckets_and_fed_stream_run_the_single_heap_order(pre, fed, followups, steps, boom):
    # horizons climb by the drawn increments; in-run follow-ups with delay 0
    # tie with events scheduled before and after the feed and with fed
    # events at the same time, and a raise part way leaves the rest queued
    # for the next call
    clock = 0
    climbing = []
    for step, between in steps:
        clock += step
        climbing.append((clock, between))
    expected = _drive(_HeapSim, pre, fed, followups, climbing, boom)
    assert _drive(Simulator, pre, fed, followups, climbing, boom) == expected


_LINKS = [LatencyModel(0, 0), LatencyModel(3, 0), LatencyModel(1, 4)]


def _hops(sim_class, pre, followups, horizons):
    """Run a mix of hops and scheduled events and return what was observed:
    every trace line, handler call and clock, and the final state of each
    stream. A call is ("send" or "schedule", link, stream, extra). On a
    ``Simulator`` a send goes through ``send``; on the reference it is
    scheduled at now + extra + a latency drawn by the one-draw rule."""
    trace, seen = [], []
    rngs = [SimRng(1), SimRng(2**64 - 1)]
    made = [0]

    def call(how, link_index, rng_index, extra):
        payload = Ping(str(made[0]))
        made[0] += 1
        link, rng = _LINKS[link_index], rngs[rng_index]
        if how == "schedule":
            sim.schedule_in(extra, "n", payload)
        elif sim_class is Simulator:
            sim.send(link, rng, "n", payload, extra)
        else:
            latency = link.base_ms + rng.next_u64() % (link.jitter_ms + 1)
            sim.schedule(sim.now + extra + latency, "n", payload)

    def handler(target, payload):
        seen.append((sim.now, payload.label))
        label = int(payload.label)
        for args in followups[label] if label < len(followups) else ():
            call(*args)

    sim = sim_class(handler, trace)
    for args in pre:
        call(*args)
    for horizon in horizons:
        sim.run_until(horizon)
        seen.append(("clock", sim.now))
    return trace, seen, [rng.steps for rng in rngs]


_calls = st.tuples(
    st.sampled_from(["send", "schedule"]),
    st.integers(min_value=0, max_value=len(_LINKS) - 1),
    st.integers(min_value=0, max_value=1),
    _delays,
)


@settings(max_examples=300, deadline=None)
@given(
    pre=st.lists(_calls, max_size=12),
    followups=st.lists(st.lists(_calls, max_size=3), max_size=50),
    steps=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
)
def test_send_runs_as_scheduling_at_now_plus_extra_plus_one_draw(pre, followups, steps):
    # some calls come before the first run_until, the rest from handlers;
    # sends and schedules share one seq count
    horizons = [sum(steps[: i + 1]) for i in range(len(steps))]
    expected = _hops(_HeapSim, pre, followups, horizons)
    assert _hops(Simulator, pre, followups, horizons) == expected


class _BlockSink:
    """A trace sink that records the lines of each ``extend`` call, with the
    index of the ``run_until`` call that made it. Its extend call number
    ``fail`` (from 0) records its lines and then raises ``OSError(fail)``, as
    a sink whose disk fills up after a partial write would."""

    def __init__(self, fail=None):
        self.blocks = []
        self.call = 0
        self.fail = fail

    def extend(self, lines):
        self.blocks.append((self.call, list(lines)))
        if len(self.blocks) - 1 == self.fail:
            raise OSError(self.fail)


@pytest.mark.parametrize("fed", [False, True], ids=["scheduled", "fed"])
@pytest.mark.parametrize("fail, sizes", [(0, [256]), (1, [256, 44])], ids=["block", "remainder"])
def test_a_raising_sink_is_handed_each_line_once_and_its_error_is_raised(fed, fail, sizes):
    # 300 events at t=1: one full block from the loop, the 44 left once it
    # ends. The full block goes out right after the 256th event ran,
    # so a sink that raises there stops the run before the 257th is taken:
    # that event and the rest run in the next call, and their lines go out then
    sink = _BlockSink(fail)
    seen = []
    sim = Simulator(lambda target, payload: seen.append(payload.label), trace=sink)
    events = [(1, "n", Ping(str(i))) for i in range(300)]
    if fed:
        sim.feed(iter(events), len(events))
    else:
        for event in events:
            sim.schedule(*event)
    with pytest.raises(OSError) as raised:
        sim.run_until(1)
    assert [len(lines) for _, lines in sink.blocks] == sizes
    assert raised.value.args == (fail,) and raised.value.__context__ is None
    assert len(seen) == sum(sizes)
    # the last event that ran, whether a full block or the remainder raised
    assert sim.current == (1, sum(sizes) - 1)
    sim.run_until(1)
    # every handler ran once and in order, and each line went out once,
    # the failed block's included
    assert seen == [str(i) for i in range(300)]
    assert [line.split("\t")[1] for _, lines in sink.blocks for line in lines] == seen


def _blocks(pre, fed, followups, horizons, boom, fail=None):
    """Run a mix of scheduled, sent and fed events with a ``_BlockSink`` that
    raises on its extend call ``fail``: one ``run_until`` call per horizon,
    then two more to the last horizon, so the run ends with one call that
    returns whether or not ``boom`` or the sink raised. Return the sink's
    blocks and, per call, the (time, label) of each event its handler saw."""
    sink = _BlockSink(fail)
    ran = []
    made = [0]
    link, rng = LatencyModel(1, 3), SimRng(7)

    def handler(target, payload):
        ran[-1].append((sim.now, payload.label))
        label = int(payload.label)
        for how, delay in followups[label] if label < len(followups) else ():
            if how == "send":
                sim.send(link, rng, "n", Ping(str(made[0])), delay)
            else:
                sim.schedule_in(delay, "n", Ping(str(made[0])))
            made[0] += 1
        if label == boom:
            raise RuntimeError("boom")

    sim = Simulator(handler, trace=sink)
    half = len(pre) // 2
    for at in pre[:half]:
        sim.schedule(at, "n", Ping(str(made[0])))
        made[0] += 1
    first = made[0]
    sim.feed(((at, "n", Ping(str(first + i))) for i, at in enumerate(fed)), len(fed))
    made[0] += len(fed)
    for at in pre[half:]:
        sim.schedule(at, "n", Ping(str(made[0])))
        made[0] += 1
    for horizon in horizons + horizons[-1:] * 2:
        ran.append([])
        try:
            sim.run_until(horizon)
        except (RuntimeError, OSError):
            pass
        sink.call += 1
    return sink.blocks, ran


@settings(max_examples=300, deadline=None)
@given(
    pre=st.lists(st.integers(min_value=0, max_value=60), max_size=30),
    fed=st.lists(st.integers(min_value=0, max_value=60), max_size=20).map(sorted),
    followups=st.lists(
        st.lists(st.tuples(st.sampled_from(["send", "schedule"]), _delays), max_size=3),
        max_size=60,
    ),
    steps=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
    boom=st.none() | st.integers(min_value=0, max_value=60),
    block=st.integers(min_value=1, max_value=6),
    fail=st.none() | st.integers(min_value=0, max_value=30),
)
def test_trace_blocks_carry_each_line_once_before_run_until_ends(
    pre, fed, followups, steps, boom, block, fail
):
    horizons = [sum(steps[: i + 1]) for i in range(len(steps))]
    with mock.patch.object(kernel, "TRACE_BLOCK", block):
        blocks, ran = _blocks(pre, fed, followups, horizons, boom, fail)
        whole, whole_ran = _blocks(pre, fed, followups, horizons[-1:], boom)
    for call, events in enumerate(ran):
        sizes = [len(lines) for made_in, lines in blocks if made_in == call]
        # full blocks and one remainder, handed over before the call ended
        full, rest = divmod(len(events), block)
        assert sizes == [block] * full + [rest] * (rest > 0)
        made = [line.split("\t") for made_in, lines in blocks if made_in == call for line in lines]
        assert [(int(f[0]), f[4]) for f in made] == events
    # no line is handed over twice, not even to a sink that raised
    keys = [tuple(map(int, line.split("\t")[:2])) for _, lines in blocks for line in lines]
    assert keys == sorted(set(keys))
    # the same lines and handler calls, however the run is cut into calls
    # and whether or not the sink raised
    assert [line for _, lines in blocks for line in lines] == [
        line for _, lines in whole for line in lines
    ]
    assert [event for events in ran for event in events] == [
        event for events in whole_ran for event in events
    ]
