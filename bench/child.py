"""One pass over a workload's scenarios, in a fresh interpreter.

Reads a job as JSON on stdin and prints one JSON object on stdout. The job
names the checkout root, the workload's scenarios, and a mode:

* ``timed``: run every scenario once, with nothing attached but a timer on
  the event loop. This is the pass the end-to-end metrics come from.
* ``plain``: run the traced-cli scenarios through ``runner.run`` without the
  event trace, for the trace's cost and a cli-versus-runner output check.
* ``spans``: like ``timed``, with spans and counters wrapped around the
  public calls of every module (the layer run).

The wrappers attach by attribute name from outside; nothing in the program is
edited. A wrapped attribute that no longer exists is skipped and reported as
absent, so a refactor never breaks the layer run.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import sys
from collections import Counter, defaultdict
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter

# span name -> (module, class or None for a module-level function, attribute).
# runner.run and cli.write_report feed no metric of their own: as children of
# cli.run_command they leave its self time to the event-trace file write.
SPANS = {
    "kernel.run_until": ("versim.kernel", "Simulator", "run_until"),
    "runner.run": ("versim.runner", None, "run"),
    "runner.build": ("versim.runner", None, "build"),
    "runner.generate": ("versim.runner", None, "_generate_workload"),
    "scenario.load": ("versim.scenario", None, "load_scenario"),
    "scenario.from_dict": ("versim.scenario", None, "scenario_from_dict"),
    "engine.enroll": ("versim.engine", "EngineInstance", "enroll"),
    "engine.recognize": ("versim.engine", "EngineInstance", "recognize"),
    "topology.choose": ("versim.topology", "FrontendNode", "choose"),
    "topology.db_put": ("versim.topology", "DatabaseNode", "put_profile"),
    "topology.device_store": ("versim.topology", "DeviceNode", "store_profile"),
    "metrics.summarize": ("versim.metrics", None, "summarize"),
    "metrics.report_json": ("versim.metrics", None, "report_to_json"),
    "cli.run_command": ("versim.cli", None, "_cmd_run"),
    "cli.write_report": ("versim.cli", None, "_write_text"),
}
HANDLE = ("versim.strategies.common", "WorldBase", "handle")
SCHEDULE = ("versim.kernel", "Simulator", "schedule")
RNG_DRAW = ("versim.kernel", "SimRng", "next_u64")

SAMPLE_PERIOD_S = 0.05
SAMPLE_ROUNDS = 1_500
MICRO_QUEUE_DEPTH = 1024
MICRO_EVENTS = 200_000
MICRO_DRAWS = 500_000


def calibrate(rounds: int) -> None:
    """A fixed pure-Python loop of dict, heap and integer work."""
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(rounds):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + 1
        heappush(heap, (key, i))
        if len(heap) > 64:
            heappop(heap)


class Sampler:
    """Gauges the host's speed while the program runs.

    Every SAMPLE_PERIOD_S of wall time a SIGALRM handler times one
    ``calibrate(SAMPLE_ROUNDS)`` chunk. ``clock()`` is ``perf_counter()``
    minus the time spent in the handler, so intervals read from it exclude
    the sampling. run.py divides each scenario's times by the mean chunk
    time measured during that scenario.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        calibrate(SAMPLE_ROUNDS)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        # retry if the handler ran between reading ``spent`` and the counter
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:
                return now - spent

    def mean_since(self, index: int) -> float:
        if len(self.samples) <= index:
            self._tick()
        recent = self.samples[index:]
        return sum(recent) / len(recent)


def attach(module_name: str, owner: str | None, attr: str, make) -> bool:
    """Replace ``owner.attr`` of a module with ``make(original)``. A
    module-level function is replaced in every versim module that imported it
    by name too. Returns False, changing nothing, if it no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    target = module if owner is None else getattr(module, owner, None)
    original = getattr(target, attr, None)
    if original is None:
        return False
    wrapped = make(original)
    if owner is not None:
        setattr(target, attr, wrapped)
        return True
    for name, mod in list(sys.modules.items()):
        if name == "versim" or name.startswith("versim."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return True


class LoopTimer:
    """Entry and exit times of every ``Simulator.run_until`` call."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.calls: list[tuple[float, float]] = []

    def make(self, original):
        calls, clock = self.calls, self.clock

        def run_until(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                calls.append((t0, clock()))

        return run_until


class Layers:
    """Spans (inclusive and self time, calls) and kernel counters.

    A span's self time is its duration minus the time of the spans nested
    inside it, so handler time excludes the engine and topology calls it
    makes and no interval is counted twice across layers.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.kind_self_s: dict[str, float] = defaultdict(float)
        self.kind_calls: Counter = Counter()
        self.absent: list[str] = []
        self.executed = 0
        self.scheduled = 0
        self.rng_draws = 0
        self.pending_base = 0
        self.pending_peak = 0
        self._stack: list[float] = []

    def attach_all(self) -> None:
        for name, (module, owner, attr) in SPANS.items():
            if not attach(module, owner, attr, lambda fn, n=name: self._span(fn, n)):
                self.absent.append(name)
        for name, where, make in (
            ("strategies.handle", HANDLE, self._handle),
            ("kernel.schedule", SCHEDULE, self._schedule),
            ("kernel.rng_draw", RNG_DRAW, self._rng_draw),
        ):
            if not attach(*where, make):
                self.absent.append(name)

    def begin_scenario(self) -> None:
        self.pending_base = self.scheduled - self.executed

    def _span(self, original, name: str):
        stack = self._stack
        incl_s, self_s, calls, clock = self.incl_s, self.self_s, self.calls, self.clock

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                incl_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return span

    def _handle(self, original):
        stack = self._stack
        kind_self_s, kind_calls, clock = self.kind_self_s, self.kind_calls, self.clock
        layers = self

        def handle(world, target, payload, *rest):
            kind = payload.kind
            kind_calls[kind] += 1
            layers.executed += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return original(world, target, payload, *rest)
            finally:
                dt = clock() - t0
                kind_self_s[kind] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return handle

    def _schedule(self, original):
        layers = self

        def schedule(*args, **kwargs):
            original(*args, **kwargs)
            layers.scheduled += 1
            pending = layers.scheduled - layers.executed - layers.pending_base
            if pending > layers.pending_peak:
                layers.pending_peak = pending

        return schedule

    def _rng_draw(self, original):
        layers = self

        def next_u64(rng):
            layers.rng_draws += 1
            return original(rng)

        return next_u64

    def to_json(self) -> dict:
        return {
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "kind_self_s": dict(self.kind_self_s),
            "kind_calls": dict(self.kind_calls),
            "absent": self.absent,
            "events": self.executed,
            "scheduled": self.scheduled,
            "rng_draws": self.rng_draws,
            "pending_peak": self.pending_peak,
        }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_report(text: str, metrics) -> dict:
    """Headline numbers of one report, after checking it is canonical JSON
    and free of version-mismatch violations."""
    data = json.loads(text)
    if metrics.report_to_json(metrics.report_from_dict(data)) != text:
        raise ValueError("report JSON does not re-encode byte-identically")
    if data["mismatch_violations"] != 0:
        raise ValueError(f"mismatch_violations is {data['mismatch_violations']}")
    availability = data["availability"]
    if availability is not None and not 0.0 <= availability <= 1.0:
        raise ValueError(f"availability {availability} is outside [0, 1]")
    runtime = data["latency_ms"]["RUNTIME"]
    return {
        "availability": availability,
        "runtime_p95_ms": None if runtime is None else runtime["p95"],
        "reenrollments": data["total_reenrollments"],
        "bounces": data["bounce_count"],
        "maintenance_ms": data["maintenance_ms"],
        "records": sum(sum(by_outcome.values()) for by_outcome in data["total_requests"].values()),
    }


def _cli_outputs(job: dict, name: str) -> tuple[Path, Path]:
    workdir = Path(job["workdir"])
    return workdir / f"{name}.trace.tsv", workdir / f"{name}.report.json"


def _run_direct(versim, job: dict, name: str, data: dict) -> str:
    scenario = versim.scenario.scenario_from_dict(data)
    return versim.metrics.report_to_json(versim.runner.run(scenario).report)


def _run_plain(versim, job: dict, name: str, data: dict) -> str:
    scenario = versim.scenario.load_scenario(job["files"][name])
    return versim.metrics.report_to_json(versim.runner.run(scenario).report)


def _run_cli(versim, job: dict, name: str, data: dict) -> None:
    trace, out = _cli_outputs(job, name)
    argv = ["run", "--scenario", job["files"][name], "--trace", str(trace), "--out", str(out)]
    code = versim.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"versim run exited {code}")


def run_scenario(job, name, data, versim, sampler, timer, layers) -> dict:
    """Run one scenario, time it, and check its outputs."""
    row: dict = {"name": name, "ok": False}
    if job["workload"] != "traced-cli":
        run = _run_direct
    else:
        run = _run_plain if job["mode"] == "plain" else _run_cli
    first_loop = len(timer.calls)
    first_sample = len(sampler.samples)
    if layers is not None:
        layers.begin_scenario()
        events_before = layers.executed
    try:
        t0 = sampler.clock()
        text = run(versim, job, name, data)
        done = sampler.clock()
        loops = timer.calls[first_loop:]
        if not loops:
            raise RuntimeError("the run never entered Simulator.run_until")
        row["wall_s"] = done - t0
        row["setup_s"] = loops[0][0] - t0
        row["loop_s"] = sum(end - start for start, end in loops)
        trace = None
        if run is _run_cli:
            trace_path, out_path = _cli_outputs(job, name)
            text = out_path.read_text(encoding="utf-8")
            trace = trace_path.read_bytes()
            trace_path.unlink()
            out_path.unlink()
        row["report_sha256"] = _digest(text.encode("utf-8"))
        row["headline"] = _check_report(text, versim.metrics)
        if trace is not None:
            row["trace_sha256"] = _digest(trace)
            row["trace_bytes"] = len(trace)
            if layers is not None and trace.count(b"\n") != layers.executed - events_before:
                raise ValueError("event trace line count differs from the events executed")
        row["ok"] = True
    except Exception as exc:  # one failed scenario must not hide the others
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["cal_s"] = sampler.mean_since(first_sample)
    gc.collect()
    return row


class _Tick:
    kind = "tick"

    def summary(self) -> str:
        return ""


def kernel_micro(kernel, clock) -> dict:
    """Schedule+pop pairs per second with a handler that only reschedules,
    at a fixed queue depth, and SplitMix64 draws per second."""
    tick = _Tick()
    delays = [1 + (i * 7919) % 997 for i in range(MICRO_EVENTS)]
    remaining = iter(delays)

    def reschedule(target, payload):
        delay = next(remaining, None)
        if delay is not None:
            sim.schedule_in(delay, target, payload)

    sim = kernel.Simulator(reschedule)
    for i in range(MICRO_QUEUE_DEPTH):
        sim.schedule(i, "n", tick)
    t0 = clock()
    sim.run_until(1 << 62)
    heap_s = clock() - t0

    rng = kernel.SimRng(12345)
    draw = rng.next_u64
    t0 = clock()
    for _ in range(MICRO_DRAWS):
        draw()
    rng_s = clock() - t0
    return {
        "heap_ops_per_s": (MICRO_EVENTS + MICRO_QUEUE_DEPTH) / heap_s,
        "rng_draws_per_s": MICRO_DRAWS / rng_s,
    }


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    import versim.cli
    import versim.kernel
    import versim.metrics
    import versim.runner
    import versim.scenario

    sampler = Sampler()
    timer = LoopTimer(sampler.clock)
    if not attach("versim.kernel", "Simulator", "run_until", timer.make):
        print("versim.kernel.Simulator.run_until not found", file=sys.stderr)
        return 1
    layers = None
    if job["mode"] == "spans":
        layers = Layers(sampler.clock)
        layers.attach_all()
    gc.collect()
    sampler.start()
    try:
        rows = [
            run_scenario(job, name, data, versim, sampler, timer, layers)
            for name, data in job["scenarios"]
        ]
        out = {"scenarios": rows}
        if job.get("micro"):
            first_sample = len(sampler.samples)
            try:
                out["micro"] = kernel_micro(versim.kernel, sampler.clock)
                out["micro_cal_s"] = sampler.mean_since(first_sample)
            except (AttributeError, TypeError) as exc:  # kernel API renamed: rows absent
                print(f"kernel micro rows skipped: {exc}", file=sys.stderr)
    finally:
        sampler.stop()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if layers is not None:
        out["layers"] = layers.to_json()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    os.environ.pop("SIM_SEED", None)
    sys.exit(main())
