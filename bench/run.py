"""versim benchmark: host time and memory of the simulator on three
generated workloads, plus a layer run that attributes host time to modules.

    python3 bench/run.py --workload rollout-matrix --seed 1 --seconds 30 --trace 0

Each pass over a workload runs in a fresh child interpreter (bench/child.py),
one process at a time. ``--trace 0`` repeats timed passes for about
``--seconds`` (at least two) and reports the end-to-end metrics; ``--trace 1``
makes the layer run and reports the per-layer metrics. Either way every
scenario runs more than once, and the report (and event-trace) digests of
its runs must agree. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
TIME_LIMIT_S = 170.0
MIN_TIMED_PASSES = 2
# Seconds one calibration chunk (child.Sampler) takes on the reference host.
# Host times are reported as seconds on that host: measured seconds x
# REF_CAL_S / the mean chunk time sampled while they were measured.
REF_CAL_S = 0.0015

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("loop_s", "s"), ("peak_rss_mib", "MiB")]

# Every message kind the strategies define; a kind not seen on a workload reads 0.
KINDS = [
    "db-fetch", "db-fetch-reply", "db-put-ack", "db-put-profile", "db-store-ack",
    "db-store-audio", "device-reenroll-done", "device-task-done", "dispatch-retry",
    "download-done", "enroll-arrival", "enroll-job", "enroll-job-done", "enroll-request",
    "enroll-response", "handshake-reply", "handshake-request", "handshake-tick",
    "job-rejected", "maintenance-over", "notify-release", "recognize-job",
    "recognize-job-done", "release", "retry-needed", "retry-signal", "runtime-arrival",
    "runtime-request", "runtime-response", "server-update-done", "sweep-step",
    "sync-probe", "sync-reply", "sync-tick",
]  # fmt: skip

PER_LAYER = [
    ("kernel.events", "count"),
    ("kernel.scheduled", "count"),
    ("kernel.pending_peak", "count"),
    ("kernel.rng_draws", "count"),
    ("kernel.events_per_s", "1/s"),
    ("kernel.us_per_event", "us"),
    ("kernel.self_s", "s"),
    ("kernel.event_trace_s", "s"),
    ("kernel.heap_ops_per_s", "1/s"),
    ("kernel.rng_draws_per_s", "1/s"),
    ("runner.build_s", "s"),
    ("runner.generate_s", "s"),
    ("runner.world_s", "s"),
    ("scenario.parse_s", "s"),
    ("strategies.handle_s", "s"),
    ("strategies.job_reject_ratio", "ratio"),
    ("strategies.retry_per_runtime", "ratio"),
    ("strategies.reenroll_per_runtime", "ratio"),
    *[(f"strategies.handle_s.{kind}", "s") for kind in KINDS],
    *[(f"strategies.calls.{kind}", "count") for kind in KINDS],
    ("topology.choose_s", "s"),
    ("topology.choose_calls", "count"),
    ("topology.db_put_s", "s"),
    ("topology.db_put_calls", "count"),
    ("topology.device_store_s", "s"),
    ("topology.device_store_calls", "count"),
    ("engine.enroll_s", "s"),
    ("engine.enroll_calls", "count"),
    ("engine.recognize_s", "s"),
    ("engine.recognize_calls", "count"),
    ("metrics.summarize_s", "s"),
    ("metrics.report_json_s", "s"),
    ("metrics.records", "count"),
    ("cli.event_trace_write_s", "s"),
    ("cli.event_trace_bytes", "bytes"),
    ("layer_run.span_overhead_s", "s"),
]


class BenchError(Exception):
    """The bench itself could not run; no result is printed."""


def run_child(job: dict, deadline: float) -> dict:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before the next pass")
    env = {key: value for key, value in os.environ.items() if key != "SIM_SEED"}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=remaining,
            env=env,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} pass did not finish within the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} pass exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{job['mode']} pass printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["mode"] = job["mode"]
    normalize(result)
    return result


def normalize(result: dict) -> None:
    """Scale one pass's host times to the reference host speed, in place.

    A shared virtual machine's speed can drift by up to 2x within a minute,
    on a pure-Python loop as much as on the simulator (see README.md). Each scenario is scaled by the
    calibration chunks sampled while it ran, the kernel micro rows by those
    sampled during them, and the pass's span times by the median over its
    scenarios. The measured seconds are kept as ``host_<key>``.
    """
    for row in result["scenarios"]:
        scale = REF_CAL_S / row["cal_s"]
        for key in ("wall_s", "setup_s", "loop_s"):
            if key in row:
                row[f"host_{key}"] = row[key]
                row[key] *= scale
    layers = result.get("layers")
    if layers is not None:
        scale = REF_CAL_S / statistics.median(row["cal_s"] for row in result["scenarios"])
        for table in ("incl_s", "self_s", "kind_self_s"):
            layers[table] = {name: value * scale for name, value in layers[table].items()}
    if "micro" in result:
        scale = REF_CAL_S / result["micro_cal_s"]
        result["micro"] = {name: rate / scale for name, rate in result["micro"].items()}


def check_outputs(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every scenario run of every pass.
    A run fails if it raised, or if its report or event-trace digest differs
    from the one most runs of the same scenario produced."""
    rows = [row for p in passes for row in p["scenarios"]]
    problems = [f"{row['name']}: {row['error']}" for row in rows if not row["ok"]]
    bad = {id(row) for row in rows if not row["ok"]}
    for key in ("report_sha256", "trace_sha256"):
        by_name: dict[str, list[dict]] = {}
        for row in rows:
            if row["ok"] and key in row:
                by_name.setdefault(row["name"], []).append(row)
        for name, runs in by_name.items():
            common, _ = Counter(r[key] for r in runs).most_common(1)[0]
            odd = [r for r in runs if r[key] != common]
            if odd:
                problems.append(f"{name}: {len(odd)} of {len(runs)} runs gave another {key}")
                bad.update(id(r) for r in odd)
    return len(rows), len(bad), problems


def _per_scenario_median(passes: list[dict], key: str) -> float:
    """Sum over scenarios of the median over passes: one slow pass of one
    scenario moves the total less than a median of pass totals would."""
    by_name: dict[str, list[float]] = {}
    for p in passes:
        for row in p["scenarios"]:
            if row["ok"]:
                by_name.setdefault(row["name"], []).append(row[key])
    return sum(statistics.median(values) for values in by_name.values())


def end_to_end_metrics(passes: list[dict]) -> dict[str, float]:
    out = {key: _per_scenario_median(passes, key) for key in ("wall_s", "setup_s", "loop_s")}
    out["peak_rss_mib"] = statistics.median(p["peak_rss_mib"] for p in passes)
    return out


def _total(rows: list[dict], key: str) -> float:
    return sum(row[key] for row in rows if row["ok"] and key in row)


def ratio(num: float | None, den: float | None) -> float | None:
    """num / den; None if either is absent, 0 if nothing was attempted."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(workload: str, base: dict, plain: dict | None, spans: dict) -> dict:
    """Per-layer metrics of one spans pass; ``None`` marks a metric whose
    span could not be attached."""
    layers = spans["layers"]
    absent = set(layers["absent"])
    incl, self_s, calls = layers["incl_s"], layers["self_s"], layers["calls"]
    kind_calls, kind_self = layers["kind_calls"], layers["kind_self_s"]
    base_loop = _total(base["scenarios"], "loop_s")
    traced = workload == "traced-cli"
    m: dict[str, float | None] = {}

    def span(name: str, table: dict, metric: str) -> None:
        m[metric] = None if name in absent else table.get(name, 0)

    handle_ok = "strategies.handle" not in absent
    events = layers["events"] if handle_ok else None
    m["kernel.events"] = events
    m["kernel.scheduled"] = None if "kernel.schedule" in absent else layers["scheduled"]
    m["kernel.pending_peak"] = (
        None if "kernel.schedule" in absent or not handle_ok else layers["pending_peak"]
    )
    m["kernel.rng_draws"] = None if "kernel.rng_draw" in absent else layers["rng_draws"]
    m["kernel.events_per_s"] = ratio(events, base_loop)
    m["kernel.us_per_event"] = ratio(base_loop * 1e6, events)
    m["kernel.self_s"] = self_s.get("kernel.run_until", 0.0) if handle_ok else None
    if traced:
        m["kernel.event_trace_s"] = base_loop - _total(plain["scenarios"], "loop_s")
    else:
        m["kernel.event_trace_s"] = 0.0
    micro = base.get("micro", {})
    m["kernel.heap_ops_per_s"] = micro.get("heap_ops_per_s")
    m["kernel.rng_draws_per_s"] = micro.get("rng_draws_per_s")

    span("runner.build", incl, "runner.build_s")
    span("runner.generate", incl, "runner.generate_s")
    if m["runner.build_s"] is None or m["runner.generate_s"] is None:
        m["runner.world_s"] = None
    else:
        m["runner.world_s"] = m["runner.build_s"] - m["runner.generate_s"]
    parse_spans = [n for n in ("scenario.load", "scenario.from_dict") if n not in absent]
    m["scenario.parse_s"] = sum(self_s.get(n, 0.0) for n in parse_spans) if parse_spans else None

    def kinds(*names: str) -> float | None:
        return sum(kind_calls.get(n, 0) for n in names) if handle_ok else None

    m["strategies.handle_s"] = sum(kind_self.values()) if handle_ok else None
    m["strategies.job_reject_ratio"] = ratio(
        kinds("job-rejected"), kinds("enroll-job", "recognize-job")
    )
    m["strategies.retry_per_runtime"] = ratio(
        kinds("retry-needed", "dispatch-retry"), kinds("runtime-arrival")
    )
    reenrolls = sum(r["headline"]["reenrollments"] for r in spans["scenarios"] if r["ok"])
    m["strategies.reenroll_per_runtime"] = ratio(reenrolls, kinds("runtime-arrival"))
    for kind in KINDS:
        m[f"strategies.handle_s.{kind}"] = kind_self.get(kind, 0.0) if handle_ok else None
        m[f"strategies.calls.{kind}"] = kind_calls.get(kind, 0) if handle_ok else None

    for layer, name in (
        ("topology", "choose"),
        ("topology", "db_put"),
        ("topology", "device_store"),
        ("engine", "enroll"),
        ("engine", "recognize"),
    ):
        span(f"{layer}.{name}", self_s, f"{layer}.{name}_s")
        span(f"{layer}.{name}", calls, f"{layer}.{name}_calls")
    span("metrics.summarize", incl, "metrics.summarize_s")
    span("metrics.report_json", incl, "metrics.report_json_s")
    m["metrics.records"] = sum(r["headline"]["records"] for r in spans["scenarios"] if r["ok"])
    if traced:
        span("cli.run_command", self_s, "cli.event_trace_write_s")
    else:
        m["cli.event_trace_write_s"] = 0.0
    m["cli.event_trace_bytes"] = _total(base["scenarios"], "trace_bytes")
    m["layer_run.span_overhead_s"] = _total(spans["scenarios"], "loop_s") - base_loop
    return m


def median_layer_metrics(per_pass: list[dict]) -> dict:
    out = {}
    for name, _ in PER_LAYER:
        values = [m[name] for m in per_pass]
        out[name] = None if None in values else statistics.median(values)
    return out


def run_workload(args: argparse.Namespace, workdir: Path) -> dict:
    scenarios = generate(args.workload, args.seed)
    files = {}
    if args.workload == "traced-cli":
        for name, data in scenarios:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            files[name] = str(path)
    job = {
        "root": str(ROOT),
        "workload": args.workload,
        "scenarios": scenarios,
        "files": files,
        "workdir": str(workdir),
    }
    start = perf_counter()
    deadline = start + TIME_LIMIT_S

    def passes_until_time(mode: str, done: list[dict], minimum: int) -> None:
        while True:
            t0 = perf_counter()
            done.append(run_child(dict(job, mode=mode), deadline))
            last = perf_counter() - t0
            # stop when one more pass would end further from the target than now
            if len(done) >= minimum and perf_counter() - start + last / 2 > args.seconds:
                return

    if not args.trace:
        passes: list[dict] = []
        passes_until_time("timed", passes, MIN_TIMED_PASSES)
        metrics = end_to_end_metrics(passes)
    else:
        base = run_child(dict(job, mode="timed", micro=True), deadline)
        plain = run_child(dict(job, mode="plain"), deadline) if files else None
        spans: list[dict] = []
        passes_until_time("spans", spans, 1)
        passes = [base, *([plain] if plain else []), *spans]
        metrics = median_layer_metrics(
            [layer_metrics(args.workload, base, plain, s) for s in spans]
        )
    attempted, failed, problems = check_outputs(passes)
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def print_scenarios(passes: list[dict]) -> None:
    """One line per scenario run: reference-host times, the measured host
    wall time and calibration, the report digest and the simulated headline
    numbers (checked as outputs, never gated)."""
    print(
        f"{'pass':<6} {'scenario':<24} {'wall_s':>7} {'setup_s':>7} {'loop_s':>7} "
        f"{'host_s':>7} {'cal_ms':>6}  {'report_sha256':<16} {'avail':>6} {'p95':>5} "
        f"{'reenr':>6} {'bounce':>6} {'maint':>6}"
    )
    for p in passes:
        for row in p["scenarios"]:
            if not row["ok"]:
                print(f"{p['mode']:<6} {row['name']:<24} FAILED {row['error']}")
                continue
            h = row["headline"]
            avail = "-" if h["availability"] is None else f"{h['availability']:.4f}"
            print(
                f"{p['mode']:<6} {row['name']:<24} {row['wall_s']:7.3f} {row['setup_s']:7.3f} "
                f"{row['loop_s']:7.3f} {row['host_wall_s']:7.3f} {row['cal_s'] * 1e3:6.3f}  "
                f"{row['report_sha256'][:16]:<16} {avail:>6} {h['runtime_p95_ms']!s:>5} "
                f"{h['reenrollments']:>6} {h['bounces']:>6} {h['maintenance_ms']:>6}"
            )
            if "trace_sha256" in row:
                print(
                    f"{'':<31} event trace {row['trace_bytes']} bytes, "
                    f"sha256 {row['trace_sha256'][:16]}"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: layer run")
    parser.add_argument("--out", default=None, help="also write every pass as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "versim" / "__init__.py").is_file():
        print(f"bench: no versim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(result['passes'])}")
    print_scenarios(result["passes"])
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"{name:<44} {'absent' if value is None else f'{value} {units[name]}'}")
    print(
        f"{'failed_run_ratio':<44} {result['failed'] / result['attempted']} ratio "
        f"({result['failed']} of {result['attempted']} scenario runs)"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if value is not None
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
