"""Metamorphic relations: two runs whose inputs differ in a way with a known
effect on the output, compared byte for byte.

A run is a pure function of (scenario, seed), so each relation asks for
equal bytes, with no expected value written down:
- Poisson arrivals, rewritten as the ``explicit`` list of the runtime
  arrivals the run took, give the same trace and report, for every
  strategy. The workload reaches the run only through its arrival times.
- Under DEVICE the cloud fleet takes no part, so ``cloud_servers`` 1, 3 or
  16 changes no byte.
- Running the clock to the horizon in steps of 97 ms gives the trace and
  report of one ``run_until`` call: a call boundary is not an event.
- A run built with twice the horizon and run to T reports at T what the run
  to T reports. Only the report is compared: the longer run feeds more
  arrivals, so every later seq in its trace moves.
- Renaming every version gives the same report, and the same trace once the
  new ids are read back as the old: versions are ordered by the seq the run
  numbers them with, never by id. The new ids sort in reverse seq order.
- A release after the horizon gives the same report, and the same trace
  once the event seqs are dropped: a release takes part only when its event
  runs, and the one event it queues moves every later seq by one.
- Under HYBRID, a handshake period past the horizon gives the report of no
  handshake, and its trace once the seqs are dropped: each device's first
  tick is queued at the build, past the horizon, and never runs.
- ``reenroll_parallelism`` above the user count changes no byte: the
  offline bulk pass never runs more lanes than it has users to re-enroll.
"""

from dataclasses import replace

import pytest

from test_acceptance import _COMBOS
from versim.metrics import report_to_json
from versim.runner import build, run
from versim.scenario import scenario_from_dict

_SEEDS = (3, 31)


def _scenario(strategy, initial, seed, **overrides):
    """Thirty users on six devices, three releases, and jittered links, so
    that the order of same-time events shows in the trace."""
    return scenario_from_dict(
        {
            "strategy": dict(strategy),
            "users": 30,
            "devices": 6,
            "cloud_servers": 3,
            "initial_versions": list(initial),
            "latency": {
                "device_frontend": {"base_ms": 5, "jitter_ms": 20},
                "device_storage": {"base_ms": 5, "jitter_ms": 200},
                "frontend_cloud": {"base_ms": 2, "jitter_ms": 5},
                "frontend_db": {"base_ms": 1, "jitter_ms": 2},
            },
            "releases": [
                {"time_ms": 3000, "version_id": "R1", "server_update_ms": [200, 2000]},
                {"time_ms": 6000, "version_id": "R2", "server_update_ms": [200, 2000]},
                {"time_ms": 9000, "version_id": "R3", "server_update_ms": [200, 2000]},
            ],
            "runtime_arrivals": {"poisson_rate_per_user_per_s": 1.0},
            "duration_ms": 12_000,
            "seed": seed,
            **overrides,
        }
    )


def _outputs(scenario) -> tuple[str, list[str]]:
    lines: list[str] = []
    result = run(scenario, trace=lines)
    return report_to_json(result.report), lines


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_poisson_arrivals_rewritten_as_explicit_ones_change_no_byte(name, strategy, initial, seed):
    poisson = _scenario(strategy, initial, seed)
    report, trace = _outputs(poisson)
    explicit = []
    for line in trace:
        at, _, _, kind, summary = line.split("\t")
        if kind == "runtime-arrival":
            explicit.append({"time_ms": int(at), "user_id": summary.removeprefix("user=")})
    assert len(explicit) > 200
    rewritten = _scenario(strategy, initial, seed, runtime_arrivals={"explicit": explicit})
    assert rewritten.runtime_arrivals != poisson.runtime_arrivals
    assert _outputs(rewritten) == (report, trace)


@pytest.mark.parametrize("seed", _SEEDS)
def test_the_cloud_fleet_size_changes_no_byte_under_device(seed):
    base = _scenario({"deployment": "DEVICE"}, ["V1"], seed)
    outputs = [_outputs(replace(base, cloud_servers=n)) for n in (1, 3, 16)]
    assert outputs[0][0] != "" and len(outputs[0][1]) > 100
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_running_the_clock_in_steps_changes_no_byte(name, strategy, initial, seed):
    scenario = _scenario(strategy, initial, seed)
    horizon = scenario.duration_ms
    lines: list[str] = []
    sim, _, log = build(scenario, trace=lines)
    for t in range(97, horizon, 97):
        sim.run_until(t)
    sim.run_until(horizon)
    assert (report_to_json(log.report(horizon)), lines) == _outputs(scenario)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_a_longer_run_reports_at_the_horizon_what_the_run_to_it_reports(
    name, strategy, initial, seed
):
    scenario = _scenario(strategy, initial, seed)
    horizon = scenario.duration_ms
    sim, _, log = build(_scenario(strategy, initial, seed, duration_ms=2 * horizon))
    sim.run_until(horizon)
    assert report_to_json(log.report(horizon)) == _outputs(scenario)[0]


def _release(time_ms, version_id):
    return {"time_ms": time_ms, "version_id": version_id, "server_update_ms": [200, 2000]}


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_renaming_every_version_changes_only_the_ids(name, strategy, initial, seed):
    scenario = _scenario(strategy, initial, seed)
    old = list(initial) + [r.version_id for r in scenario.releases]
    new = [f"Z{9 - i}" for i in range(len(old))]  # Z9, Z8, ...: reverse string order
    renamed = _scenario(
        strategy,
        new[: len(initial)],
        seed,
        releases=[_release(r.time_ms, v) for r, v in zip(scenario.releases, new[len(initial) :])],
    )
    report, trace = _outputs(renamed)
    for n, o in zip(new, old):
        trace = [line.replace(n, o) for line in trace]
    assert (report, trace) == _outputs(scenario)


def _without_seqs(trace: list[str]) -> list[str]:
    """The trace lines without the event seq, their second field."""
    return [f"{at}\t{rest}" for at, _, rest in (line.split("\t", 2) for line in trace)]


def _assert_only_seqs_move(changed, scenario) -> None:
    """``changed`` queues events that never run: the report is the same, and
    the trace too once the seqs, which those events move, are dropped."""
    report, trace = _outputs(changed)
    expected_report, expected_trace = _outputs(scenario)
    assert report == expected_report
    assert trace != expected_trace  # every seq after the build moved
    assert _without_seqs(trace) == _without_seqs(expected_trace)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_a_release_after_the_horizon_changes_no_report_byte(name, strategy, initial, seed):
    scenario = _scenario(strategy, initial, seed)
    releases = [_release(r.time_ms, r.version_id) for r in scenario.releases]
    later = _scenario(
        strategy, initial, seed, releases=releases + [_release(scenario.duration_ms + 1, "R9")]
    )
    _assert_only_seqs_move(later, scenario)


_HYBRID = [c for c in _COMBOS if c[0] in ("hybrid-single", "hybrid-double")]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _HYBRID, ids=[c[0] for c in _HYBRID])
def test_a_handshake_period_past_the_horizon_changes_no_report_byte(name, strategy, initial, seed):
    scenario = _scenario(strategy, initial, seed)
    late = {**strategy, "handshake_period_ms": scenario.duration_ms + 1}
    _assert_only_seqs_move(_scenario(late, initial, seed), scenario)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name, strategy, initial", _COMBOS, ids=[c[0] for c in _COMBOS])
def test_reenroll_parallelism_above_the_user_count_changes_no_byte(name, strategy, initial, seed):
    scenario = _scenario(strategy, initial, seed, reenroll_parallelism=500)
    assert scenario.reenroll_parallelism > scenario.users
    assert _outputs(scenario) == _outputs(replace(scenario, reenroll_parallelism=scenario.users))
