"""The event loop stays within its budget of Python calls per event.

A call count is exact, and the same on every run under one interpreter, so
it holds the loop's cost down as ``test_line_budget.py`` holds the lines.
The count is of named ``versim`` functions: code objects under
``src/versim/`` whose name does not start with ``<``. That leaves out
lambdas and comprehensions, which Python 3.12 inlines (PEP 709), and the
dataclass-generated ``__init__``s, whose file is ``<string>``, so the figure
is the same on 3.10, 3.11 and 3.12. The executed events are the calls of
``WorldBase.handle``. The scenarios are the bench's 11 strategy combinations
at 30 users, 10 devices and 3 servers, with three releases, at seed 7. A
change that cuts calls lowers ``CALL_BUDGET`` to the new figure;
``tests/calls_per_event.py`` breaks a workload's figure down by scenario.
"""

import os
import sys
from pathlib import Path

import versim
from versim.runner import build
from versim.scenario import scenario_from_dict
from versim.strategies.common import WorldBase

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import COMBOS  # noqa: E402

CALL_BUDGET = 4.793
PACKAGE = os.path.realpath(os.path.dirname(versim.__file__)) + os.sep


def _scenario(strategy: dict, initial: list[str]) -> dict:
    return {
        "strategy": dict(strategy),
        "users": 30,
        "devices": 10,
        "cloud_servers": 3,
        "initial_versions": list(initial),
        "releases": [
            {"time_ms": t, "version_id": f"R{i}", "server_update_ms": [200, 3000]}
            for i, t in enumerate((4000, 8000, 12000), 1)
        ],
        "runtime_arrivals": {"poisson_rate_per_user_per_s": 1.0},
        "duration_ms": 20_000,
        "seed": 7,
    }


def calls_per_event() -> float:
    """Named ``versim`` calls made inside ``run_until``, over the events it
    executed, summed over the 11 scenarios."""
    handle = WorldBase.handle.__code__
    named: dict = {}  # code object -> whether it is a named versim function
    calls = events = 0

    def profile(frame, event, arg):
        nonlocal calls, events
        if event != "call":
            return
        code = frame.f_code
        counted = named.get(code)
        if counted is None:
            counted = named[code] = not code.co_name.startswith("<") and (
                os.path.realpath(code.co_filename).startswith(PACKAGE)
            )
        if counted:
            calls += 1
            if code is handle:
                events += 1

    for _, strategy, initial in COMBOS:
        scenario = scenario_from_dict(_scenario(strategy, initial))
        sim, _, _ = build(scenario)
        sys.setprofile(profile)
        try:
            sim.run_until(scenario.duration_ms)
        finally:
            sys.setprofile(None)
        calls -= 1  # run_until's own call
    return calls / events


def test_named_calls_per_event_stay_within_the_budget():
    per_event = calls_per_event()
    assert per_event <= CALL_BUDGET, f"{per_event:.4f} calls per event, budget {CALL_BUDGET}"
