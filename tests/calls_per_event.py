"""Python calls per executed event, as JSON.

Counts the Python-level calls (``sys.setprofile``'s ``call`` events, which
include each generator resumption) made inside ``Simulator.run_until`` of
every scenario of a bench workload, and the events executed there, which
are the calls of ``WorldBase.handle``. Builtins and C methods are not
counted. Of the calls, the named ``versim`` ones are also counted: code
objects under ``src/versim/`` whose name does not start with ``<``, the
figure that ``test_call_budget.py`` gates. Prints one JSON object per
(workload, seed) with the totals and their ratios, and each scenario's own.
With ``--trace``, each run has the command line's trace sink attached,
writing to a temporary file.

Pytest does not collect this file. Run it from the repository root:

    PYTHONPATH=src python3 tests/calls_per_event.py --workload rollout-matrix --seed 1
    PYTHONPATH=src python3 tests/calls_per_event.py --workload traced-cli --trace

The counts are of the interpreter that runs it: a figure quoted from it
should name the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS, generate  # noqa: E402

import versim  # noqa: E402
from versim.cli import _BlockWriter  # noqa: E402
from versim.runner import build  # noqa: E402
from versim.scenario import scenario_from_dict  # noqa: E402
from versim.strategies.common import WorldBase  # noqa: E402

PACKAGE = os.path.realpath(os.path.dirname(versim.__file__)) + os.sep


def count(scenario, trace: bool = False) -> tuple[int, int, int]:
    """(Python calls, named ``versim`` calls, events) of one run's event
    loop, with the command line's trace sink writing to a temporary file if
    ``trace``."""
    handle = WorldBase.handle.__code__
    named: dict = {}  # code object -> whether it is a named versim function
    calls = versim_calls = events = 0

    def profile(frame, event, arg):
        nonlocal calls, versim_calls, events
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        counted = named.get(code)
        if counted is None:
            counted = named[code] = not code.co_name.startswith("<") and (
                os.path.realpath(code.co_filename).startswith(PACKAGE)
            )
        if counted:
            versim_calls += 1
            if code is handle:
                events += 1

    with tempfile.TemporaryFile("w", encoding="utf-8") as f:
        sim, _, _ = build(scenario, trace=_BlockWriter(f) if trace else None)
        sys.setprofile(profile)
        try:
            sim.run_until(scenario.duration_ms)
        finally:
            sys.setprofile(None)
    # the first call counted is run_until's own, a named versim one
    return calls - 1, versim_calls - 1, events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--trace", action="store_true", help="attach the CLI's trace sink")
    args = parser.parse_args(argv)
    for workload in args.workload or ["rollout-matrix"]:
        for seed in args.seed or [1]:
            rows = {}
            for name, raw in generate(workload, seed):
                calls, named, events = count(scenario_from_dict(raw), args.trace)
                rows[name] = {
                    "calls": calls,
                    "named": named,
                    "events": events,
                    "per_event": round(calls / events, 3),
                    "named_per_event": round(named / events, 3),
                }
            calls, named, events = (
                sum(row[key] for row in rows.values()) for key in ("calls", "named", "events")
            )
            print(json.dumps({
                "workload": workload,
                "seed": seed,
                "trace": args.trace,
                "python": platform.python_version(),
                "calls": calls,
                "named": named,
                "events": events,
                "calls_per_event": round(calls / events, 3),
                "named_per_event": round(named / events, 3),
                "scenarios": rows,
            }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
