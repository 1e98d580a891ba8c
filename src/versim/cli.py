"""Command-line front end.

Subcommands:

* ``run``: simulate one scenario and emit the report as JSON.
* ``validate``: parse and validate a scenario file without running it.
* ``compare``: run several scenarios and print a summary table.
* ``list-strategies``: show the supported strategy combinations.

Exit codes: 0 success, 1 a run died on a correctness tripwire, 2 bad input
(including a scenario path that cannot be read or an output path that cannot
be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .metrics import report_to_json
from .runner import RunFailedError, run
from .scenario import (
    STRATEGIES,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    check_seed,
    load_scenario,
    strategy_label,
)

class _PathError(Exception):
    """A scenario path that cannot be read or an output path that cannot be
    written; the message names the path."""


def _reason(exc: OSError) -> str:
    if isinstance(exc, FileNotFoundError):
        return "not found"
    return (exc.strerror or type(exc).__name__).lower()


def _read_scenario(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except OSError as exc:
        raise _PathError(f"cannot read {path}: {_reason(exc)}") from exc


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except FileNotFoundError as exc:
        raise _PathError(f"cannot write {path}: no such directory") from exc
    except OSError as exc:
        raise _PathError(f"cannot write {path}: {_reason(exc)}") from exc


def _check_output(path: str) -> None:
    """Fail as ``_open_output`` would, but without creating or truncating
    ``path``, so a run is not simulated for a report it cannot write."""
    if os.path.isdir(path):
        raise _PathError(f"cannot write {path}: is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise _PathError(f"cannot write {path}: no such directory")


def _load(path: str, seed_override: int | None) -> Scenario:
    scenario = _read_scenario(path)
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)
    return scenario


def _resolve_seed(args: argparse.Namespace) -> int | None:
    """The seed override: ``--seed``, else ``SIM_SEED``, checked by the
    scenario file's seed rule."""
    if args.seed is not None:
        return check_seed(args.seed, f"--seed {args.seed}")
    env = os.environ.get("SIM_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ScenarioValidationError(f"SIM_SEED must be an integer, got {env!r}")
        return check_seed(seed, f"SIM_SEED={env}")
    return None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _open_output(path) as f:
            f.write(text)


class _BlockWriter:
    """Trace sink that writes each block of lines to a text file in one call."""

    def __init__(self, file):
        self.extend = lambda lines: file.write("\n".join(lines) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario, _resolve_seed(args))
    if args.out is not None:
        _check_output(args.out)
    if args.trace is None:
        result = run(scenario)
    else:
        # opened only once the scenario is known good, so bad input leaves
        # an existing trace file alone
        with _open_output(args.trace) as f:
            result = run(scenario, trace=_BlockWriter(f))
    _write_text(args.out, report_to_json(result.report))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario)
    print(
        f"ok: {strategy_label(scenario.strategy)}, {scenario.users} users, "
        f"{scenario.cloud_servers} servers, {len(scenario.releases)} releases, "
        f"{scenario.duration_ms} ms"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if args.out is not None:
        _check_output(args.out)
    rows = []
    failed = False
    for path in args.scenarios:
        name = os.path.basename(path)
        try:
            # only the report is kept, so one run's world is freed before the next
            report = run(_load(path, seed)).report
        except (ScenarioParseError, ScenarioValidationError, _PathError, RunFailedError) as exc:
            rows.append({"scenario": name, "error": str(exc)})
            failed = True
            continue
        runtime_stats = report.latency_ms.get("RUNTIME")
        rows.append(
            {
                "scenario": name,
                "availability": report.availability,
                "p95_runtime_latency_ms": None if runtime_stats is None else runtime_stats.p95,
                "total_reenrollments": report.total_reenrollments,
                "bounce_count": report.bounce_count,
                "maintenance_ms": report.maintenance_ms,
            }
        )
    header = (
        f"{'scenario':<28} {'avail':>7} {'p95 ms':>8} {'reenr':>6} {'bounce':>6} {'maint ms':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        if "error" in row:
            print(f"{row['scenario']:<28} error: {row['error']}")
            continue
        avail = "-" if row["availability"] is None else f"{row['availability']:.4f}"
        p95 = "-" if row["p95_runtime_latency_ms"] is None else str(row["p95_runtime_latency_ms"])
        print(
            f"{row['scenario']:<28} {avail:>7} {p95:>8} "
            f"{row['total_reenrollments']:>6} {row['bounce_count']:>6} {row['maintenance_ms']:>9}"
        )
    if args.out is not None:
        _write_text(args.out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


def _cmd_list_strategies(args: argparse.Namespace) -> int:
    print(f"{'deployment':<12}{'policy':<16}mitigations")
    for pair in dict.fromkeys(key[:2] for key in STRATEGIES):
        rows = {key[2].value: row for key, row in STRATEGIES.items() if key[:2] == pair}
        text = "-" if list(rows) == ["NONE"] else ", ".join(rows)
        if any(row.handshake for row in rows.values()):
            text += " (optional handshake)"
        print(f"{pair[0].value:<12}{pair[1].value:<16}{text}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="versim",
        description="Deterministic simulator for recognition-fleet version-control strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and print the report JSON")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--trace", default=None, help="write the event trace to this file")
    p_run.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True, help="scenario JSON file")
    p_val.set_defaults(fn=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="run several scenarios and tabulate the reports")
    p_cmp.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_cmp.add_argument("--seed", type=int, default=None, help="override every scenario seed")
    p_cmp.add_argument("--out", default=None, help="also write the rows as JSON")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_list = sub.add_parser("list-strategies", help="show supported strategy combinations")
    p_list.set_defaults(fn=_cmd_list_strategies)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except _PathError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RunFailedError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
