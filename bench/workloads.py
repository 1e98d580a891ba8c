"""Scenario generation for the three bench workloads.

Every scenario is a plain dict in the on-disk scenario format, so the program
under test receives only generated inputs. The bench seed picks the scenario
seed; the scenario shapes are fixed, so one seed always yields the same
inputs.
"""

from __future__ import annotations

import random

# The 11 strategy combinations of the acceptance sweep
# (tests/test_acceptance.py::_COMBOS), kept here so the bench imports no test.
COMBOS = [
    ("device-online", {"deployment": "DEVICE"}, ["V1"]),
    ("server-offline", {"policy": "SINGLE_OFFLINE"}, ["V1"]),
    ("server-online-none", {"dispatch": "RANDOM"}, ["V1"]),
    ("server-online-sync", {"mitigation": "SYNC_TABLE", "sync_table_period_ms": 400}, ["V1"]),
    ("server-online-hash", {"mitigation": "HASH_LB"}, ["V1"]),
    ("server-online-multi", {"mitigation": "MULTI_PROFILE", "dispatch": "RANDOM"}, ["V1"]),
    ("server-double", {"policy": "DOUBLE"}, ["V1", "V2"]),
    ("hybrid-single", {"deployment": "HYBRID"}, ["V1"]),
    ("hybrid-single-handshake", {"deployment": "HYBRID", "handshake_period_ms": 600}, ["V1"]),
    ("hybrid-double", {"deployment": "HYBRID", "policy": "DOUBLE"}, ["V1", "V2"]),
    (
        "hybrid-double-handshake",
        {"deployment": "HYBRID", "policy": "DOUBLE", "handshake_period_ms": 600},
        ["V1", "V2"],
    ),
]

# The two combinations that traced-cli runs through the command line.
TRACED = ("server-online-sync", "hybrid-double-handshake")

WORKLOADS = ("rollout-matrix", "large-population", "traced-cli")

_THREE_RELEASES = [
    {"time_ms": t, "version_id": f"R{i + 1}", "server_update_ms": [200, 3000]}
    for i, t in enumerate((4000, 8000, 12000))
]
_ONE_RELEASE = [{"time_ms": 2000, "version_id": "R1", "server_update_ms": [200, 3000]}]


def _scenario(strategy, initial, *, users, devices, rate, releases, seed) -> dict:
    return {
        "strategy": dict(strategy),
        "users": users,
        "devices": devices,
        "cloud_servers": 16,
        "initial_versions": list(initial),
        "releases": releases,
        "runtime_arrivals": {"poisson_rate_per_user_per_s": rate},
        "duration_ms": 20_000,
        "seed": seed,
    }


def _matrix_size(strategy, initial, seed) -> dict:
    return _scenario(
        strategy, initial, users=1000, devices=250, rate=0.5, releases=_THREE_RELEASES, seed=seed
    )


def generate(workload: str, bench_seed: int) -> list[tuple[str, dict]]:
    """(name, scenario dict) pairs for one workload. All scenarios of a
    workload share one scenario seed, so every strategy sees the same users
    and the same arrivals."""
    seed = random.Random(bench_seed).getrandbits(64)
    if workload == "rollout-matrix":
        return [(name, _matrix_size(s, init, seed)) for name, s, init in COMBOS]
    if workload == "large-population":
        return [
            (
                name,
                _scenario(
                    strategy,
                    initial,
                    users=8_000,
                    devices=2_000,
                    rate=0.05,
                    releases=_ONE_RELEASE,
                    seed=seed,
                ),
            )
            for name, strategy, initial in (
                ("server-double", {"policy": "DOUBLE"}, ["V1", "V2"]),
                ("server-offline", {"policy": "SINGLE_OFFLINE"}, ["V1"]),
            )
        ]
    if workload == "traced-cli":
        return [(name, _matrix_size(s, init, seed)) for name, s, init in COMBOS if name in TRACED]
    raise ValueError(f"unknown workload {workload!r}")
