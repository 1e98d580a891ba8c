"""Byte pins for every strategy combination.

The 3 golden traces cover DEVICE, SERVER DOUBLE and SERVER ONLINE only. This
test runs the 11 combinations of the acceptance sweep at two seeds with the
event trace on and compares SHA-256 digests of the report JSON, the trace,
the re-enrollment log and the profile writes against a committed table, so
a refactor that moves one byte or one rng draw in any world fails here.

The wide variant runs the same combinations and seeds at 16 servers and 4
re-enrollment lanes, which the 3-server sweep never reaches: the offline bulk
pass with several lanes, 16-probe sync rounds, and 8-server DOUBLE groups.

The no-row case sends runtime requests at t=0, so their database fetches
arrive before the user's row exists (``db-fetch-reply rows=0``) or before its
first profile; the sweep's first runtime arrival comes long after enrollment.

The edge cases are small runs (4 users, 2 servers, fixed links) that reach
branches no sweep run takes: a DOUBLE enrollment that ends with one leg and
queues the user for the sweep, an offline enrollment refused MAINTENANCE,
SYNC_TABLE job rejections, a release queued behind another, a hybrid
background enrollment already in flight, a hybrid runtime request from a user
with no profile, and an enroll leg skipped because no server serves its
version by the time it reaches the frontend.

Regenerate the table (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_output_digests.py``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from test_acceptance import _COMBOS, _sweep_scenario
from versim.metrics import report_to_json
from versim.runner import run
from versim.scenario import scenario_from_dict

TABLE = Path(__file__).parent / "goldens" / "sweep_digests.json"
SEEDS = (1, 2)
# suffix of the table key -> scenario fields that differ from the sweep
VARIANTS = {"": {}, "/wide": {"cloud_servers": 16, "reenroll_parallelism": 4}}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


NO_ROW_KEY = "server-online-no-row/1"
NO_ROW = {
    "strategy": {"deployment": "SERVER", "policy": "SINGLE_ONLINE"},
    "users": 4,
    "devices": 2,
    "latency": {"device_frontend": {"base_ms": 5, "jitter_ms": 20}},
    "runtime_arrivals": {
        "explicit": [{"time_ms": 0, "user_id": f"u{i:03d}"} for i in range(4)]
    },
    "duration_ms": 2000,
    "seed": 1,
}


EDGE_LATENCY = {
    "device_frontend": {"base_ms": 5, "jitter_ms": 0},
    "frontend_cloud": {"base_ms": 3, "jitter_ms": 0},
    "frontend_db": {"base_ms": 2, "jitter_ms": 0},
}


def _edge(strategy, initial=("V1",), release_times=(1, 2)):
    return {
        "strategy": strategy,
        "users": 4,
        "devices": 2,
        "cloud_servers": 2,
        "latency": EDGE_LATENCY,
        "initial_versions": list(initial),
        "releases": [
            {"time_ms": t, "version_id": f"R{i + 1}", "server_update_ms": [50, 50]}
            for i, t in enumerate(release_times)
        ],
        "runtime_arrivals": {
            "explicit": [
                {"time_ms": t, "user_id": f"u{i % 4:03d}"}
                for i, t in enumerate((0, 30, 60, 200, 400))
            ]
        },
        "duration_ms": 1000,
        "seed": 1,
    }


_HYBRID_DOUBLE = {"deployment": "HYBRID", "policy": "DOUBLE", "handshake_period_ms": 10}
EDGES = {
    "edge-server-double/1": _edge({"policy": "DOUBLE"}, ("V1", "V2")),
    "edge-server-offline/1": _edge({"policy": "SINGLE_OFFLINE"}),
    "edge-server-online-sync/1": _edge({"mitigation": "SYNC_TABLE", "sync_table_period_ms": 20}),
    "edge-hybrid-single-handshake/1": _edge({"deployment": "HYBRID", "handshake_period_ms": 10}),
    "edge-hybrid-double-handshake/1": _edge(_HYBRID_DOUBLE, ("V1", "V2")),
    "edge-hybrid-double-leg-skipped/1": _edge(_HYBRID_DOUBLE, ("V1", "V2"), (1, 56)),
}


def digests(strategy, initial, seed, variant="") -> dict[str, str]:
    scenario = dataclasses.replace(_sweep_scenario(strategy, initial, seed), **VARIANTS[variant])
    return scenario_digests(scenario)


def scenario_digests(scenario) -> dict[str, str]:
    result = run(scenario, trace=True)
    reenrolls = [
        [e.at, e.user_id, e.from_seq, e.to_version.seq, e.to_version.id] for e in result.reenrolls
    ]
    return {
        "report": _sha(report_to_json(result.report)),
        "trace": _sha("\n".join(result.trace)),
        "reenrolls": _sha(json.dumps(reenrolls)),
        "profile_puts": _sha(json.dumps([list(p) for p in result.profile_puts])),
    }


def _all_digests() -> dict[str, dict[str, str]]:
    table = {
        f"{name}/{seed}{variant}": digests(strategy, initial, seed, variant)
        for name, strategy, initial in _COMBOS
        for seed in SEEDS
        for variant in VARIANTS
    }
    table[NO_ROW_KEY] = scenario_digests(scenario_from_dict(NO_ROW))
    for key, data in EDGES.items():
        table[key] = scenario_digests(scenario_from_dict(data))
    return table


@pytest.mark.parametrize("name,strategy,initial", _COMBOS, ids=[c[0] for c in _COMBOS])
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_the_pinned_digests(name, strategy, initial, seed):
    table = json.loads(TABLE.read_text())
    assert digests(strategy, initial, seed) == table[f"{name}/{seed}"]


@pytest.mark.parametrize("name,strategy,initial", _COMBOS, ids=[c[0] for c in _COMBOS])
@pytest.mark.parametrize("seed", SEEDS)
def test_wide_outputs_match_the_pinned_digests(name, strategy, initial, seed):
    table = json.loads(TABLE.read_text())
    assert digests(strategy, initial, seed, "/wide") == table[f"{name}/{seed}/wide"]


def test_no_row_outputs_match_the_pinned_digest():
    table = json.loads(TABLE.read_text())
    assert scenario_digests(scenario_from_dict(NO_ROW)) == table[NO_ROW_KEY]



@pytest.mark.parametrize("key", EDGES)
def test_edge_outputs_match_the_pinned_digests(key):
    table = json.loads(TABLE.read_text())
    assert scenario_digests(scenario_from_dict(EDGES[key])) == table[key]


if __name__ == "__main__":
    TABLE.write_text(json.dumps(_all_digests(), indent=2, sort_keys=True) + "\n")
