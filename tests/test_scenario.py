"""Scenario parsing and the strategy compatibility rules."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import versim.cli as cli
from versim.scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    scenario_from_dict,
)
from versim.strategies import Deployment, Mitigation, UpdatePolicy
from versim.topology import DispatchPolicy


def _base(**overrides):
    data = {
        "strategy": {"deployment": "SERVER", "policy": "SINGLE_ONLINE"},
        "releases": [{"time_ms": 2000, "version_id": "V2"}],
    }
    data.update(overrides)
    return data


def test_empty_object_yields_defaults():
    sc = scenario_from_dict({})
    assert sc.users == 4
    assert sc.devices == 2
    assert sc.cloud_servers == 2
    assert sc.strategy.deployment is Deployment.SERVER
    assert sc.strategy.policy is UpdatePolicy.SINGLE_ONLINE
    assert sc.strategy.dispatch is DispatchPolicy.ROUND_ROBIN
    assert sc.initial_versions == ("V1",)
    assert sc.duration_ms == 10_000
    assert sc.latency.device_frontend.base_ms == 5


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioValidationError, match="unknown keys"):
        scenario_from_dict({"user_count": 4})


def test_unknown_strategy_key_rejected():
    with pytest.raises(ScenarioValidationError, match="strategy"):
        scenario_from_dict({"strategy": {"deploy": "SERVER"}})


def test_bad_enum_value_lists_choices():
    with pytest.raises(ScenarioValidationError, match="SERVER"):
        scenario_from_dict({"strategy": {"deployment": "MAINFRAME"}})


def test_device_deployment_rejects_offline_policy():
    with pytest.raises(ScenarioValidationError, match="SINGLE_ONLINE only"):
        scenario_from_dict(
            {"strategy": {"deployment": "DEVICE", "policy": "SINGLE_OFFLINE"}}
        )


def test_device_deployment_rejects_mitigation():
    with pytest.raises(ScenarioValidationError, match="no mitigation"):
        scenario_from_dict(
            {"strategy": {"deployment": "DEVICE", "mitigation": "HASH_LB"}}
        )


def test_offline_policy_is_server_only():
    with pytest.raises(ScenarioValidationError, match="SERVER"):
        scenario_from_dict(
            {"strategy": {"deployment": "HYBRID", "policy": "SINGLE_OFFLINE"}}
        )


def test_double_needs_two_initial_versions():
    with pytest.raises(ScenarioValidationError, match="exactly 2 initial"):
        scenario_from_dict({"strategy": {"policy": "DOUBLE"}})


def test_double_needs_two_servers():
    with pytest.raises(ScenarioValidationError, match="at least 2 servers"):
        scenario_from_dict(
            {
                "strategy": {"policy": "DOUBLE"},
                "initial_versions": ["V1", "V2"],
                "cloud_servers": 1,
            }
        )


def test_double_accepts_server_and_hybrid():
    for deployment in ("SERVER", "HYBRID"):
        sc = scenario_from_dict(
            {
                "strategy": {"deployment": deployment, "policy": "DOUBLE"},
                "initial_versions": ["V1", "V2"],
            }
        )
        assert sc.strategy.policy is UpdatePolicy.DOUBLE


def test_single_policies_need_one_initial_version():
    with pytest.raises(ScenarioValidationError, match="exactly 1 initial"):
        scenario_from_dict({"initial_versions": ["V1", "V2"]})


def test_mitigations_limited_to_online_server():
    with pytest.raises(ScenarioValidationError, match="SERVER SINGLE_ONLINE only"):
        scenario_from_dict(
            {"strategy": {"deployment": "HYBRID", "mitigation": "SYNC_TABLE"}}
        )


def test_hash_lb_defaults_dispatch_to_hash():
    sc = scenario_from_dict({"strategy": {"mitigation": "HASH_LB"}})
    assert sc.strategy.dispatch is DispatchPolicy.HASH_BY_USER


def test_hash_lb_rejects_other_dispatch():
    with pytest.raises(ScenarioValidationError, match="HASH_BY_USER"):
        scenario_from_dict(
            {"strategy": {"mitigation": "HASH_LB", "dispatch": "RANDOM"}}
        )


def test_handshake_is_hybrid_only():
    with pytest.raises(ScenarioValidationError, match="HYBRID"):
        scenario_from_dict({"strategy": {"handshake_period_ms": 500}})
    sc = scenario_from_dict(
        {"strategy": {"deployment": "HYBRID", "handshake_period_ms": 500}}
    )
    assert sc.strategy.handshake_period_ms == 500


def test_sync_table_period_default():
    sc = scenario_from_dict({"strategy": {"mitigation": "SYNC_TABLE"}})
    assert sc.strategy.mitigation is Mitigation.SYNC_TABLE
    assert sc.strategy.sync_table_period_ms == 1000


def test_releases_must_be_time_sorted():
    with pytest.raises(ScenarioValidationError, match="sorted"):
        scenario_from_dict(
            {
                "releases": [
                    {"time_ms": 5000, "version_id": "V2"},
                    {"time_ms": 2000, "version_id": "V3"},
                ]
            }
        )


def test_version_ids_unique_across_initial_and_releases():
    with pytest.raises(ScenarioValidationError, match="unique"):
        scenario_from_dict(_base(releases=[{"time_ms": 100, "version_id": "V1"}]))


def test_release_update_range_ordering():
    with pytest.raises(ScenarioValidationError, match="min <= max"):
        scenario_from_dict(
            _base(releases=[{"time_ms": 100, "version_id": "V2", "server_update_ms": [300, 200]}])
        )


def test_seed_bounds():
    assert scenario_from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1
    with pytest.raises(ScenarioValidationError, match="64-bit"):
        scenario_from_dict({"seed": 2**64})
    with pytest.raises(ScenarioValidationError, match="64-bit"):
        scenario_from_dict({"seed": -1})


def test_exactly_one_arrival_mode():
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        scenario_from_dict(
            {
                "runtime_arrivals": {
                    "poisson_rate_per_user_per_s": 0.5,
                    "explicit": [],
                }
            }
        )
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        scenario_from_dict({"runtime_arrivals": {}})


def test_explicit_arrivals_check_user_ids():
    with pytest.raises(ScenarioValidationError, match="unknown user"):
        scenario_from_dict(
            {
                "users": 2,
                "runtime_arrivals": {
                    "explicit": [{"time_ms": 100, "user_id": "u009"}]
                },
            }
        )


def test_explicit_arrivals_are_sorted_on_load():
    sc = scenario_from_dict(
        {
            "runtime_arrivals": {
                "explicit": [
                    {"time_ms": 500, "user_id": "u001"},
                    {"time_ms": 100, "user_id": "u000"},
                    {"time_ms": 500, "user_id": "u000"},
                ]
            }
        }
    )
    order = [(a.time_ms, a.user_id) for a in sc.runtime_arrivals.explicit]
    assert order == [(100, "u000"), (500, "u000"), (500, "u001")]


def test_latency_wants_object_form():
    with pytest.raises(ScenarioValidationError, match="latency.device_frontend"):
        scenario_from_dict({"latency": {"device_frontend": [4, 0]}})
    sc = scenario_from_dict(
        {"latency": {"device_frontend": {"base_ms": 4, "jitter_ms": 2}}}
    )
    assert sc.latency.device_frontend.base_ms == 4
    assert sc.latency.device_frontend.jitter_ms == 2


def test_scenario_is_frozen():
    sc = scenario_from_dict({})
    with pytest.raises(AttributeError):
        sc.users = 9


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"users": 4,,}\n', encoding="utf-8")
    with pytest.raises(ScenarioParseError, match=r"line 1 column 13"):
        load_scenario(path)


def test_load_scenario_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ScenarioValidationError, match="top level"):
        load_scenario(path)


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_base()), encoding="utf-8")
    sc = load_scenario(path)
    assert isinstance(sc, Scenario)
    assert sc.releases[0].version_id == "V2"


@pytest.mark.parametrize(
    "data, field_name",
    [
        ({"latency": {"device_frontend": 5}}, "latency.device_frontend"),
        ({"releases": [5]}, "releases[0]"),
        ({"runtime_arrivals": {"explicit": 3}}, "runtime_arrivals.explicit"),
        ({"strategy": "SERVER"}, "strategy"),
        (
            {"releases": [{"time_ms": 100, "version_id": "V2", "server_update_ms": [True, 5]}]},
            "releases[0].server_update_ms",
        ),
        (
            {"runtime_arrivals": {"explicit": [{"time_ms": 100, "user_id": ["u000"]}]}},
            "runtime_arrivals.explicit[0].user_id",
        ),
        (
            {"strategy": {"deployment": "HYBRID", "handshake_period_ms": True}},
            "strategy.handshake_period_ms",
        ),
        (
            {"strategy": {"mitigation": "SYNC_TABLE", "sync_table_period_ms": True}},
            "strategy.sync_table_period_ms",
        ),
        (
            {"runtime_arrivals": {"poisson_rate_per_user_per_s": float("inf")}},
            "runtime_arrivals.poisson_rate_per_user_per_s",
        ),
    ],
)
def test_wrongly_shaped_field_is_named_and_exits_2(data, field_name, tmp_path, capsys):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(data)
    assert str(err.value).startswith(f"{field_name}: ")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert f"scenario error: {field_name}: " in capsys.readouterr().err


# -- the parser on arbitrary input: a Scenario or a ScenarioValidationError,
# never any other exception

SCENARIO_FILES = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


def _children(node):
    if isinstance(node, dict):
        return node.items()
    return enumerate(node) if isinstance(node, list) else ()


def _paths(node, prefix=()):
    """Every position below the top of a JSON value, as a key/index path."""
    for key, child in _children(node):
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# the keys the parser knows, so that drawn objects get past its key checks:
# every key the scenario files use, and the optional ones they leave out
_KEYS = sorted(
    {
        path[-1]
        for file in SCENARIO_FILES
        for path in _paths(json.loads(file.read_text()))
        if isinstance(path[-1], str)
    }
    | {"devices", "samples_per_user", "enroll_cost_ms_per_sample", "runtime_cost_ms"}
    | {"reenroll_parallelism", "download_ms", "poisson_rate_per_user_per_s", "seed"}
)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=6), inner, max_size=4),
    max_leaves=6,
)


def _parses_or_names_a_field(data) -> None:
    try:
        scenario = scenario_from_dict(data)
    except ScenarioValidationError:
        return
    assert isinstance(scenario, Scenario)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=6), _json, max_size=6))
def test_parser_takes_any_json_object(data):
    _parses_or_names_a_field(data)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parser_takes_a_valid_file_with_one_field_replaced(data):
    path = data.draw(st.sampled_from(SCENARIO_FILES))
    scenario = json.loads(path.read_text())
    where = data.draw(st.sampled_from(list(_paths(scenario))))
    node = scenario
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = data.draw(_json)
    _parses_or_names_a_field(scenario)


def test_explicit_user_ids_are_checked_without_listing_every_user():
    # a scenario may declare any number of users; the check must not build
    # a set of all their ids
    arrival = {"time_ms": 0, "user_id": "u999999999999"}
    sc = scenario_from_dict({"users": 10**12, "runtime_arrivals": {"explicit": [arrival]}})
    assert sc.runtime_arrivals.explicit[0].user_id == "u999999999999"
    arrival["user_id"] = "u1000000000000"
    with pytest.raises(ScenarioValidationError, match="unknown user 'u1000000000000'"):
        scenario_from_dict({"users": 10**12, "runtime_arrivals": {"explicit": [arrival]}})
