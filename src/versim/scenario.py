"""Scenario files: the single input that, together with a seed, fully
determines a run.

The on-disk form is JSON with alphabetical keys. Unknown keys are rejected at
every level so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .domain import SimulationError
from .kernel import LatencyModel
from .strategies.common import Deployment, Mitigation, StrategyConfig, UpdatePolicy
from .topology import DispatchPolicy


class ScenarioParseError(SimulationError):
    pass


class ScenarioValidationError(SimulationError):
    pass


@dataclass(frozen=True, slots=True)
class ReleaseSpec:
    time_ms: int
    version_id: str
    download_ms: int = 1000
    server_update_ms: tuple[int, int] = (200, 200)


@dataclass(frozen=True, slots=True)
class ExplicitArrival:
    time_ms: int
    user_id: str


@dataclass(frozen=True, slots=True)
class ArrivalSpec:
    poisson_rate_per_user_per_s: float | None = None
    explicit: tuple[ExplicitArrival, ...] | None = None


@dataclass(frozen=True, slots=True)
class LinkLatencies:
    device_frontend: LatencyModel = LatencyModel(5, 0)
    device_storage: LatencyModel = LatencyModel(5, 0)
    frontend_cloud: LatencyModel = LatencyModel(2, 0)
    frontend_db: LatencyModel = LatencyModel(1, 0)


@dataclass(frozen=True, slots=True)
class Scenario:
    strategy: StrategyConfig = StrategyConfig(
        deployment=Deployment.SERVER, policy=UpdatePolicy.SINGLE_ONLINE
    )
    users: int = 4
    devices: int = 2
    cloud_servers: int = 2
    samples_per_user: int = 3
    enroll_cost_ms_per_sample: int = 10
    runtime_cost_ms: int = 5
    latency: LinkLatencies = field(default_factory=LinkLatencies)
    initial_versions: tuple[str, ...] = ("V1",)
    releases: tuple[ReleaseSpec, ...] = ()
    runtime_arrivals: ArrivalSpec = ArrivalSpec(poisson_rate_per_user_per_s=0.5)
    duration_ms: int = 10_000
    seed: int = 1
    reenroll_parallelism: int = 1


def _fail(field_name: str, constraint: str) -> None:
    raise ScenarioValidationError(f"{field_name}: {constraint}")


def check_seed(seed: object, name: str) -> int:
    """``seed`` if it is an unsigned 64-bit integer, the one rule for a seed
    from a file or from the command line; ``name`` says where it came from."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        _fail(name, "must be an unsigned 64-bit integer")
    return seed


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        _fail(where, "must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        _fail(where, f"unknown keys {unknown}")


def _as_int(obj: dict, key: str, default: int, where: str, minimum: int = 0) -> int:
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"{where}.{key}" if where else key, "must be an integer")
    if value < minimum:
        _fail(f"{where}.{key}" if where else key, f"must be >= {minimum}")
    return value


def _is_user_id(user: object, users: int) -> bool:
    """Whether ``user`` is one of u000 .. u{users - 1:03d}, checked without
    building that set, since a scenario may declare any number of users."""
    digits = user[1:] if isinstance(user, str) and user[:1] == "u" else ""
    if not (digits.isascii() and digits.isdigit()) or len(digits) > 4000:
        return False
    return int(digits) < users and f"u{int(digits):03d}" == user


def _parse_latency(obj: dict) -> LinkLatencies:
    _require_keys(
        obj,
        {"device_frontend", "device_storage", "frontend_cloud", "frontend_db"},
        "latency",
    )
    defaults = LinkLatencies()
    links = {}
    for name in ("device_frontend", "device_storage", "frontend_cloud", "frontend_db"):
        raw = obj.get(name)
        if raw is None:
            links[name] = getattr(defaults, name)
            continue
        _require_keys(raw, {"base_ms", "jitter_ms"}, f"latency.{name}")
        links[name] = LatencyModel(
            base_ms=_as_int(raw, "base_ms", 0, f"latency.{name}"),
            jitter_ms=_as_int(raw, "jitter_ms", 0, f"latency.{name}"),
        )
    return LinkLatencies(**links)


def _parse_strategy(obj: dict) -> StrategyConfig:
    _require_keys(
        obj,
        {
            "deployment",
            "policy",
            "mitigation",
            "dispatch",
            "handshake_period_ms",
            "sync_table_period_ms",
        },
        "strategy",
    )

    def _enum(enum_cls, key, default):
        raw = obj.get(key, default)
        try:
            return enum_cls(raw)
        except ValueError:
            _fail(f"strategy.{key}", f"must be one of {[e.value for e in enum_cls]}")

    deployment = _enum(Deployment, "deployment", "SERVER")
    policy = _enum(UpdatePolicy, "policy", "SINGLE_ONLINE")
    mitigation = _enum(Mitigation, "mitigation", "NONE")
    if "dispatch" in obj:
        dispatch = _enum(DispatchPolicy, "dispatch", "ROUND_ROBIN")
    else:
        dispatch = (
            DispatchPolicy.HASH_BY_USER
            if mitigation is Mitigation.HASH_LB
            else DispatchPolicy.ROUND_ROBIN
        )

    handshake = obj.get("handshake_period_ms")
    if handshake is not None and (
        not isinstance(handshake, int) or isinstance(handshake, bool) or handshake < 1
    ):
        _fail("strategy.handshake_period_ms", "must be null or a positive integer")
    sync_period = obj.get("sync_table_period_ms", 1000)
    if not isinstance(sync_period, int) or isinstance(sync_period, bool) or sync_period < 1:
        _fail("strategy.sync_table_period_ms", "must be a positive integer")

    return StrategyConfig(
        deployment=deployment,
        policy=policy,
        mitigation=mitigation,
        dispatch=dispatch,
        handshake_period_ms=handshake,
        sync_table_period_ms=sync_period,
    )


def _validate_strategy(cfg: StrategyConfig, sc: Scenario) -> None:
    if cfg.deployment is Deployment.DEVICE:
        if cfg.policy is not UpdatePolicy.SINGLE_ONLINE:
            _fail("strategy.policy", "DEVICE deployment supports SINGLE_ONLINE only")
        if cfg.mitigation is not Mitigation.NONE:
            _fail("strategy.mitigation", "DEVICE deployment admits no mitigation")
        if cfg.handshake_period_ms is not None:
            _fail("strategy.handshake_period_ms", "only HYBRID deployments handshake")
    if cfg.policy is UpdatePolicy.SINGLE_OFFLINE:
        if cfg.deployment is not Deployment.SERVER:
            _fail("strategy.policy", "SINGLE_OFFLINE is a SERVER deployment policy")
        if cfg.mitigation is not Mitigation.NONE:
            _fail("strategy.mitigation", "SINGLE_OFFLINE admits no mitigation")
    if cfg.policy is UpdatePolicy.DOUBLE:
        if cfg.deployment is Deployment.DEVICE:
            _fail("strategy.policy", "DOUBLE requires SERVER or HYBRID deployment")
        if cfg.mitigation is not Mitigation.NONE:
            _fail("strategy.mitigation", "DOUBLE admits no mitigation")
        if sc.cloud_servers < 2:
            _fail("cloud_servers", "DOUBLE policy needs at least 2 servers")
        if len(sc.initial_versions) != 2:
            _fail("initial_versions", "DOUBLE policy needs exactly 2 initial versions")
    else:
        if len(sc.initial_versions) != 1:
            _fail("initial_versions", "single-version policies need exactly 1 initial version")
    if cfg.mitigation is not Mitigation.NONE:
        if cfg.deployment is not Deployment.SERVER or cfg.policy is not UpdatePolicy.SINGLE_ONLINE:
            _fail("strategy.mitigation", "mitigations apply to SERVER SINGLE_ONLINE only")
    if cfg.mitigation is Mitigation.HASH_LB and cfg.dispatch is not DispatchPolicy.HASH_BY_USER:
        _fail("strategy.dispatch", "HASH_LB mitigation requires HASH_BY_USER dispatch")
    if cfg.handshake_period_ms is not None and cfg.deployment is not Deployment.HYBRID:
        _fail("strategy.handshake_period_ms", "only HYBRID deployments handshake")


def scenario_from_dict(data: dict) -> Scenario:
    _require_keys(
        data,
        {
            "cloud_servers",
            "devices",
            "duration_ms",
            "enroll_cost_ms_per_sample",
            "initial_versions",
            "latency",
            "reenroll_parallelism",
            "releases",
            "runtime_arrivals",
            "runtime_cost_ms",
            "samples_per_user",
            "seed",
            "strategy",
            "users",
        },
        "scenario",
    )

    users = _as_int(data, "users", 4, "", minimum=1)
    devices = _as_int(data, "devices", 2, "", minimum=1)
    cloud_servers = _as_int(data, "cloud_servers", 2, "", minimum=1)
    samples = _as_int(data, "samples_per_user", 3, "", minimum=1)
    enroll_cost = _as_int(data, "enroll_cost_ms_per_sample", 10, "")
    runtime_cost = _as_int(data, "runtime_cost_ms", 5, "")
    duration = _as_int(data, "duration_ms", 10_000, "", minimum=1)
    parallelism = _as_int(data, "reenroll_parallelism", 1, "", minimum=1)
    seed = check_seed(data.get("seed", 1), "seed")

    initial = data.get("initial_versions", ["V1"])
    if (
        not isinstance(initial, list)
        or not initial
        or not all(isinstance(v, str) and v for v in initial)
    ):
        _fail("initial_versions", "must be a non-empty list of version id strings")

    raw_releases = data.get("releases", [])
    if not isinstance(raw_releases, list):
        _fail("releases", "must be a list")
    releases = []
    for i, raw in enumerate(raw_releases):
        where = f"releases[{i}]"
        _require_keys(raw, {"download_ms", "server_update_ms", "time_ms", "version_id"}, where)
        if "time_ms" not in raw or "version_id" not in raw:
            _fail(where, "time_ms and version_id are required")
        version_id = raw["version_id"]
        if not isinstance(version_id, str) or not version_id:
            _fail(f"{where}.version_id", "must be a non-empty string")
        update_raw = raw.get("server_update_ms", [200, 200])
        if (
            not isinstance(update_raw, list)
            or len(update_raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in update_raw)
            or not 0 <= update_raw[0] <= update_raw[1]
        ):
            _fail(f"{where}.server_update_ms", "must be [min_ms, max_ms] with 0 <= min <= max")
        releases.append(
            ReleaseSpec(
                time_ms=_as_int(raw, "time_ms", 0, where),
                version_id=version_id,
                download_ms=_as_int(raw, "download_ms", 1000, where, minimum=1),
                server_update_ms=(update_raw[0], update_raw[1]),
            )
        )
    for a, b in zip(releases, releases[1:]):
        if b.time_ms < a.time_ms:
            _fail("releases", "must be sorted by time_ms")
    all_versions = list(initial) + [r.version_id for r in releases]
    if len(set(all_versions)) != len(all_versions):
        _fail("releases", "version ids must be unique across initial versions and releases")

    raw_arrivals = data.get("runtime_arrivals", {"poisson_rate_per_user_per_s": 0.5})
    _require_keys(raw_arrivals, {"poisson_rate_per_user_per_s", "explicit"}, "runtime_arrivals")
    if ("poisson_rate_per_user_per_s" in raw_arrivals) == ("explicit" in raw_arrivals):
        _fail("runtime_arrivals", "give exactly one of poisson_rate_per_user_per_s or explicit")
    if "poisson_rate_per_user_per_s" in raw_arrivals:
        rate = raw_arrivals["poisson_rate_per_user_per_s"]
        if (
            not isinstance(rate, (int, float))
            or isinstance(rate, bool)
            or not math.isfinite(rate)
            or rate <= 0
        ):
            _fail("runtime_arrivals.poisson_rate_per_user_per_s", "must be a positive finite number")
        arrivals = ArrivalSpec(poisson_rate_per_user_per_s=float(rate))
    else:
        raw_explicit = raw_arrivals["explicit"]
        if not isinstance(raw_explicit, list):
            _fail("runtime_arrivals.explicit", "must be a list")
        explicit = []
        for i, raw in enumerate(raw_explicit):
            where = f"runtime_arrivals.explicit[{i}]"
            _require_keys(raw, {"time_ms", "user_id"}, where)
            t = _as_int(raw, "time_ms", 0, where)
            user = raw.get("user_id")
            if not _is_user_id(user, users):
                _fail(f"{where}.user_id", f"unknown user {user!r} (users are u000..u{users - 1:03d})")
            explicit.append(ExplicitArrival(time_ms=t, user_id=user))
        explicit.sort(key=lambda a: (a.time_ms, a.user_id))
        arrivals = ArrivalSpec(explicit=tuple(explicit))

    scenario = Scenario(
        strategy=_parse_strategy(data.get("strategy", {})),
        users=users,
        devices=devices,
        cloud_servers=cloud_servers,
        samples_per_user=samples,
        enroll_cost_ms_per_sample=enroll_cost,
        runtime_cost_ms=runtime_cost,
        latency=_parse_latency(data.get("latency", {})),
        initial_versions=tuple(initial),
        releases=tuple(releases),
        runtime_arrivals=arrivals,
        duration_ms=duration,
        seed=seed,
        reenroll_parallelism=parallelism,
    )
    _validate_strategy(scenario.strategy, scenario)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ScenarioParseError(f"{path}: not UTF-8 text (byte {err.start})") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise ScenarioValidationError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(data)
