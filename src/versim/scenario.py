"""Scenario files: the single input that, together with a seed, fully
determines a run.

The on-disk form is JSON with alphabetical keys. Each level's keys are the
fields of one dataclass below, and an absent key takes the field's default.
Unknown keys are rejected at every level so a typo cannot silently fall back
to a default. ``STRATEGIES`` is the one list of supported strategies: the
validator, ``runner.build`` and ``versim list-strategies`` all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, NoReturn

from .domain import SimulationError
from .kernel import LatencyModel
from .strategies.common import Deployment, Mitigation, StrategyConfig, UpdatePolicy, WorldBase
from .strategies.device import DeviceWorld
from .strategies.hybrid import HybridDoubleWorld, HybridSingleWorld
from .strategies.server import (
    DoubleServerWorld,
    MultiProfileServerWorld,
    OfflineServerWorld,
    OnlineServerWorld,
    SyncTableServerWorld,
)
from .topology import DispatchPolicy


class ScenarioParseError(SimulationError):
    pass


class ScenarioValidationError(SimulationError):
    pass


@dataclass(frozen=True, slots=True)
class StrategyRow:
    """A supported strategy: the world that runs it, the dispatch policies it
    admits (the first is the default), and whether its devices may handshake."""

    world: type[WorldBase]
    dispatch: tuple[DispatchPolicy, ...] = tuple(DispatchPolicy)
    handshake: bool = False


_D, _P, _M = Deployment, UpdatePolicy, Mitigation
# a hash pick need not serve the version a request needs: under DOUBLE or
# SYNC_TABLE the run would die on it
_UNHASHED = (DispatchPolicy.ROUND_ROBIN, DispatchPolicy.RANDOM)

# every supported (deployment, policy, mitigation), in list-strategies order
STRATEGIES: dict[tuple[Deployment, UpdatePolicy, Mitigation], StrategyRow] = {
    (_D.DEVICE, _P.SINGLE_ONLINE, _M.NONE): StrategyRow(DeviceWorld),
    (_D.SERVER, _P.SINGLE_OFFLINE, _M.NONE): StrategyRow(OfflineServerWorld),
    (_D.SERVER, _P.SINGLE_ONLINE, _M.NONE): StrategyRow(OnlineServerWorld),
    (_D.SERVER, _P.SINGLE_ONLINE, _M.SYNC_TABLE): StrategyRow(SyncTableServerWorld, _UNHASHED),
    (_D.SERVER, _P.SINGLE_ONLINE, _M.HASH_LB): StrategyRow(
        OnlineServerWorld, (DispatchPolicy.HASH_BY_USER,)
    ),
    (_D.SERVER, _P.SINGLE_ONLINE, _M.MULTI_PROFILE): StrategyRow(MultiProfileServerWorld),
    (_D.SERVER, _P.DOUBLE, _M.NONE): StrategyRow(DoubleServerWorld, _UNHASHED),
    (_D.HYBRID, _P.SINGLE_ONLINE, _M.NONE): StrategyRow(HybridSingleWorld, handshake=True),
    (_D.HYBRID, _P.DOUBLE, _M.NONE): StrategyRow(HybridDoubleWorld, _UNHASHED, handshake=True),
}


@dataclass(frozen=True, slots=True)
class ReleaseSpec:
    time_ms: int
    version_id: str
    download_ms: int = 1000
    server_update_ms: tuple[int, int] = (200, 200)


@dataclass(frozen=True, slots=True)
class ExplicitArrival:
    user_id: str
    time_ms: int = 0


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
    strategy: StrategyConfig = StrategyConfig()
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


_DEFAULT = Scenario()

# the least value of every integer key, at any level of the file; the seed
# has its own rule (check_seed), and a key whose default is None may be null
_MINIMUM = {
    "base_ms": 0,
    "cloud_servers": 1,
    "devices": 1,
    "download_ms": 1,
    "duration_ms": 1,
    "enroll_cost_ms_per_sample": 0,
    "handshake_period_ms": 1,
    "jitter_ms": 0,
    "reenroll_parallelism": 1,
    "runtime_cost_ms": 0,
    "samples_per_user": 1,
    "sync_table_period_ms": 1,
    "time_ms": 0,
    "users": 1,
}
# the most of an integer key: a runtime arrival packs the user's rank in 32 bits,
# and a node's stream index (its kind's base + i) stays below the next kind's base
_MAXIMUM = {"cloud_servers": 4080, "devices": 61_440, "users": 2**32 - 1}

# Poisson arrival rates per user per second. Above one request per user per
# millisecond, the clock's resolution, gaps truncate to 0 ms (from about
# 36,737 all of them, so the workload never ends); far lower, a gap overflows.
_RATES = (1e-9, 1000)


def _fail(field_name: str, constraint: str) -> NoReturn:
    raise ScenarioValidationError(f"{field_name}: {constraint}")


def check_seed(seed: object, name: str) -> int:
    """``seed`` if it is an unsigned 64-bit integer, the one rule for a seed
    from a file or from the command line; ``name`` says where it came from."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        _fail(name, "must be an unsigned 64-bit integer")
    return seed


def _given(obj: object, cls: type, where: str) -> dict:
    """The keys ``obj`` gives, each a field of the dataclass ``cls``: integers
    checked against ``_MINIMUM`` and ``_MAXIMUM``, enum members looked up by
    value, other values as they are. An absent key is left to the field's
    default."""
    names = {f.name for f in fields(cls)}
    if not isinstance(obj, dict):
        _fail(where or "scenario", "must be an object")
    if set(obj) - names:
        _fail(where or "scenario", f"unknown keys {sorted(set(obj) - names)}")
    given = {}
    for f in fields(cls):
        if f.name not in obj:
            continue
        name, value = f"{where}.{f.name}" if where else f.name, obj[f.name]
        if f.name in _MINIMUM and not (value is None and f.default is None):
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(name, "must be an integer")
            if value < _MINIMUM[f.name]:
                _fail(name, f"must be >= {_MINIMUM[f.name]}")
            if f.name in _MAXIMUM and value > _MAXIMUM[f.name]:
                _fail(name, f"must be <= {_MAXIMUM[f.name]}")
        elif isinstance(f.default, Enum):
            try:
                value = type(f.default)(value)
            except ValueError:
                _fail(name, f"must be one of {[e.value for e in type(f.default)]}")
        given[f.name] = value
    return given


def _check_version_id(version_id: str, name: str) -> None:
    """A version id is printed in trace summaries (``version=V2``,
    ``serves=V1,V2``), so it must print as one token there: printable, with
    no whitespace and no comma."""
    if not version_id.isprintable() or any(c.isspace() or c == "," for c in version_id):
        _fail(name, "must be printable, with no whitespace and no comma")


def _check_user_id(user: object, users: int, name: str) -> None:
    """Fail unless ``user`` is one of u000 .. u{users - 1:03d}, checked
    without building that set, since a scenario may declare any number of users."""
    digits = user[1:] if isinstance(user, str) and user[:1] == "u" else ""
    well_formed = digits.isascii() and digits.isdigit() and len(digits) <= 4000
    if not (well_formed and int(digits) < users and f"u{int(digits):03d}" == user):
        _fail(name, f"unknown user {user!r} (users are u000..u{users - 1:03d})")


def _parse_latency(obj: object) -> LinkLatencies:
    return LinkLatencies(
        **{
            name: LatencyModel(**_given(raw, LatencyModel, f"latency.{name}"))
            for name, raw in _given(obj, LinkLatencies, "latency").items()
            # a null link keeps its default
            if raw is not None
        }
    )


def _join(values: Iterable[str]) -> str:
    """The distinct ``values`` in first-seen order, comma-separated."""
    return ", ".join(dict.fromkeys(values))


def strategy_label(cfg: StrategyConfig) -> str:
    """DEPLOYMENT/POLICY, plus /MITIGATION when there is one."""
    parts = [cfg.deployment, cfg.policy, cfg.mitigation]
    return "/".join(e.value for e in parts if e is not Mitigation.NONE)


def strategy_row(cfg: StrategyConfig) -> StrategyRow:
    """The row of ``cfg`` in ``STRATEGIES``. Without one, the policy is at
    fault if no row pairs it with the deployment, else the mitigation."""
    d, p, m = key = (cfg.deployment, cfg.policy, cfg.mitigation)
    if key in STRATEGIES:
        return STRATEGIES[key]
    if not any(row[:2] == (d, p) for row in STRATEGIES):
        policies = _join(row[1].value for row in STRATEGIES if row[0] is d)
        deployments = _join(row[0].value for row in STRATEGIES if row[1] is p)
        _fail(
            "strategy.policy",
            f"{d.value} deployment supports {policies} only; "
            f"{p.value} runs on {deployments} only",
        )
    mitigations = _join(
        row[2].value for row in STRATEGIES if row[:2] == (d, p) and row[2] is not Mitigation.NONE
    )
    pairs = _join(f"{row[0].value} {row[1].value}" for row in STRATEGIES if row[2] is m)
    _fail(
        "strategy.mitigation",
        f"{d.value} {p.value} admits {mitigations or 'no mitigation'}; "
        f"{m.value} applies to {pairs} only",
    )


def _parse_strategy(obj: object) -> StrategyConfig:
    given = _given(obj, StrategyConfig, "strategy")
    cfg = StrategyConfig(**given)
    row = strategy_row(cfg)
    return cfg if "dispatch" in given else replace(cfg, dispatch=row.dispatch[0])


def _parse_releases(raw_releases: object) -> tuple[ReleaseSpec, ...]:
    if not isinstance(raw_releases, list):
        _fail("releases", "must be a list")
    releases = []
    for i, raw in enumerate(raw_releases):
        where = f"releases[{i}]"
        given = _given(raw, ReleaseSpec, where)
        if "time_ms" not in given or "version_id" not in given:
            _fail(where, "time_ms and version_id are required")
        version_id = given["version_id"]
        if not isinstance(version_id, str) or not version_id:
            _fail(f"{where}.version_id", "must be a non-empty string")
        _check_version_id(version_id, f"{where}.version_id")
        if "server_update_ms" in given:
            update = given["server_update_ms"]
            if (
                not isinstance(update, list)
                or len(update) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in update)
                or not 0 <= update[0] <= update[1]
            ):
                _fail(f"{where}.server_update_ms", "must be [min_ms, max_ms] with 0 <= min <= max")
            given["server_update_ms"] = tuple(update)
        releases.append(ReleaseSpec(**given))
    for a, b in zip(releases, releases[1:]):
        if b.time_ms < a.time_ms:
            _fail("releases", "must be sorted by time_ms")
    return tuple(releases)


def _parse_arrivals(obj: object, users: int) -> ArrivalSpec:
    given = _given(obj, ArrivalSpec, "runtime_arrivals")
    if len(given) != 1:
        _fail("runtime_arrivals", "give exactly one of poisson_rate_per_user_per_s or explicit")
    if "poisson_rate_per_user_per_s" in given:
        rate, (low, high) = given["poisson_rate_per_user_per_s"], _RATES
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not low <= rate <= high:
            name = "runtime_arrivals.poisson_rate_per_user_per_s"
            _fail(name, f"must be a number in [{low:g}, {high:g}]")
        return ArrivalSpec(poisson_rate_per_user_per_s=float(rate))
    raw_explicit = given["explicit"]
    if not isinstance(raw_explicit, list):
        _fail("runtime_arrivals.explicit", "must be a list")
    explicit = []
    for i, raw in enumerate(raw_explicit):
        where = f"runtime_arrivals.explicit[{i}]"
        arrival = _given(raw, ExplicitArrival, where)
        _check_user_id(arrival.get("user_id"), users, f"{where}.user_id")
        explicit.append(ExplicitArrival(**arrival))
    explicit.sort(key=lambda a: (a.time_ms, a.user_id))
    return ArrivalSpec(explicit=tuple(explicit))


def validate(sc: Scenario) -> None:
    """The rules that tie fields of different levels together.
    ``scenario_from_dict`` applies them to what it parses, and
    ``runner.build`` to every scenario it runs, so a ``Scenario`` made or
    changed in code (``dataclasses.replace``) is held to them too."""
    cfg = sc.strategy
    row = strategy_row(cfg)
    if cfg.dispatch not in row.dispatch:
        dispatch = _join(d.value for d in row.dispatch)
        _fail("strategy.dispatch", f"{strategy_label(cfg)} admits {dispatch} dispatch only")
    if cfg.handshake_period_ms is not None and not row.handshake:
        deployments = _join(d.value for (d, _, _), r in STRATEGIES.items() if r.handshake)
        _fail("strategy.handshake_period_ms", f"only {deployments} deployments handshake")
    for i, arrival in enumerate(sc.runtime_arrivals.explicit or ()):
        _check_user_id(arrival.user_id, sc.users, f"runtime_arrivals.explicit[{i}].user_id")
    all_versions = sc.initial_versions + tuple(r.version_id for r in sc.releases)
    if len(set(all_versions)) != len(all_versions):
        _fail("releases", "version ids must be unique across initial versions and releases")
    if sc.strategy.policy is UpdatePolicy.DOUBLE:
        if sc.cloud_servers < 2:
            _fail("cloud_servers", "DOUBLE policy needs at least 2 servers")
        if len(sc.initial_versions) != 2:
            _fail("initial_versions", "DOUBLE policy needs exactly 2 initial versions")
    elif len(sc.initial_versions) != 1:
        _fail("initial_versions", "single-version policies need exactly 1 initial version")


def scenario_from_dict(data: dict) -> Scenario:
    given = _given(data, Scenario, "")
    if "seed" in given:
        check_seed(given["seed"], "seed")
    if "initial_versions" in given:
        initial = given["initial_versions"]
        if (
            not isinstance(initial, list)
            or not initial
            or not all(isinstance(v, str) and v for v in initial)
        ):
            _fail("initial_versions", "must be a non-empty list of version id strings")
        for i, version_id in enumerate(initial):
            _check_version_id(version_id, f"initial_versions[{i}]")
        given["initial_versions"] = tuple(initial)
    if "releases" in given:
        given["releases"] = _parse_releases(given["releases"])
    if "runtime_arrivals" in given:
        users = given.get("users", _DEFAULT.users)
        given["runtime_arrivals"] = _parse_arrivals(given["runtime_arrivals"], users)
    if "strategy" in given:
        given["strategy"] = _parse_strategy(given["strategy"])
    if "latency" in given:
        given["latency"] = _parse_latency(given["latency"])
    scenario = Scenario(**given)
    validate(scenario)
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
