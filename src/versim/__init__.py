"""versim: a deterministic discrete-event simulator for studying how
speaker-recognition fleets manage model and profile versions.

The public surface is the scenario loader, the runner, the report types, and
the strategy configuration.
"""

from .domain import (
    AudioSample,
    EmptyAudioError,
    EmptyUserIdError,
    NoCommonVersionError,
    NoEligibleServerError,
    Outcome,
    SimulationError,
    UnknownUserError,
    UserProfile,
    VersionId,
    VersionMismatchError,
)
from .engine import EngineInstance, fnv1a64, profile_digest
from .kernel import LatencyModel, SimRng, Simulator, node_stream
from .metrics import (
    LatencyStats,
    Report,
    RequestKind,
    RequestRecord,
    report_from_dict,
    report_to_dict,
    report_to_json,
    summarize,
)
from .runner import RunFailedError, RunResult, run
from .scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    scenario_from_dict,
)
from .strategies import Deployment, Mitigation, StrategyConfig, UpdatePolicy
from .topology import DispatchPolicy

__version__ = "0.1.0"

__all__ = [
    "AudioSample",
    "Deployment",
    "DispatchPolicy",
    "EmptyAudioError",
    "EmptyUserIdError",
    "EngineInstance",
    "LatencyModel",
    "LatencyStats",
    "Mitigation",
    "NoCommonVersionError",
    "NoEligibleServerError",
    "Outcome",
    "Report",
    "RequestKind",
    "RequestRecord",
    "RunFailedError",
    "RunResult",
    "Scenario",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SimRng",
    "SimulationError",
    "Simulator",
    "StrategyConfig",
    "UnknownUserError",
    "UpdatePolicy",
    "UserProfile",
    "VersionId",
    "VersionMismatchError",
    "fnv1a64",
    "load_scenario",
    "node_stream",
    "profile_digest",
    "report_from_dict",
    "report_to_dict",
    "report_to_json",
    "run",
    "scenario_from_dict",
    "summarize",
    "__version__",
]
