"""Version-control strategies for the recognition fleet, one world per
deployment/update-policy combination."""

from .common import (
    Deployment,
    Mitigation,
    ReenrollEvent,
    RunLog,
    StrategyConfig,
    UpdatePolicy,
    WorldBase,
)
from .device import DeviceWorld
from .hybrid import HybridDoubleWorld, HybridSingleWorld
from .server import (
    DoubleServerWorld,
    OfflineServerWorld,
    OnlineServerWorld,
    SyncTableServerWorld,
)

__all__ = [
    "Deployment",
    "DeviceWorld",
    "DoubleServerWorld",
    "HybridDoubleWorld",
    "HybridSingleWorld",
    "Mitigation",
    "OfflineServerWorld",
    "OnlineServerWorld",
    "ReenrollEvent",
    "RunLog",
    "StrategyConfig",
    "SyncTableServerWorld",
    "UpdatePolicy",
    "WorldBase",
]
