"""The worlds that run the version-control strategies of ``scenario.STRATEGIES``."""

from .common import (
    Deployment,
    Mitigation,
    StrategyConfig,
    UpdatePolicy,
    WorldBase,
)
from .device import DeviceWorld
from .hybrid import HybridDoubleWorld, HybridSingleWorld
from .server import (
    DoubleServerWorld,
    MultiProfileServerWorld,
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
    "MultiProfileServerWorld",
    "OfflineServerWorld",
    "OnlineServerWorld",
    "StrategyConfig",
    "SyncTableServerWorld",
    "UpdatePolicy",
    "WorldBase",
]
