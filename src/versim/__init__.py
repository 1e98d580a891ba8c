"""versim: a deterministic discrete-event simulator for studying how
speaker-recognition fleets manage model and profile versions.

``run`` and ``scenario_from_dict`` are the library entry points; the report
types, the scenario loader and the strategy configuration live in their own
modules (``versim.metrics``, ``versim.scenario``, ``versim.strategies.common``),
and each deployment's worlds in its module of ``versim.strategies``.
"""

from .runner import run
from .scenario import scenario_from_dict

__all__ = ["run", "scenario_from_dict"]
