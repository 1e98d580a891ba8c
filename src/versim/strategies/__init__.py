"""The worlds that run the version-control strategies of ``scenario.STRATEGIES``."""
