"""``src/versim/strategies/`` stays within its line budget.

The strategy controllers hold the most code in the package and the most
duplication to remove. The budget is 1,700 lines counted as ``wc -l``
counts them, 28% below the 2,374 of the first version; the run log, which
counts what the worlds report, lives in ``metrics.py``. A change that adds
behaviour there pays for its lines by removing others.
"""

from pathlib import Path

STRATEGIES = Path(__file__).resolve().parent.parent / "src" / "versim" / "strategies"
BUDGET = 1_700


def test_strategies_stay_within_the_line_budget():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(STRATEGIES.glob("*.py"))}
    assert sum(counts.values()) <= BUDGET, counts
