"""``src/versim/`` stays within its line budgets.

The strategy controllers hold the most code in the package and the most
duplication to remove. Their budget is 1,417 lines counted as ``wc -l``
counts them, 40% below the 2,374 of the first version; the run log, which
counts what the worlds report, lives in ``metrics.py``. The whole package
is capped at 3,173 lines, so that code moved out of ``strategies/`` still
counts. A change that adds behaviour pays for its lines by removing others.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "versim"
STRATEGIES = PACKAGE / "strategies"
BUDGET = 1_417
PACKAGE_BUDGET = 3_173


def _line_counts(paths) -> dict[str, int]:
    return {str(path.relative_to(PACKAGE)): path.read_bytes().count(b"\n") for path in sorted(paths)}


def test_strategies_stay_within_the_line_budget():
    counts = _line_counts(STRATEGIES.glob("*.py"))
    assert sum(counts.values()) <= BUDGET, counts


def test_the_package_stays_within_its_line_budget():
    counts = _line_counts(PACKAGE.rglob("*.py"))
    assert sum(counts.values()) <= PACKAGE_BUDGET, counts
