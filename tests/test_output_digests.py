"""Byte pins for every strategy combination.

The 3 golden traces cover DEVICE, SERVER DOUBLE and SERVER ONLINE only. This
test runs the 11 combinations of the acceptance sweep at two seeds with the
event trace on and compares SHA-256 digests of the report JSON, the trace,
the re-enrollment log and the profile writes against a committed table, so
a refactor that moves one byte or one rng draw in any world fails here.

Regenerate the table (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_output_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from test_acceptance import _COMBOS, _sweep_scenario
from versim.metrics import report_to_json
from versim.runner import run

TABLE = Path(__file__).parent / "goldens" / "sweep_digests.json"
SEEDS = (1, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(strategy, initial, seed) -> dict[str, str]:
    result = run(_sweep_scenario(strategy, initial, seed), trace=True)
    reenrolls = [
        [e.at, e.user_id, e.from_seq, e.to_seq, e.to_version.id] for e in result.reenrolls
    ]
    return {
        "report": _sha(report_to_json(result.report)),
        "trace": _sha("\n".join(result.trace)),
        "reenrolls": _sha(json.dumps(reenrolls)),
        "profile_puts": _sha(json.dumps([list(p) for p in result.profile_puts])),
    }


def _all_digests() -> dict[str, dict[str, str]]:
    return {
        f"{name}/{seed}": digests(strategy, initial, seed)
        for name, strategy, initial in _COMBOS
        for seed in SEEDS
    }


@pytest.mark.parametrize("name,strategy,initial", _COMBOS, ids=[c[0] for c in _COMBOS])
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_the_pinned_digests(name, strategy, initial, seed):
    table = json.loads(TABLE.read_text())
    assert digests(strategy, initial, seed) == table[f"{name}/{seed}"]


if __name__ == "__main__":
    TABLE.write_text(json.dumps(_all_digests(), indent=2, sort_keys=True) + "\n")
