"""A run's live memory per user stays small.

A user's enrollment audio is one ``EnrollmentAudio`` value (its stream
state and sample count), shared by the database row and every profile made
from it, so a run stores no sample. The guard is a 4,000-user SERVER DOUBLE
run measured with ``tracemalloc``: everything the run allocated and still
holds at its end, with its result alive, divided by the users. Storing the
three samples of each user again costs about 300 bytes a user and fails it.
"""

import tracemalloc

from versim.runner import run
from versim.scenario import scenario_from_dict

USERS = 4_000
MAX_LIVE_BYTES_PER_USER = 900

GUARD = {
    "strategy": {"policy": "DOUBLE"},
    "users": USERS,
    "devices": 1_000,
    "cloud_servers": 16,
    "initial_versions": ["V1", "V2"],
    "runtime_arrivals": {"poisson_rate_per_user_per_s": 0.05},
    "duration_ms": 20_000,
    "seed": 31,
}


def test_live_memory_per_user_at_the_end_of_a_run_stays_bounded():
    scenario = scenario_from_dict(GUARD)
    tracemalloc.start()
    try:
        result = run(scenario)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.report.total_requests["RUNTIME"]["OK"] > USERS // 2
    assert live / USERS <= MAX_LIVE_BYTES_PER_USER, f"{live / USERS:.0f} B per user"
