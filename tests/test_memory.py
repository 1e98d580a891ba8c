"""A run's live memory per user stays small, at its end and at its peak.

A user's enrollment audio is one ``EnrollmentAudio`` value (its stream
state and sample count), shared by the database row and every profile made
from it, so a run stores no sample. The guard is a 4,000-user SERVER DOUBLE
run measured with ``tracemalloc``, divided by the users:
- at the end, everything the run allocated and still holds, with its
  result alive: about 565 bytes a user (595 on Python 3.10; 600 while the
  events queued before the first ``run_until`` were held in a list of their
  own, 680 with a device node and owner list per device and a user-to-device
  map in a SERVER world). Storing the three samples of each user again costs
  about 300 bytes a user and fails it.
- at the peak, which comes during the t=0 enrollment burst, when every
  user's enrollment is in flight. Flows and stores hold exact-size tuples,
  each flow context is the message of its hops, each request arrives as its
  context, and the t=0 enrollment arrivals wait in their millisecond's
  bucket like every other event: about 860 bytes a user (885 on Python
  3.10; 895 with those arrivals in a list sorted at the first ``run_until``,
  975 with an arrival message of each request's own, 1,015 with a wrapper
  message per hop). With the lists the flows held before, the peak was about
  1,220.
"""

import tracemalloc

import pytest

from versim.runner import run
from versim.scenario import scenario_from_dict

USERS = 4_000
MAX_LIVE_BYTES_PER_USER = 615
MAX_PEAK_BYTES_PER_USER = 940

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


@pytest.fixture(scope="module")
def traced():
    """(runtime requests answered OK, live bytes at the end, peak bytes)."""
    scenario = scenario_from_dict(GUARD)
    tracemalloc.start()
    try:
        result = run(scenario)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result.report.total_requests["RUNTIME"]["OK"], live, peak


def test_live_memory_per_user_at_the_end_of_a_run_stays_bounded(traced):
    ok, live, _ = traced
    assert ok > USERS // 2
    assert live / USERS <= MAX_LIVE_BYTES_PER_USER, f"{live / USERS:.0f} B per user"


def test_live_memory_per_user_at_the_peak_of_a_run_stays_bounded(traced):
    _, _, peak = traced
    assert peak / USERS <= MAX_PEAK_BYTES_PER_USER, f"{peak / USERS:.0f} B per user"
