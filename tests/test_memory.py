"""A run's live memory per user stays small, at its end and at its peak.

A user's enrollment audio is one ``EnrollmentAudio`` value (its stream
state and sample count), shared by the database and every profile made from
it, so a run stores no sample. The database keeps each user's audio and
profiles in two dicts, with no row object per user. The guard is a
4,000-user SERVER DOUBLE run measured with ``tracemalloc``, divided by the
users:
- at the end, everything the run allocated and still holds, with its
  result alive: about 540 bytes a user (565 with a row object per user,
  595 with it on Python 3.10; 600 while the events queued before the first
  ``run_until`` were held in a list of their own, 680 with a device node and
  owner list per device and a user-to-device map in a SERVER world).
  Storing the three samples of each user again costs about 300 bytes a user
  and fails it.
- at the peak, which comes during the t=0 enrollment burst, when every
  user's enrollment is in flight. Flows and stores hold exact-size tuples,
  each flow context is the message of its hops, each request arrives as its
  context, and the t=0 enrollment arrivals wait in their millisecond's
  bucket like every other event: about 836 bytes a user (860 with a row
  object per user, 885 with it on Python 3.10; 895 with those arrivals in a
  list sorted at the first ``run_until``, 975 with an arrival message of
  each request's own, 1,015 with a wrapper message per hop). With the lists
  the flows held before, the peak was about 1,220.

A third guard runs the same scenario through ``versim run`` with and without
``--trace``: the run hands its trace lines to the file in blocks of at most
``kernel.TRACE_BLOCK``, so tracing may raise the peak by about one block,
not by the trace (79,124 lines, about 10 MB as Python strings).
"""

import json
import tracemalloc

import pytest

from versim import cli
from versim.kernel import TRACE_BLOCK
from versim.runner import run
from versim.scenario import scenario_from_dict

USERS = 4_000
MAX_LIVE_BYTES_PER_USER = 593
MAX_PEAK_BYTES_PER_USER = 918
# bytes a traced run may add per line of a block: the held line (a str of
# under 100 ASCII characters, about 150 bytes with its header and list slot)
# and its share of the block's joined, newline-ended and encoded copies that
# the write makes. A 256-line block then allows 128 KiB; a run measured
# 58 KB over the untraced one (Python 3.11)
TRACE_BYTES_PER_BLOCK_LINE = 512

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


def _cli_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_traced_cli_run_holds_at_most_a_block_of_trace_lines(tmp_path):
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(GUARD), encoding="utf-8")
    plain = ["run", "--scenario", str(path), "--out", str(tmp_path / "report.json")]
    traced = plain + ["--trace", str(tmp_path / "trace.tsv")]
    # an untraced run first, so that what a first run in the process
    # allocates and keeps is outside both measurements
    assert cli.main(plain) == 0
    extra = _cli_peak(traced) - _cli_peak(plain)
    with open(tmp_path / "trace.tsv", encoding="utf-8") as f:
        assert sum(1 for _ in f) >= 50_000
    assert extra <= TRACE_BLOCK * TRACE_BYTES_PER_BLOCK_LINE, f"{extra} B over the untraced run"
