"""Command-line behavior: exit codes, output targets, seed resolution."""

import json
import re
import weakref
from pathlib import Path

import pytest

from test_runner import zero_link_scenario
import versim.cli as cli
from versim.domain import SimulationError, VersionMismatchError
from versim.engine import EngineInstance
from versim.metrics import report_to_json
from versim.runner import RunFailedError
from versim.runner import run as lib_run
from versim.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _write_scenario(tmp_path, name="scenario.json", **overrides):
    data = {
        "users": 2,
        "cloud_servers": 2,
        "releases": [{"time_ms": 2000, "version_id": "V2"}],
        "runtime_arrivals": {
            "explicit": [
                {"time_ms": 1000, "user_id": "u000"},
                {"time_ms": 4000, "user_id": "u001"},
            ]
        },
        "duration_ms": 6000,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_run_prints_report_json(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    assert cli.main(["run", "--scenario", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mismatch_violations"] == 0
    assert report["availability"] == 1.0


def test_run_writes_out_and_trace_files(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.tsv"
    assert cli.main(
        ["run", "--scenario", path, "--out", str(out), "--trace", str(trace)]
    ) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["total_requests"]["RUNTIME"]["OK"] == 2
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines, "trace file must not be empty"
    first = lines[0].split("\t")
    assert len(first) == 5
    assert first[0] == "0"  # first event fires at t=0


def test_seed_flag_beats_env_beats_file(tmp_path, capsys, monkeypatch):
    path = _write_scenario(tmp_path, seed=1)

    def report_for(argv):
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)

    base = report_for(["run", "--scenario", path])
    monkeypatch.setenv("SIM_SEED", "9")
    env_run = report_for(["run", "--scenario", path])
    flag_run = report_for(["run", "--scenario", path, "--seed", "1"])
    assert flag_run == base
    assert env_run.keys() == base.keys()
    monkeypatch.setenv("SIM_SEED", "not-a-number")
    assert cli.main(["run", "--scenario", path]) == 2


def test_seed_override_takes_the_file_seed_rule(tmp_path, capsys, monkeypatch):
    path = _write_scenario(tmp_path)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    for bad in ("-3", str(2**64 + 5), str(2**64)):
        for argv in (["run", "--scenario", path, "--seed", bad], ["compare", path, "--seed", bad]):
            assert cli.main(argv) == 2, argv
            assert f"--seed {bad}: must be an unsigned 64-bit integer" in capsys.readouterr().err
        monkeypatch.setenv("SIM_SEED", bad)
        for argv in (["run", "--scenario", path], ["compare", path]):
            assert cli.main(argv) == 2, argv
            assert f"SIM_SEED={bad}: must be an unsigned 64-bit integer" in capsys.readouterr().err
        monkeypatch.delenv("SIM_SEED")
    assert runs == []
    monkeypatch.undo()
    for edge in ("0", str(2**64 - 1)):
        assert cli.main(["run", "--scenario", path, "--seed", edge]) == 0
        assert json.loads(capsys.readouterr().out)["mismatch_violations"] == 0


def test_validate_accepts_and_describes(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    assert cli.main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: SERVER/SINGLE_ONLINE")
    assert "2 users" in out


def test_validate_rejects_bad_strategy(tmp_path, capsys):
    path = _write_scenario(
        tmp_path, strategy={"deployment": "DEVICE", "policy": "DOUBLE"}
    )
    assert cli.main(["validate", "--scenario", path]) == 2
    assert "scenario error" in capsys.readouterr().err


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"seed": 1, "note": "caf\xe9"}')
    return str(path)


def test_missing_file_is_exit_2(tmp_path, capsys):
    good = _write_scenario(tmp_path)
    folder = str(tmp_path)
    latin1 = _not_utf8(tmp_path)
    nowhere = str(tmp_path / "no-such-dir" / "file")
    cases = [
        (["run", "--scenario", "/no/such/file.json"], "cannot read /no/such/file.json: not found"),
        (["run", "--scenario", folder], f"cannot read {folder}: is a directory"),
        (["validate", "--scenario", folder], f"cannot read {folder}: is a directory"),
        (["run", "--scenario", latin1], f"{latin1}: not UTF-8 text"),
        (["validate", "--scenario", latin1], f"{latin1}: not UTF-8 text"),
        (["run", "--scenario", good, "--trace", folder], f"cannot write {folder}: is a directory"),
        (["run", "--scenario", good, "--out", folder], f"cannot write {folder}: is a directory"),
        (["run", "--scenario", good, "--trace", nowhere], f"cannot write {nowhere}: no such directory"),
        (["run", "--scenario", good, "--out", nowhere], f"cannot write {nowhere}: no such directory"),
        (["compare", good, "--out", folder], f"cannot write {folder}: is a directory"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_bad_out_path_is_exit_2_before_the_run(tmp_path, capsys, monkeypatch):
    good = _write_scenario(tmp_path)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    trace = tmp_path / "existing.tsv"
    trace.write_text("kept\n", encoding="utf-8")
    nowhere = tmp_path / "no-such-dir" / "report.json"
    for out, reason in ((tmp_path, "is a directory"), (nowhere, "no such directory")):
        for argv in (
            ["run", "--scenario", good, "--out", str(out), "--trace", str(trace)],
            ["compare", good, good, "--out", str(out)],
        ):
            assert cli.main(argv) == 2
            assert f"cannot write {out}: {reason}" in capsys.readouterr().err
    assert runs == []
    assert trace.read_text(encoding="utf-8") == "kept\n"
    assert not nowhere.parent.exists()


def test_tripwire_death_is_exit_1(tmp_path, capsys, monkeypatch):
    path = _write_scenario(tmp_path)

    def explode(scenario, trace=None):
        raise RunFailedError(SimulationError("version skew"), at=123, seq=4)

    monkeypatch.setattr(cli, "run", explode)
    assert cli.main(["run", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert "run failed" in err and "t=123ms" in err


def test_a_stalled_clock_is_exit_1(tmp_path, capsys):
    data = zero_link_scenario({"deployment": "HYBRID"}, ["V1"], 20, 2)
    path = _write_scenario(tmp_path, **data)
    assert cli.main(["run", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert "run failed" in err and "the clock stalled at t=" in err


def test_compare_tabulates_and_dumps_rows(tmp_path, capsys):
    a = _write_scenario(tmp_path, "a.json")
    b = _write_scenario(tmp_path, "b.json", strategy={"policy": "SINGLE_OFFLINE"})
    out = tmp_path / "rows.json"
    assert cli.main(["compare", a, b, "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "scenario" in table and "a.json" in table and "b.json" in table
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [row["scenario"] for row in rows] == ["a.json", "b.json"]
    assert all("availability" in row for row in rows)


def test_compare_frees_each_world_before_the_next_run(tmp_path, monkeypatch, capsys):
    paths = [_write_scenario(tmp_path, f"{name}.json") for name in "abc"]
    worlds = []

    def run(scenario):
        # every world an earlier run built is gone before this run starts
        assert all(world() is None for world in worlds)
        result = lib_run(scenario)
        worlds.append(weakref.ref(result.world))
        return result

    monkeypatch.setattr(cli, "run", run)
    assert cli.main(["compare", *paths]) == 0
    assert len(worlds) == 3


def test_compare_keeps_going_past_bad_files(tmp_path, capsys):
    good = _write_scenario(tmp_path, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    folder = tmp_path / "folder.json"
    folder.mkdir()
    latin1 = _not_utf8(tmp_path)
    assert cli.main(["compare", good, str(bad), str(folder), latin1]) == 1
    table = capsys.readouterr().out
    assert "good.json" in table
    for name in ("bad.json", "folder.json", "latin1.json"):
        assert f"{name:<28} error:" in table


def test_list_strategies_covers_the_matrix(capsys):
    assert cli.main(["list-strategies"]) == 0
    out = capsys.readouterr().out
    for token in ("DEVICE", "SINGLE_OFFLINE", "DOUBLE", "HYBRID", "SYNC_TABLE"):
        assert token in out
    assert out == (
        "deployment  policy          mitigations\n"
        "DEVICE      SINGLE_ONLINE   -\n"
        "SERVER      SINGLE_OFFLINE  -\n"
        "SERVER      SINGLE_ONLINE   NONE, SYNC_TABLE, HASH_LB, MULTI_PROFILE\n"
        "SERVER      DOUBLE          -\n"
        "HYBRID      SINGLE_ONLINE   - (optional handshake)\n"
        "HYBRID      DOUBLE          - (optional handshake)\n"
    )


def test_run_report_matches_library_run(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    assert cli.main(["run", "--scenario", path]) == 0
    cli_text = capsys.readouterr().out
    lib_text = report_to_json(lib_run(load_scenario(path)).report)
    assert cli_text == lib_text


def test_streamed_trace_file_matches_goldens(tmp_path):
    from test_acceptance import GOLDENS, _golden_scenarios

    for name, data in _golden_scenarios().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        trace = tmp_path / f"{name}.trace.tsv"
        assert cli.main(
            ["run", "--scenario", str(path), "--trace", str(trace), "--out", str(tmp_path / "r")]
        ) == 0
        assert trace.read_bytes() == (GOLDENS / f"{name}.trace.tsv").read_bytes(), name


def test_streamed_trace_file_matches_the_in_memory_trace(tmp_path):
    files = sorted(SCENARIOS.glob("*.json"))
    assert files
    for path in files:
        trace = tmp_path / f"{path.stem}.trace.tsv"
        assert cli.main(
            ["run", "--scenario", str(path), "--trace", str(trace), "--out", str(tmp_path / "r")]
        ) == 0
        lines: list[str] = []
        lib_run(load_scenario(str(path)), trace=lines)
        assert trace.read_text(encoding="utf-8") == "\n".join(lines) + "\n", path.name


def test_tripwire_leaves_the_trace_up_to_the_failing_event(tmp_path, capsys, monkeypatch):
    path = str(SCENARIOS / "online_random_bounce.json")
    full: list[str] = []
    lib_run(load_scenario(path), trace=full)
    original = EngineInstance.recognize
    calls = 0

    def recognize_then_trip(self, profile):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise VersionMismatchError("injected mismatch")
        return original(self, profile)

    monkeypatch.setattr(EngineInstance, "recognize", recognize_then_trip)
    trace = tmp_path / "trace.tsv"
    assert cli.main(["run", "--scenario", path, "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    match = re.search(r"t=(\d+)ms, seq=(\d+)", err)
    assert "injected mismatch" in err and match
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[-1].split("\t")[:2] == [match.group(1), match.group(2)]
    assert lines == full[: len(lines)]
    assert len(lines) < len(full)


def test_bad_scenario_leaves_the_trace_file_alone(tmp_path, capsys):
    invalid = _write_scenario(tmp_path, strategy={"deployment": "DEVICE", "policy": "DOUBLE"})
    folder = tmp_path / "folder"
    folder.mkdir()
    existing = tmp_path / "existing.tsv"
    existing.write_text("kept\n", encoding="utf-8")
    absent = tmp_path / "absent.tsv"
    for bad, message in (
        (invalid, "scenario error"),
        (str(folder), "cannot read"),
        (_not_utf8(tmp_path), "not UTF-8 text"),
        (str(tmp_path / "missing.json"), "not found"),
    ):
        for trace in (existing, absent):
            assert cli.main(["run", "--scenario", bad, "--trace", str(trace)]) == 2
            assert message in capsys.readouterr().err
        assert existing.read_text(encoding="utf-8") == "kept\n"
        assert not absent.exists()
