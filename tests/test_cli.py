"""Command-line interface."""

import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.api import ServiceClient
from repro.cli import build_parser, main
from repro.errors import ServiceError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "c17" in output
    assert "circuitA" in output


def test_library_command_to_file(tmp_path, capsys):
    out = tmp_path / "lib.lib"
    assert main(["library", "--out", str(out)]) == 0
    text = out.read_text()
    assert "library (repro_smt)" in text
    assert "NAND2_X1_MTV" in text


def test_flow_command(capsys):
    assert main(["flow", "--circuit", "c17", "--technique", "improved_smt",
                 "--margin", "0.2"]) == 0
    output = capsys.readouterr().out
    assert "physical_synthesis" in output
    assert "total area" in output


def test_compare_command(capsys):
    assert main(["compare", "--circuit", "c17", "--margin", "0.2"]) == 0
    output = capsys.readouterr().out
    assert "dual_vth" in output
    assert "improved_smt" in output


def test_unset_config_flags_take_the_flow_config_defaults():
    """No config flag carries a default of its own: a run that sets
    none builds the facade's FlowConfig."""
    from repro.cli import _config_from
    from repro.config import FlowConfig

    for command, option in [("flow", "--circuit"), ("compare", "--circuit"),
                            ("sweep", "--circuits"), ("corners", "--circuits"),
                            ("montecarlo", "--circuit"),
                            ("standby", "--circuit"), ("policy", "--circuit")]:
        args = build_parser().parse_args([command, option, "c17"])
        assert _config_from(args) == FlowConfig(), command


def test_parser_rejects_bad_technique():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["flow", "--circuit", "c17",
                           "--technique", "magic"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sweep_command(capsys):
    assert main(["sweep", "--circuits", "c17", "--margin", "0.2"]) == 0
    output = capsys.readouterr().out
    assert "dual_vth" in output
    assert "improved_smt" in output
    assert "c17" in output


def test_sweep_command_parallel_matches_serial(capsys):
    assert main(["sweep", "--circuits", "c17", "--margin", "0.2",
                 "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["sweep", "--circuits", "c17", "--margin", "0.2",
                 "--jobs", "3"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_sweep_technique_subset(capsys):
    assert main(["sweep", "--circuits", "c17", "--margin", "0.2",
                 "--techniques", "dual_vth,improved_smt"]) == 0
    output = capsys.readouterr().out
    assert "conventional_smt" not in output
    assert "improved_smt" in output


def test_sweep_rejects_empty_circuits():
    assert main(["sweep", "--circuits", ","]) == 2


def test_sweep_rejects_bad_technique(capsys):
    assert main(["sweep", "--circuits", "c17",
                 "--techniques", "dual_vth,bogus"]) == 2
    assert "valid:" in capsys.readouterr().err


def test_corners_command(tmp_path, capsys):
    out = tmp_path / "corners.json"
    assert main(["corners", "--circuits", "c17", "--margin", "0.2",
                 "--techniques", "dual_vth,improved_smt",
                 "--corners", "tt_nom,ff_1.32v_125c",
                 "--json", str(out)]) == 0
    output = capsys.readouterr().out
    assert "tt_nom" in output
    assert "ff_1.32v_125c" in output
    import json

    payload = json.loads(out.read_text())
    assert payload["corners"] == ["tt_nom", "ff_1.32v_125c"]
    techniques = {row["technique"] for row in payload["results"]}
    assert techniques == {"dual_vth", "improved_smt"}


def test_corners_rejects_unknown_corner(capsys):
    assert main(["corners", "--circuits", "c17",
                 "--corners", "tt_nom,bogus_corner"]) == 2
    assert "unknown corner" in capsys.readouterr().err


def test_corners_rejects_empty_circuits():
    assert main(["corners", "--circuits", ","]) == 2


def test_corners_rejects_bad_technique(capsys):
    assert main(["corners", "--circuits", "c17",
                 "--techniques", "dual_vth,bogus"]) == 2
    assert "valid:" in capsys.readouterr().err


def test_sweep_rejects_empty_techniques(capsys):
    assert main(["sweep", "--circuits", "c17", "--techniques", ","]) == 2
    assert "no techniques" in capsys.readouterr().err


def test_montecarlo_command(tmp_path, capsys):
    out = tmp_path / "mc.json"
    assert main(["montecarlo", "--circuit", "c17", "--margin", "0.2",
                 "--samples", "5", "--no-timing",
                 "--techniques", "dual_vth", "--json", str(out)]) == 0
    output = capsys.readouterr().out
    assert "Monte-Carlo" in output
    assert "dual_vth" in output
    import json

    payload = json.loads(out.read_text())
    assert payload["samples"] == 5
    stats = payload["results"]["dual_vth"]["statistics"]
    assert stats["samples"] == 5
    assert stats["mean_nw"] > 0


def test_montecarlo_rejects_unknown_corner(capsys):
    assert main(["montecarlo", "--circuit", "c17",
                 "--corner", "bogus"]) == 2
    assert "unknown corner" in capsys.readouterr().err


def test_sweep_tolerates_trailing_comma_in_techniques(capsys):
    assert main(["sweep", "--circuits", "c17", "--margin", "0.2",
                 "--techniques", "dual_vth,"]) == 0
    output = capsys.readouterr().out
    assert "dual_vth" in output
    assert "improved_smt" not in output


def _load_checked_payload(path):
    """Every --json emission is schema-stamped and round-trips."""
    import json

    from repro.api import schemas

    payload = json.loads(path.read_text())
    assert payload[schemas.SCHEMA_KEY] in schemas.schema_names()
    assert isinstance(payload[schemas.VERSION_KEY], int)
    rebuilt = schemas.from_dict(payload)
    assert schemas.to_dict(rebuilt) == payload
    return payload


def test_flow_command_json(tmp_path, capsys):
    out = tmp_path / "flow.json"
    assert main(["flow", "--circuit", "c17", "--margin", "0.2",
                 "--json", str(out)]) == 0
    payload = _load_checked_payload(out)
    assert payload["schema"] == "optimize_result"
    assert payload["technique"] == "improved_smt"
    assert payload["circuit"] == "c17"
    assert payload["area_um2"] > 0


def test_compare_command_json(tmp_path, capsys):
    out = tmp_path / "compare.json"
    assert main(["compare", "--circuit", "c17", "--margin", "0.2",
                 "--json", str(out)]) == 0
    payload = _load_checked_payload(out)
    assert payload["schema"] == "sweep_result"
    assert len(payload["rows"]) == 3


def test_sweep_command_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--circuits", "c17", "--margin", "0.2",
                 "--techniques", "dual_vth", "--json", str(out)]) == 0
    payload = _load_checked_payload(out)
    assert payload["schema"] == "sweep_result"
    assert payload["rows"][0]["circuit"] == "c17"


def test_corners_json_is_schema_stamped(tmp_path, capsys):
    out = tmp_path / "corners.json"
    assert main(["corners", "--circuits", "c17", "--margin", "0.2",
                 "--techniques", "dual_vth", "--corners", "tt_nom",
                 "--json", str(out)]) == 0
    payload = _load_checked_payload(out)
    assert payload["schema"] == "corner_signoff_report"


def test_montecarlo_json_is_schema_stamped(tmp_path, capsys):
    out = tmp_path / "mc.json"
    assert main(["montecarlo", "--circuit", "c17", "--margin", "0.2",
                 "--samples", "3", "--no-timing",
                 "--techniques", "dual_vth", "--json", str(out)]) == 0
    payload = _load_checked_payload(out)
    assert payload["schema"] == "montecarlo_study"
    assert payload["results"]["dual_vth"]["statistics"]["samples"] == 3


def test_serve_command_registered():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0"])
    assert args.port == 0
    assert args.workers == 1


def test_serve_result_store_default_honours_disabled_values(monkeypatch,
                                                            tmp_path):
    """``REPRO_RESULT_STORE=off`` (or 0/none/disabled) means no store,
    not a store in a directory literally named ``off``."""
    for value in ("off", "0", "none", "disabled", "Off", " DISABLED "):
        monkeypatch.setenv("REPRO_RESULT_STORE", value)
        args = build_parser().parse_args(["serve"])
        assert args.result_store is None, value
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
    args = build_parser().parse_args(["serve"])
    assert str(args.result_store) == str(tmp_path)


def _child_pids(pid: int) -> list[int]:
    """Processes whose parent is ``pid``."""
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _proc_stat(int(entry))[1] == pid]


def _proc_stat(pid: int) -> tuple[str, int]:
    """(state, parent pid) of ``pid``; ("", 0) once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return "", 0
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    return _proc_stat(pid)[0] not in ("", "Z")


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="finds the shard worker through /proc")
def test_serve_with_shards_exits_cleanly_on_sigterm():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
         "--shards", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                client.health()
                break
            except (ServiceError, OSError):
                assert time.monotonic() < deadline, "serve never came up"
                time.sleep(0.2)
        client.run("analyze", "c17", timeout=120.0)
        workers = _child_pids(server.pid)
        assert workers, "the job ran in no shard worker process"
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30.0) == 0
        deadline = time.monotonic() + 10.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_alive, workers)), "a shard worker outlived serve"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def test_standby_command(tmp_path, capsys):
    out = tmp_path / "standby.json"
    assert main(["standby", "--circuit", "c17", "--margin", "0.2",
                 "--scenarios", "mostly_idle,always_on",
                 "--corners", "tt_nom", "--json", str(out)]) == 0
    output = capsys.readouterr().out
    assert "Standby-transition signoff" in output
    assert "wake-up schedule" in output
    assert "mostly_idle" in output
    payload = _load_checked_payload(out)
    assert payload["schema"] == "standby_result"
    assert payload["scenarios"] == ["mostly_idle", "always_on"]
    assert payload["corners"] == ["tt_nom"]


def test_standby_rejects_unknown_scenario(capsys):
    assert main(["standby", "--circuit", "c17", "--margin", "0.2",
                 "--scenarios", "hyperdrive"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_standby_rejects_unknown_corner(capsys):
    assert main(["standby", "--circuit", "c17", "--margin", "0.2",
                 "--scenarios", "mostly_idle",
                 "--corners", "tt_blazing"]) == 2
    assert "unknown corner" in capsys.readouterr().err


@pytest.mark.parametrize("points", [[[1, 2, 3]], [["x", 1]], 5],
                         ids=["three-values", "non-numeric", "not-a-list"])
def test_standby_rejects_bad_scenario_file_points(tmp_path, capsys,
                                                  points):
    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "measured", "active_ns": 400.0, "idle_ns": 5000.0,
        "distribution": "empirical", "points": points}),
        encoding="utf-8")
    assert main(["standby", "--circuit", "c17", "--margin", "0.2",
                 "--scenario-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario_file: ")
    assert str(path) in err
    assert len(err.splitlines()) == 1


def test_flow_command_trace(tmp_path, capsys):
    import json

    from repro.obs import spans

    trace = tmp_path / "trace.json"
    try:
        assert main(["flow", "--circuit", "c17", "--margin", "0.2",
                     "--trace", str(trace)]) == 0
    finally:
        spans.disable()
        spans.reset()
    output = capsys.readouterr().out
    assert f"wrote Chrome trace to {trace}" in output
    payload = json.loads(trace.read_text(encoding="utf-8"))
    names = {event["name"] for event in payload["traceEvents"]}
    assert "flow.run" in names
    assert "stage.physical_synthesis" in names
    assert "sta.full_run" in names


def test_log_level_option_routes_repro_logger():
    import logging

    from repro.obs.logconf import _HANDLER_NAME, root_logger

    try:
        assert main(["flow", "--circuit", "c17", "--margin", "0.2",
                     "--log-level", "DEBUG"]) == 0
        assert root_logger.level == logging.DEBUG
        assert any(h.name == _HANDLER_NAME
                   for h in root_logger.handlers)
    finally:
        for handler in list(root_logger.handlers):
            if handler.name == _HANDLER_NAME:
                root_logger.removeHandler(handler)
        root_logger.setLevel(logging.NOTSET)


@pytest.mark.parametrize("argv, field", [
    (["flow", "--circuit", "nope"], "circuit"),
    (["stats", "--circuit", "nope"], "circuit"),
    (["sweep", "--circuits", "c17,nope"], "circuit"),
    (["flow", "--circuit", "c17", "--margin", "-1"], "timing_margin"),
], ids=["flow-circuit", "stats-circuit", "sweep-circuits", "flow-margin"])
def test_bad_input_is_one_stderr_line_and_exit_2(argv, field, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid {field}: ")
    assert len(err.splitlines()) == 1


def test_bad_log_level_is_exit_2(capsys):
    assert main(["flow", "--circuit", "c17",
                 "--log-level", "loudest"]) == 2
    assert "unknown log level" in capsys.readouterr().err
